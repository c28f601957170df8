#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace ctms {

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const uint32_t slot = free_head_;
    Record& record = RecordAt(slot);
    free_head_ = record.next_free;
    record.next_free = kNoSlot;
    --free_count_;
    return slot;
  }
  if (slots_used_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
  }
  const auto slot = static_cast<uint32_t>(slots_used_++);
  if (slab_gauge_ != nullptr) {
    slab_gauge_->Set(static_cast<int64_t>(slots_used_));
  }
  return slot;
}

void EventQueue::Release(uint32_t slot) {
  Record& record = RecordAt(slot);
  record.action.Reset();
  record.location = kRecordFree;
  record.next_free = free_head_;
  free_head_ = slot;
  ++free_count_;
}

EventId EventQueue::Insert(const EventOrder& order, uint32_t slot) {
  Record& record = RecordAt(slot);
  const Entry entry{order, slot, record.generation};
  int64_t bucket = BucketIndex(order.when);
  if (bucket < wheel_base_) {
    // Scheduled behind the wheel base (e.g. "at now" after the base advanced past that
    // bucket's start): park it in the base bucket; the run-order heap inside the bucket
    // keeps it ahead of later events.
    bucket = wheel_base_;
  }
  if (bucket < wheel_base_ + static_cast<int64_t>(kWheelBuckets)) {
    const auto phys = static_cast<size_t>(bucket) & kBucketMask;
    record.location = static_cast<int32_t>(phys);
    std::vector<Entry>& b = buckets_[phys];
    b.push_back(entry);
    if (b.size() > 1) {
      std::push_heap(b.begin(), b.end(), EntryAfter{});
    }
    if (bucket_live_[phys]++ == 0) {
      occupied_[phys / 64] |= uint64_t{1} << (phys % 64);
    }
    ++wheel_live_;
    ++wheel_entries_;
  } else {
    record.location = kRecordFarHeap;
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
    ++heap_live_;
  }
  ++live_;
  min_valid_ = false;
  UpdateLiveGauge();
  return (static_cast<EventId>(record.generation) << 32) | (slot + 1);
}

void EventQueue::BucketLost(size_t phys) {
  --wheel_live_;
  if (--bucket_live_[phys] == 0) {
    occupied_[phys / 64] &= ~(uint64_t{1} << (phys % 64));
    wheel_entries_ -= buckets_[phys].size();
    buckets_[phys].clear();
  }
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t low = static_cast<uint32_t>(id & 0xffffffffu);
  if (low == 0) {
    return false;
  }
  const uint32_t slot = low - 1;
  if (slot >= slots_used_) {
    return false;
  }
  Record& record = RecordAt(slot);
  if (record.generation != static_cast<uint32_t>(id >> 32) ||
      record.location == kRecordFree) {
    return false;
  }
  ++record.generation;  // the index entry goes stale: dropped or compacted lazily
  if (record.location == kRecordFarHeap) {
    --heap_live_;
  } else {
    BucketLost(static_cast<size_t>(record.location));
  }
  Release(slot);
  --live_;
  min_valid_ = false;
  CompactFarHeapIfStale();
  UpdateLiveGauge();
  return true;
}

void EventQueue::CompactFarHeapIfStale() {
  const size_t stale = heap_.size() - heap_live_;
  if (stale <= 64 || stale <= heap_live_) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !EntryLive(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
  ++heap_compactions_;
}

size_t EventQueue::NextOccupied(size_t from) const {
  size_t word = from / 64;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (from % 64));
  // One pass over every word, then the starting word again for the bits below `from`.
  for (size_t i = 0; i <= kOccupancyWords; ++i) {
    if (bits != 0) {
      return word * 64 + static_cast<size_t>(std::countr_zero(bits));
    }
    word = (word + 1) % kOccupancyWords;
    bits = occupied_[word];
  }
  assert(false && "NextOccupied requires a live wheel entry");
  return from;
}

void EventQueue::FindMin() {
  assert(live_ > 0);
  const Entry* wheel_min = nullptr;
  if (wheel_live_ > 0) {
    const size_t phys = NextOccupied(base_phys_);
    wheel_base_ += static_cast<int64_t>((phys - base_phys_) & kBucketMask);
    base_phys_ = phys;
    std::vector<Entry>& bucket = buckets_[base_phys_];
    while (!EntryLive(bucket.front())) {
      std::pop_heap(bucket.begin(), bucket.end(), EntryAfter{});
      bucket.pop_back();
      --wheel_entries_;
    }
    wheel_min = &bucket.front();
  }
  const Entry* heap_min = nullptr;
  if (heap_live_ > 0) {
    while (!EntryLive(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
      heap_.pop_back();
    }
    heap_min = &heap_.front();
  }
  if (wheel_min != nullptr &&
      (heap_min == nullptr || !EntryAfter{}(*wheel_min, *heap_min))) {
    min_in_wheel_ = true;
    min_entry_ = *wheel_min;
  } else {
    min_in_wheel_ = false;
    min_entry_ = *heap_min;
  }
  min_valid_ = true;
}

SimTime EventQueue::NextTime() {
  assert(!empty());
  if (!min_valid_) {
    FindMin();
  }
  return min_entry_.order.when;
}

SimTime EventQueue::RunNext() {
  assert(!empty());
  if (!min_valid_) {
    FindMin();
  }
  const Entry entry = min_entry_;
  Record& record = RecordAt(entry.slot);
  if (min_in_wheel_) {
    const auto phys = static_cast<size_t>(record.location);
    std::vector<Entry>& b = buckets_[phys];
    if (b.size() > 1) {
      std::pop_heap(b.begin(), b.end(), EntryAfter{});
    }
    b.pop_back();
    --wheel_entries_;
    BucketLost(phys);
    ++wheel_pops_;
    if (wheel_pops_counter_ != nullptr) {
      wheel_pops_counter_->Increment();
    }
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    --heap_live_;
    ++heap_pops_;
    if (heap_pops_counter_ != nullptr) {
      heap_pops_counter_->Increment();
    }
  }
  // Fired: the handle no longer cancels it, and the slot stays off the free list until the
  // action returns (the slab never moves a record, so `record` survives any Schedule the
  // action makes).
  ++record.generation;
  record.location = kRecordFree;
  --live_;
  min_valid_ = false;
  UpdateLiveGauge();
  running_ = entry.order;
  record.action();
  Release(entry.slot);
  return entry.order.when;
}

}  // namespace ctms
