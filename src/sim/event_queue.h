// The discrete-event core: a slab of event records fronted by a bucketed near-future timer
// wheel, with a compacting binary heap for far timers.
//
// Ordering is (time, queue instant, insertion sequence): events scheduled for the same
// instant run in the order they were queued, which makes every run with the same seed
// bit-reproducible. The queue instant is the clock reading when the event was scheduled, so
// for ordinary events it orders exactly as the sequence number does; it exists so that one
// event can stand in for a later, unexecuted queueing (the Cpu's step runs, see
// ARCHITECTURE.md, "The CPU model"). The wheel/heap split is invisible to that contract —
// the pop side always compares the wheel's earliest live entry against the far heap's.
//
// Layout (see ARCHITECTURE.md, "The event core"):
//  - Event records live in a chunked slab with an intrusive free list; callbacks use
//    small-buffer-optimized storage (InlineFunction), built in place at Schedule and run in
//    place at RunNext, so the steady-state schedule/fire cycle performs no heap allocation
//    and moves a callback once.
//  - An EventId is a generation-tagged slot index: Cancel is O(1), reclaims the slot and
//    the callback's captured resources immediately, and a stale handle can never touch a
//    recycled slot (the generation no longer matches).
//  - Events within kWheelBuckets buckets of the wheel base (which trails the earliest
//    pending event) go into per-bucket min-heaps, and an occupancy bitmap leads FindMin
//    straight to the next occupied bucket. This covers the periodic 12 ms VCA tick,
//    adapter DMA completions, and ring token rotation. Farther timers (e.g. 500 ms RTOs) go
//    to a global binary heap whose cancelled entries are compacted away once they outnumber
//    the live ones, so schedule-then-cancel churn (TCP-lite re-arming its RTO on every ack)
//    holds bounded memory.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/inline_function.h"
#include "src/sim/time.h"
#include "src/telemetry/metrics.h"

namespace ctms {

// Opaque handle used to cancel a scheduled event: (generation << 32) | (slot + 1).
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// An event's place in the run order: by time, then by the clock reading when it was
// queued, then first queued, first run.
struct EventOrder {
  SimTime when = 0;
  SimTime queued_at = 0;
  uint64_t seq = 0;

  friend bool operator<(const EventOrder& a, const EventOrder& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    if (a.queued_at != b.queued_at) {
      return a.queued_at < b.queued_at;
    }
    return a.seq < b.seq;
  }
};

class EventQueue {
 public:
  using Action = InlineFunction;

  // Wheel geometry: 2^16 ns ≈ 65.5 us buckets, 256 of them ≈ 16.8 ms horizon. Powers of two
  // so the per-event bucket math is a shift and a mask, and the occupancy bitmap is four
  // words.
  static constexpr int kBucketWidthShift = 16;
  static constexpr size_t kWheelBuckets = 256;

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `action` to run at absolute time `when`, queued at clock reading `queued_at`
  // (the caller's current time, which must not decrease from one call to the next). Returns
  // a handle for cancellation. The callable is built directly in its slab record, so one
  // passed as an rvalue is moved once in all: it runs in place.
  template <typename F>
  EventId Schedule(SimTime when, SimTime queued_at, F&& action) {
    return Schedule(EventOrder{when, queued_at, next_seq_++}, std::forward<F>(action));
  }

  // Schedules `action` at an explicit place in the run order, whose `seq` came from
  // ReserveSeq() and whose `queued_at` need not be the caller's clock: the event runs where
  // one queued at that instant, with that sequence number, would have run.
  template <typename F>
  EventId Schedule(const EventOrder& order, F&& action) {
    const uint32_t slot = AllocSlot();
    RecordAt(slot).action.Emplace(std::forward<F>(action));
    return Insert(order, slot);
  }

  // Takes the sequence number the next Schedule(when, queued_at, ...) would have used.
  uint64_t ReserveSeq() { return next_seq_++; }

  // Cancels a previously scheduled event. Returns false if the event already ran (or is
  // running) or was already cancelled. The record's slot and the callback's resources are
  // reclaimed immediately; only a 32-byte index entry lingers (dropped with its bucket or
  // when it surfaces in the wheel, compacted in the far heap once stale entries outnumber
  // live ones).
  bool Cancel(EventId id);

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Time of the earliest pending event. Requires !empty().
  SimTime NextTime();

  // Removes the earliest pending event, runs its action in place, and returns the event's
  // time. Requires !empty(). The event counts as fired before its action runs, so the
  // action cannot cancel itself; its captures are destroyed once it returns.
  SimTime RunNext();

  // The place in the run order of the event RunNext ran last (or is running now).
  const EventOrder& running() const { return running_; }
  // Moves that place on to `order`, for work done in place of the event that would have
  // run next (Simulation::ClaimNext).
  void set_running(const EventOrder& order) { running_ = order; }

  // Introspection for tests, telemetry, and the bench.
  size_t slab_slots() const { return slots_used_; }       // high-water distinct slots
  size_t slab_free() const { return free_count_; }        // slots on the free list
  size_t far_heap_entries() const { return heap_.size(); }  // live + not-yet-compacted stale
  size_t wheel_entries() const { return wheel_entries_; }
  uint64_t wheel_pops() const { return wheel_pops_; }
  uint64_t far_heap_pops() const { return heap_pops_; }
  uint64_t far_heap_compactions() const { return heap_compactions_; }

  // Optional registry slots, wired in by Simulation (sim.event_pool.*, sim.event_wheel.*,
  // sim.event_heap.*). Updates are driven purely by event flow, so binding them never
  // perturbs determinism. Any pointer may be null. The slots gauge moves only when the slab
  // grows.
  void BindTelemetry(Gauge* slab_slots, Gauge* live_events, Counter* wheel_pops,
                     Counter* heap_pops) {
    slab_gauge_ = slab_slots;
    live_gauge_ = live_events;
    wheel_pops_counter_ = wheel_pops;
    heap_pops_counter_ = heap_pops;
  }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr int32_t kRecordFree = -1;  // on the free list, or running
  static constexpr int32_t kRecordFarHeap = -2;
  static constexpr size_t kChunkSize = 256;  // records per slab chunk
  static constexpr size_t kBucketMask = kWheelBuckets - 1;
  static constexpr size_t kOccupancyWords = kWheelBuckets / 64;

  struct Record {
    // Metadata first: the liveness check touches only the leading bytes; the 48-byte
    // callback storage is read once, at fire time.
    uint32_t generation = 0;
    int32_t location = kRecordFree;  // physical wheel bucket, kRecordFarHeap, or kRecordFree
    uint32_t next_free = kNoSlot;
    Action action;
  };

  // Index entry stored in wheel buckets and the far heap. Carries the order so ordering
  // never touches the record; (slot, generation) validates liveness against the slab.
  struct Entry {
    EventOrder order;
    uint32_t slot;
    uint32_t generation;
  };
  struct EntryAfter {  // std::push_heap comparator: min-heap on the run order
    bool operator()(const Entry& a, const Entry& b) const { return b.order < a.order; }
  };

  Record& RecordAt(uint32_t slot) { return chunks_[slot / kChunkSize][slot % kChunkSize]; }
  const Record& RecordAt(uint32_t slot) const {
    return chunks_[slot / kChunkSize][slot % kChunkSize];
  }
  bool EntryLive(const Entry& e) const {
    return RecordAt(e.slot).generation == e.generation;
  }

  uint32_t AllocSlot();
  // Destroys the slot's action and puts the slot on the free list. The caller has already
  // bumped its generation.
  void Release(uint32_t slot);
  EventId Insert(const EventOrder& order, uint32_t slot);
  static int64_t BucketIndex(SimTime when) { return when <= 0 ? 0 : when >> kBucketWidthShift; }

  // Bookkeeping for one live entry leaving physical bucket `phys`: when the bucket's live
  // count reaches zero, its remaining (stale) entries are dropped and its occupancy bit
  // cleared.
  void BucketLost(size_t phys);
  // First occupied physical bucket at or after `from`, wrapping past the last bucket.
  // Requires wheel_live_ > 0.
  size_t NextOccupied(size_t from) const;

  // Advances wheel_base_ to the first occupied bucket (requires wheel_live_ > 0), then
  // drops stale entries off both candidate heaps and caches the global minimum. Requires
  // live_ > 0.
  void FindMin();
  void CompactFarHeapIfStale();
  void UpdateLiveGauge() {
    if (live_gauge_ != nullptr) {
      live_gauge_->Set(static_cast<int64_t>(live_));
    }
  }

  // Slab.
  std::vector<std::unique_ptr<Record[]>> chunks_;
  uint32_t free_head_ = kNoSlot;
  size_t free_count_ = 0;
  size_t slots_used_ = 0;  // high-water mark of distinct slots ever handed out
  uint64_t next_seq_ = 1;
  size_t live_ = 0;

  // Near-future wheel: buckets_[b % N] covers absolute bucket index b for
  // b in [wheel_base_, wheel_base_ + N). Each bucket is a run-order min-heap; bit p of
  // occupied_ is set exactly when bucket p holds a live entry.
  std::array<std::vector<Entry>, kWheelBuckets> buckets_;
  std::array<uint32_t, kWheelBuckets> bucket_live_{};
  std::array<uint64_t, kOccupancyWords> occupied_{};
  int64_t wheel_base_ = 0;
  size_t base_phys_ = 0;  // wheel_base_ & kBucketMask, maintained incrementally
  size_t wheel_live_ = 0;
  size_t wheel_entries_ = 0;  // including stale entries not yet dropped

  // Far heap: run-order min-heap with lazy deletion + threshold compaction.
  std::vector<Entry> heap_;
  size_t heap_live_ = 0;

  // Cached result of FindMin, invalidated by any mutation.
  bool min_valid_ = false;
  bool min_in_wheel_ = false;
  Entry min_entry_{};
  EventOrder running_;

  uint64_t wheel_pops_ = 0;
  uint64_t heap_pops_ = 0;
  uint64_t heap_compactions_ = 0;

  Gauge* slab_gauge_ = nullptr;
  Gauge* live_gauge_ = nullptr;
  Counter* wheel_pops_counter_ = nullptr;
  Counter* heap_pops_counter_ = nullptr;
};

}  // namespace ctms

#endif  // SRC_SIM_EVENT_QUEUE_H_
