#include "src/dev/disk.h"

#include <algorithm>
#include <utility>

namespace ctms {

MediaDisk::MediaDisk(Machine* machine, Config config)
    : machine_(machine), config_(config), rng_(machine->sim()->rng().Fork()) {}

bool MediaDisk::CreateFile(const std::string& name, int64_t bytes) {
  if (bytes <= 0 || files_.count(name) > 0 ||
      next_free_byte_ + bytes > config_.capacity_bytes) {
    return false;
  }
  files_[name] = {next_free_byte_, bytes};
  next_free_byte_ += bytes;
  return true;
}

int64_t MediaDisk::FileSize(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? -1 : it->second.second;
}

SimDuration MediaDisk::SeekTime(int64_t from_byte, int64_t to_byte) const {
  if (from_byte == to_byte) {
    return 0;
  }
  const double distance = static_cast<double>(std::abs(to_byte - from_byte)) /
                          static_cast<double>(config_.capacity_bytes);
  return config_.seek_min +
         static_cast<SimDuration>(distance *
                                  static_cast<double>(config_.seek_max - config_.seek_min));
}

SimDuration MediaDisk::EstimateService(int64_t start_byte, int64_t bytes) const {
  const SimDuration transfer =
      bytes * kSecond / config_.transfer_rate_bytes_per_sec;
  if (start_byte == head_position_) {
    // Sequential: the head is already there and the data streams off the platter.
    return config_.controller_overhead + transfer;
  }
  // Half a rotation of expected latency.
  return config_.controller_overhead + SeekTime(head_position_, start_byte) +
         config_.rotation / 2 + transfer;
}

void MediaDisk::Read(const std::string& name, int64_t offset, int64_t bytes,
                     std::function<void(bool)> on_complete) {
  auto it = files_.find(name);
  if (it == files_.end() || offset < 0 || bytes <= 0 || offset + bytes > it->second.second) {
    if (on_complete) {
      on_complete(false);
    }
    return;
  }
  queue_.push_back(Request{it->second.first + offset, bytes, std::move(on_complete)});
  StartNext();
}

void MediaDisk::StartNext() {
  if (busy_ || queue_.empty()) {
    return;
  }
  busy_ = true;
  Request request = std::move(queue_.front());
  queue_.pop_front();

  SimDuration service = config_.controller_overhead;
  const bool sequential = request.start_byte == head_position_;
  if (!sequential) {
    service += SeekTime(head_position_, request.start_byte);
    // Rotational latency: where the sector happens to be under the head.
    service += rng_.UniformDuration(0, config_.rotation);
  }
  service += request.bytes * kSecond / config_.transfer_rate_bytes_per_sec;

  ++stats_.reads;
  stats_.bytes_read += request.bytes;
  if (sequential) {
    ++stats_.sequential_reads;
  }
  stats_.busy_time += service;
  stats_.worst_service = std::max(stats_.worst_service, service);
  head_position_ = request.start_byte + request.bytes;

  machine_->sim()->After(service, [this, request = std::move(request)]() {
    // Completion interrupt: the DMA into kernel memory is done; the handler runs at splbio.
    machine_->cpu().SubmitInterrupt("disk-intr", Spl::kBio, config_.intr_cost,
                                    [on_complete = request.on_complete]() {
                                      if (on_complete) {
                                        on_complete(true);
                                      }
                                    });
    busy_ = false;
    StartNext();
  });
}

double MediaDisk::Utilization() const {
  const SimTime now = machine_->sim()->Now();
  if (now <= 0) {
    return 0.0;
  }
  return static_cast<double>(stats_.busy_time) / static_cast<double>(now);
}

}  // namespace ctms
