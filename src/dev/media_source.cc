#include "src/dev/media_source.h"

#include <string>

namespace ctms {
namespace {

// Class parameters are sized against the 4 Mbit/s ring (500 KB/s raw): the acceptance mix
// voice:8,vbr:4,bulk:2 puts the real-time classes at ~75% of the wire and the elastic bulk
// share pushes the total past saturation, which is exactly the regime where priority
// scheduling (vs FIFO) changes what the user hears.
std::vector<MediaClass> BuildRegistry() {
  std::vector<MediaClass> all;

  MediaClass vca;
  vca.id = MediaClassId::kVca;
  vca.name = "vca";
  vca.period = Milliseconds(12);
  vca.packet_bytes = 2000;  // the paper's ~167 KB/s conference stream
  vca.deadline = Milliseconds(50);
  vca.loss_weight = 2.0;
  vca.late_weight = 1.0;
  vca.underrun_weight = 1.0;
  vca.priority_hint = 5;
  all.push_back(vca);

  MediaClass voice;
  voice.id = MediaClassId::kVoice;
  voice.name = "voice";
  voice.period = Milliseconds(20);
  voice.packet_bytes = 320;  // 16 KB/s telephony-grade audio
  voice.deadline = Milliseconds(30);
  voice.loss_weight = 1.0;
  voice.late_weight = 1.5;  // conversational audio is latency-critical
  voice.underrun_weight = 1.0;
  voice.priority_hint = 6;
  all.push_back(voice);

  MediaClass vbr;
  vbr.id = MediaClassId::kVbr;
  vbr.name = "vbr";
  vbr.period = Milliseconds(12);
  vbr.packet_bytes = 720;  // 60 KB/s mean, key frames 3x
  vbr.vbr = true;
  vbr.vbr_key_interval = 10;
  vbr.vbr_key_scale = 3.0;
  vbr.vbr_burst_sigma = 0.2;
  vbr.deadline = Milliseconds(50);
  vbr.loss_weight = 4.0;  // a lost frame corrupts the whole prediction chain
  vbr.late_weight = 2.0;
  vbr.underrun_weight = 2.0;
  vbr.priority_hint = 4;
  all.push_back(vbr);

  MediaClass bulk;
  bulk.id = MediaClassId::kBulk;
  bulk.name = "bulk";
  bulk.period = Milliseconds(12);
  bulk.packet_bytes = 1250;  // ~104 KB/s offered when unconstrained
  bulk.deadline = 0;         // elastic: no playout deadline
  bulk.loss_weight = 0.05;   // drops just slow the transfer down
  bulk.late_weight = 0.0;
  bulk.underrun_weight = 0.0;
  bulk.elastic = true;
  bulk.priority_hint = 0;
  all.push_back(bulk);

  return all;
}

const MediaClass& NoneClass() {
  static const MediaClass none;
  return none;
}

}  // namespace

int64_t MediaClass::RateBytesPerSecond() const {
  if (period <= 0) return 0;
  return packet_bytes * Seconds(1) / period;
}

int64_t MediaClass::PacketBytesForRate(int64_t rate_kbps) const {
  if (rate_kbps <= 0) return packet_bytes;
  // rate is KB/s (1000 bytes); bytes per period = rate * period.
  const int64_t bytes = rate_kbps * 1000 * period / Seconds(1);
  return bytes > 0 ? bytes : 1;
}

const std::vector<MediaClass>& AllMediaClasses() {
  static const std::vector<MediaClass> registry = BuildRegistry();
  return registry;
}

std::optional<MediaClass> MediaClassByName(const std::string& name) {
  for (const MediaClass& mc : AllMediaClasses()) {
    if (mc.name == name) return mc;
  }
  return std::nullopt;
}

const MediaClass& MediaClassById(MediaClassId id) {
  for (const MediaClass& mc : AllMediaClasses()) {
    if (mc.id == id) return mc;
  }
  return NoneClass();
}

namespace {

// Splits on any of the separator characters, keeping empty pieces (they are errors the
// caller reports with context).
std::vector<std::string> SplitAny(const std::string& text, const std::string& separators) {
  std::vector<std::string> pieces;
  std::string current;
  for (const char c : text) {
    if (separators.find(c) != std::string::npos) {
      pieces.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  pieces.push_back(current);
  return pieces;
}

// The 4 Mbit/s ring's line rate in KB/s; no stream can be offered faster than the wire.
constexpr int64_t kRingLineRateKbps = 500;

// Reads a decimal in 1..max. Digits stop counting once the value passes max, so no digit
// string, however long, can overflow.
bool ParseBoundedInt(const std::string& text, int64_t max, int64_t* out) {
  if (text.empty()) return false;
  int64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
    if (value > max) return false;
  }
  *out = value;
  return value > 0;
}

}  // namespace

bool ParseMixSpec(const std::string& spec, std::vector<WorkloadEntry>* out,
                  std::string* error) {
  out->clear();
  for (const std::string& piece : SplitAny(spec, ",+")) {
    const std::vector<std::string> fields = SplitAny(piece, ":");
    if (fields.empty() || fields.size() > 3 || fields[0].empty()) {
      *error = "malformed --mix entry '" + piece + "' (want class[:count[:rate_kbps]])";
      return false;
    }
    WorkloadEntry entry;
    entry.media_class = fields[0];
    if (!MediaClassByName(entry.media_class).has_value()) {
      std::string known;
      for (const MediaClass& mc : AllMediaClasses()) {
        known += known.empty() ? mc.name : ", " + mc.name;
      }
      *error = "unknown media class '" + entry.media_class + "' (known: " + known + ")";
      return false;
    }
    if (fields.size() >= 2) {
      int64_t count = 0;
      if (!ParseBoundedInt(fields[1], 64, &count)) {
        *error = "bad count in --mix entry '" + piece + "' (want 1..64)";
        return false;
      }
      entry.count = static_cast<int>(count);
    }
    if (fields.size() == 3) {
      if (!ParseBoundedInt(fields[2], kRingLineRateKbps, &entry.rate_kbps)) {
        *error = "bad rate in --mix entry '" + piece + "' (want 1.." +
                 std::to_string(kRingLineRateKbps) + " KB/s, the ring's line rate)";
        return false;
      }
    }
    out->push_back(std::move(entry));
  }
  if (out->empty()) {
    *error = "empty --mix spec";
    return false;
  }
  return true;
}

std::vector<MediaClass> ResolveWorkload(const std::vector<WorkloadEntry>& workload) {
  std::vector<MediaClass> streams;
  for (const WorkloadEntry& entry : workload) {
    std::optional<MediaClass> mc = MediaClassByName(entry.media_class);
    if (!mc.has_value()) {
      continue;  // validated at parse time; unknown names cannot reach here via the CLI
    }
    mc->packet_bytes = mc->PacketBytesForRate(entry.rate_kbps);
    for (int i = 0; i < entry.count; ++i) {
      streams.push_back(*mc);
    }
  }
  return streams;
}

}  // namespace ctms
