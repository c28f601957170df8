#include "src/fault/fault_plan.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

namespace ctms {
namespace {

// A minimal JSON reader — objects, arrays, strings, numbers, booleans, null — sufficient for
// the plan schema and kept here so fault plans add no dependency. Numbers are doubles (the
// schema's values all fit), strings support the standard escapes minus \uXXXX. The reader
// recurses once per nesting level, so nesting is capped (the schema needs three levels):
// hostile input fails with an error instead of overflowing the stack.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // preserves file order

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Parse(std::string* error) {
    std::optional<JsonValue> value = ParseValue();
    SkipWhitespace();
    if (value.has_value() && pos_ != text_.size()) {
      Fail("trailing characters after the top-level value");
      value.reset();
    }
    if (!value.has_value() && error != nullptr) {
      *error = error_;
    }
    return value;
  }

 private:
  void Fail(const std::string& what) {
    if (error_.empty()) {
      std::ostringstream os;
      os << what << " at offset " << pos_;
      error_ = os.str();
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        return std::nullopt;
      }
      ++depth_;
      std::optional<JsonValue> nested = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return nested;
    }
    if (c == '"') {
      return ParseString();
    }
    if (c == 't' || c == 'f') {
      JsonValue v;
      v.type = JsonValue::Type::kBool;
      v.boolean = c == 't';
      if (ConsumeLiteral(c == 't' ? "true" : "false")) {
        return v;
      }
      Fail("malformed literal");
      return std::nullopt;
    }
    if (c == 'n') {
      if (ConsumeLiteral("null")) {
        return JsonValue{};
      }
      Fail("malformed literal");
      return std::nullopt;
    }
    return ParseNumber();
  }

  std::optional<JsonValue> ParseObject() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    if (Consume('}')) {
      return v;
    }
    while (true) {
      SkipWhitespace();
      std::optional<JsonValue> key = ParseString();
      if (!key.has_value()) {
        return std::nullopt;
      }
      if (!Consume(':')) {
        Fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<JsonValue> value = ParseValue();
      if (!value.has_value()) {
        return std::nullopt;
      }
      v.object.emplace_back(std::move(key->string), std::move(*value));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return v;
      }
      Fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseArray() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    if (Consume(']')) {
      return v;
    }
    while (true) {
      std::optional<JsonValue> element = ParseValue();
      if (!element.has_value()) {
        return std::nullopt;
      }
      v.array.push_back(std::move(*element));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return v;
      }
      Fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseString() {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      Fail("expected string");
      return std::nullopt;
    }
    ++pos_;
    JsonValue v;
    v.type = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return v;
      }
      if (c != '\\') {
        v.string.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string.push_back('"'); break;
        case '\\': v.string.push_back('\\'); break;
        case '/': v.string.push_back('/'); break;
        case 'b': v.string.push_back('\b'); break;
        case 'f': v.string.push_back('\f'); break;
        case 'n': v.string.push_back('\n'); break;
        case 'r': v.string.push_back('\r'); break;
        case 't': v.string.push_back('\t'); break;
        default:
          Fail("unsupported string escape");
          return std::nullopt;
      }
    }
    Fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected a value");
      return std::nullopt;
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    try {
      v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (...) {
      Fail("malformed number");
      return std::nullopt;
    }
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // objects and arrays currently open
  std::string error_;
};

bool ReadNumber(const JsonValue& event, std::string_view key, double* out) {
  const JsonValue* value = event.Find(key);
  if (value == nullptr) {
    return false;
  }
  *out = value->number;
  return true;
}

SimDuration MillisToDuration(double ms) {
  return static_cast<SimDuration>(std::llround(ms * static_cast<double>(kMillisecond)));
}

SimDuration MicrosToDuration(double us) {
  return static_cast<SimDuration>(std::llround(us * static_cast<double>(kMicrosecond)));
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPurgeStorm:
      return "purge_storm";
    case FaultKind::kStationInsertion:
      return "station_insertion";
    case FaultKind::kAdapterStall:
      return "adapter_stall";
    case FaultKind::kFrameCorruption:
      return "frame_corruption";
    case FaultKind::kCongestionBurst:
      return "congestion_burst";
    case FaultKind::kReceiverOverrun:
      return "receiver_overrun";
  }
  return "unknown";
}

std::optional<FaultKind> ParseFaultKind(std::string_view name) {
  for (FaultKind kind :
       {FaultKind::kPurgeStorm, FaultKind::kStationInsertion, FaultKind::kAdapterStall,
        FaultKind::kFrameCorruption, FaultKind::kCongestionBurst,
        FaultKind::kReceiverOverrun}) {
    if (name == FaultKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

FaultPlan& FaultPlan::Add(FaultEvent event) {
  auto it = std::upper_bound(events_.begin(), events_.end(), event.at,
                             [](SimTime at, const FaultEvent& e) { return at < e.at; });
  events_.insert(it, std::move(event));
  return *this;
}

FaultEvent FaultPlan::PurgeStorm(SimTime at, int count, SimDuration spacing,
                                 SimDuration jitter) {
  FaultEvent e;
  e.kind = FaultKind::kPurgeStorm;
  e.at = at;
  e.count = count;
  e.spacing = spacing;
  e.jitter = jitter;
  return e;
}

FaultEvent FaultPlan::StationInsertion(SimTime at) {
  FaultEvent e;
  e.kind = FaultKind::kStationInsertion;
  e.at = at;
  return e;
}

FaultEvent FaultPlan::AdapterStall(SimTime at, SimDuration duration, std::string station,
                                   std::string component) {
  FaultEvent e;
  e.kind = FaultKind::kAdapterStall;
  e.at = at;
  e.duration = duration;
  e.station = std::move(station);
  e.component = std::move(component);
  return e;
}

FaultEvent FaultPlan::FrameCorruption(SimTime at, SimDuration duration, double probability) {
  FaultEvent e;
  e.kind = FaultKind::kFrameCorruption;
  e.at = at;
  e.duration = duration;
  e.probability = probability;
  return e;
}

FaultEvent FaultPlan::CongestionBurst(SimTime at, int count, SimDuration spacing,
                                      int64_t bytes, int priority) {
  FaultEvent e;
  e.kind = FaultKind::kCongestionBurst;
  e.at = at;
  e.count = count;
  e.spacing = spacing;
  e.bytes = bytes;
  e.priority = priority;
  return e;
}

FaultEvent FaultPlan::ReceiverOverrun(SimTime at, SimDuration duration, std::string station) {
  FaultEvent e;
  e.kind = FaultKind::kReceiverOverrun;
  e.at = at;
  e.duration = duration;
  e.station = std::move(station);
  return e;
}

std::optional<FaultPlan> FaultPlan::Parse(std::string_view json, std::string* error) {
  JsonParser parser(json);
  std::optional<JsonValue> root = parser.Parse(error);
  if (!root.has_value()) {
    return std::nullopt;
  }
  if (root->type != JsonValue::Type::kObject) {
    if (error != nullptr) {
      *error = "plan must be a JSON object";
    }
    return std::nullopt;
  }
  if (const JsonValue* version = root->Find("version");
      version != nullptr && version->number != 1.0) {
    if (error != nullptr) {
      *error = "unsupported plan version";
    }
    return std::nullopt;
  }
  const JsonValue* events = root->Find("events");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    if (error != nullptr) {
      *error = "plan needs an \"events\" array";
    }
    return std::nullopt;
  }
  FaultPlan plan;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& entry = events->array[i];
    const auto fail = [&](const std::string& what) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "event " << i << ": " << what;
        *error = os.str();
      }
    };
    if (entry.type != JsonValue::Type::kObject) {
      fail("must be an object");
      return std::nullopt;
    }
    const JsonValue* kind_value = entry.Find("kind");
    if (kind_value == nullptr || kind_value->type != JsonValue::Type::kString) {
      fail("needs a \"kind\" string");
      return std::nullopt;
    }
    std::optional<FaultKind> kind = ParseFaultKind(kind_value->string);
    if (!kind.has_value()) {
      fail("unknown kind \"" + kind_value->string + "\"");
      return std::nullopt;
    }
    double at_ms = 0.0;
    if (!ReadNumber(entry, "at_ms", &at_ms) || at_ms < 0.0) {
      fail("needs a non-negative \"at_ms\"");
      return std::nullopt;
    }
    FaultEvent event;
    event.kind = *kind;
    event.at = MillisToDuration(at_ms);
    double number = 0.0;
    if (ReadNumber(entry, "duration_ms", &number)) {
      event.duration = MillisToDuration(number);
    }
    if (ReadNumber(entry, "count", &number)) {
      event.count = static_cast<int>(number);
    }
    if (ReadNumber(entry, "spacing_us", &number)) {
      event.spacing = MicrosToDuration(number);
    }
    if (ReadNumber(entry, "jitter_us", &number)) {
      event.jitter = MicrosToDuration(number);
    }
    if (ReadNumber(entry, "probability", &number)) {
      event.probability = number;
    }
    if (ReadNumber(entry, "bytes", &number)) {
      event.bytes = static_cast<int64_t>(number);
    }
    if (ReadNumber(entry, "priority", &number)) {
      event.priority = static_cast<int>(number);
    }
    if (const JsonValue* station = entry.Find("station");
        station != nullptr && station->type == JsonValue::Type::kString) {
      event.station = station->string;
    }
    if (const JsonValue* component = entry.Find("component");
        component != nullptr && component->type == JsonValue::Type::kString) {
      event.component = component->string;
    }
    if (event.count < 1 || event.probability < 0.0 || event.probability > 1.0 ||
        event.duration < 0 || event.spacing < 0 || event.jitter < 0 || event.bytes < 1) {
      fail("parameter out of range");
      return std::nullopt;
    }
    if (event.kind == FaultKind::kAdapterStall && event.component != "adapter" &&
        event.component != "driver" && event.component != "source") {
      fail("component must be adapter, driver, or source");
      return std::nullopt;
    }
    plan.Add(std::move(event));
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::LoadFile(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str(), error);
}

}  // namespace ctms
