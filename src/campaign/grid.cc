#include "src/campaign/grid.h"

#include <cstdint>
#include <cstdlib>

namespace ctms {

namespace {

std::vector<std::string> Split(const std::string& text, char separator) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t end = text.find(separator, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
}

bool ParseInt(const std::string& text, int64_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

// Expands one comma-list item into `values`: a `lo:hi[:step]` integer range, or the literal
// item itself. For most axes a literal containing ':' that fails integer parsing is an
// error rather than a fallthrough — their values are numeric or colon-free, and a silent
// literal would hide range typos like "1:x8". The `mix` axis is the exception: its values
// are class[:count[:rate]] specs (entries joined with '+'), so ':' is literal there and the
// spec's own parser reports malformed values. The axis may hold at most `limit` values; an
// item that would pass it is refused before any of its values is built.
bool ExpandItem(const std::string& axis, const std::string& item, size_t limit,
                std::vector<std::string>* values, std::string* error) {
  const auto too_many = [&]() {
    *error = "grid axis '" + axis + "' takes the grid past " + std::to_string(kMaxGridPoints) +
             " points";
    return false;
  };
  const std::vector<std::string> parts = Split(item, ':');
  if (parts.size() == 1 || axis == "mix") {
    if (values->size() >= limit) {
      return too_many();
    }
    values->push_back(item);
    return true;
  }
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t step = 1;
  if (parts.size() > 3 || !ParseInt(parts[0], &lo) || !ParseInt(parts[1], &hi) ||
      (parts.size() == 3 && !ParseInt(parts[2], &step))) {
    *error = "bad range '" + item + "' (expected lo:hi or lo:hi:step)";
    return false;
  }
  if (step <= 0) {
    *error = "bad range '" + item + "' (step must be positive)";
    return false;
  }
  if (lo > hi) {
    *error = "bad range '" + item + "' (lo exceeds hi)";
    return false;
  }
  // hi - lo may not fit in int64_t, so the range is walked in unsigned arithmetic: every
  // value lies in [lo, hi], and converting it back is exact.
  const uint64_t steps =
      (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / static_cast<uint64_t>(step);
  if (steps >= limit - values->size()) {
    return too_many();
  }
  for (uint64_t k = 0; k <= steps; ++k) {
    const uint64_t v = static_cast<uint64_t>(lo) + k * static_cast<uint64_t>(step);
    values->push_back(std::to_string(static_cast<int64_t>(v)));
  }
  return true;
}

}  // namespace

std::string CampaignGrid::Point::Label() const {
  if (assignments.empty()) {
    return "base";
  }
  std::string label;
  for (const auto& [name, value] : assignments) {
    if (!label.empty()) {
      label += ",";
    }
    label += name + "=" + value;
  }
  return label;
}

std::optional<CampaignGrid> CampaignGrid::Parse(const std::string& spec, std::string* error) {
  CampaignGrid grid;
  if (spec.empty()) {
    return grid;
  }
  size_t points = 1;  // the product of the axes so far, at most kMaxGridPoints
  for (const std::string& axis_spec : Split(spec, ';')) {
    const size_t eq = axis_spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "bad grid axis '" + axis_spec + "' (expected name=v1,v2 or name=lo:hi)";
      return std::nullopt;
    }
    GridAxis axis;
    axis.name = axis_spec.substr(0, eq);
    for (const GridAxis& existing : grid.axes_) {
      if (existing.name == axis.name) {
        *error = "duplicate grid axis '" + axis.name + "'";
        return std::nullopt;
      }
    }
    for (const std::string& item : Split(axis_spec.substr(eq + 1), ',')) {
      if (item.empty()) {
        *error = "grid axis '" + axis.name + "' has an empty value";
        return std::nullopt;
      }
      if (!ExpandItem(axis.name, item, kMaxGridPoints / points, &axis.values, error)) {
        return std::nullopt;
      }
    }
    points *= axis.values.size();
    grid.axes_.push_back(std::move(axis));
  }
  return grid;
}

size_t CampaignGrid::PointCount() const {
  size_t count = 1;
  for (const GridAxis& axis : axes_) {
    count *= axis.values.size();
  }
  return count;
}

std::vector<CampaignGrid::Point> CampaignGrid::Expand() const {
  std::vector<Point> points;
  points.reserve(PointCount());
  std::vector<size_t> cursor(axes_.size(), 0);
  while (true) {
    Point point;
    point.assignments.reserve(axes_.size());
    for (size_t a = 0; a < axes_.size(); ++a) {
      point.assignments.emplace_back(axes_[a].name, axes_[a].values[cursor[a]]);
    }
    points.push_back(std::move(point));
    // Odometer increment, last axis fastest.
    size_t a = axes_.size();
    while (a > 0) {
      --a;
      if (++cursor[a] < axes_[a].values.size()) {
        break;
      }
      cursor[a] = 0;
      if (a == 0) {
        return points;
      }
    }
    if (axes_.empty()) {
      return points;
    }
  }
}

std::string CampaignGrid::Spec() const {
  std::string spec;
  for (const GridAxis& axis : axes_) {
    if (!spec.empty()) {
      spec += ";";
    }
    spec += axis.name + "=";
    for (size_t v = 0; v < axis.values.size(); ++v) {
      spec += (v > 0 ? "," : "") + axis.values[v];
    }
  }
  return spec;
}

}  // namespace ctms
