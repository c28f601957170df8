// Simulated-time primitives for the CTMS testbed simulation.
//
// All simulation time is kept in integer nanoseconds. The paper's measurements span five
// decades (500 ns oscilloscope observations up to 130 ms outliers), so nanoseconds give
// plenty of headroom at both ends while staying exactly representable in an int64 for
// simulated runs of weeks.

#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace ctms {

// A point in simulated time, in nanoseconds since simulation start.
using SimTime = int64_t;

// A span of simulated time, in nanoseconds.
using SimDuration = int64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;
inline constexpr SimDuration kDay = 24 * kHour;

// A sentinel meaning "never" / "no deadline".
inline constexpr SimTime kTimeNever = INT64_MAX;

// The longest simulated span any input may name (a time flag, a trace offset), ~11.6 days:
// far above the longest run in the repo (3,600 s), and small enough that no converter's
// multiply into nanoseconds, nor a sum of a few such spans, can overflow SimTime.
inline constexpr SimDuration kLongestSimulatedSpan = 1'000'000 * kSecond;

constexpr SimDuration Nanoseconds(int64_t n) { return n * kNanosecond; }
constexpr SimDuration Microseconds(int64_t n) { return n * kMicrosecond; }
constexpr SimDuration Milliseconds(int64_t n) { return n * kMillisecond; }
constexpr SimDuration Seconds(int64_t n) { return n * kSecond; }
constexpr SimDuration Minutes(int64_t n) { return n * kMinute; }
constexpr SimDuration Hours(int64_t n) { return n * kHour; }

// Converts nanoseconds to (truncated) whole microseconds — the unit used throughout the
// paper's histograms.
constexpr int64_t ToMicroseconds(SimDuration d) { return d / kMicrosecond; }

// Converts nanoseconds to whole milliseconds.
constexpr int64_t ToMilliseconds(SimDuration d) { return d / kMillisecond; }

// Converts nanoseconds to seconds as a double (for rates and report text).
constexpr double ToSecondsF(SimDuration d) { return static_cast<double>(d) / static_cast<double>(kSecond); }

// Renders a duration in a human-friendly unit, e.g. "2600 us", "12 ms", "1.95 h".
std::string FormatDuration(SimDuration d);

}  // namespace ctms

#endif  // SRC_SIM_TIME_H_
