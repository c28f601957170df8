#include "src/sim/rng.h"

#include <cmath>

namespace ctms {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits give a uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {
    // Full 64-bit range requested.
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t value = NextU64();
  while (value >= limit) {
    value = NextU64();
  }
  return lo + static_cast<int64_t>(value % span);
}

bool Rng::Chance(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  // Inverse CDF; 1 - u is in (0, 1] so the log is finite.
  return -mean * std::log(1.0 - NextDouble());
}

double Rng::Normal(double mean, double stddev) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  // Box-Muller transform.
  double u1 = NextDouble();
  while (u1 <= 0.0) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  spare_normal_ = radius * std::sin(theta);
  have_spare_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

SimDuration Rng::UniformDuration(SimDuration lo, SimDuration hi) { return UniformInt(lo, hi); }

SimDuration Rng::ExponentialDuration(SimDuration mean) {
  const double value = Exponential(static_cast<double>(mean));
  return value < 0.0 ? 0 : static_cast<SimDuration>(value);
}

SimDuration Rng::NormalDuration(SimDuration mean, SimDuration stddev, SimDuration floor) {
  const double value = Normal(static_cast<double>(mean), static_cast<double>(stddev));
  const auto as_duration = static_cast<SimDuration>(value);
  return as_duration < floor ? floor : as_duration;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace ctms
