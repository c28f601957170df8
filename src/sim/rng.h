// Deterministic, portable random number generation.
//
// The standard library's distributions (std::normal_distribution et al.) are not guaranteed
// to produce identical sequences across implementations, which would make the reproduced
// histograms differ between toolchains. We therefore implement xoshiro256++ plus the handful
// of distributions the workload models need, so a given seed yields bit-identical experiment
// results everywhere.

#ifndef SRC_SIM_RNG_H_
#define SRC_SIM_RNG_H_

#include <array>
#include <cstdint>

#include "src/sim/time.h"

namespace ctms {

// xoshiro256++ 1.0 by Blackman & Vigna (public domain reference algorithm), seeded through
// SplitMix64 so that any 64-bit seed produces a well-mixed state.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Bernoulli trial with probability p of returning true.
  bool Chance(double p);

  // Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  // Normally distributed value (Box-Muller; both values of the pair are used).
  double Normal(double mean, double stddev);

  // Uniform duration in [lo, hi] inclusive.
  SimDuration UniformDuration(SimDuration lo, SimDuration hi);

  // Exponentially distributed duration with the given mean, never negative.
  SimDuration ExponentialDuration(SimDuration mean);

  // Normally distributed duration clamped to be >= floor.
  SimDuration NormalDuration(SimDuration mean, SimDuration stddev, SimDuration floor = 0);

  // Creates an independently-seeded child generator; used to give each traffic source its
  // own stream so adding a workload does not perturb the draws of another.
  Rng Fork();

 private:
  std::array<uint64_t, 4> state_;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace ctms

#endif  // SRC_SIM_RNG_H_
