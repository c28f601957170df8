// ParallelFor — the one worker loop for independent jobs (campaign cells, faultsweep cells).
// Workers claim the next job index from a shared atomic cursor. A job must touch only what
// it owns — its own testbed and its own result slot — so the join is all the caller's
// merge needs, and results are the same for every worker count.

#ifndef SRC_CORE_PARALLEL_H_
#define SRC_CORE_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace ctms {

// Runs job(i) for every i in [0, count) on min(jobs, count) workers. The calling thread is
// one of them, so jobs <= 1 runs everything inline with no thread machinery at all.
template <typename Job>
void ParallelFor(size_t count, int64_t jobs, const Job& job) {
  const size_t workers = std::min(static_cast<size_t>(std::max<int64_t>(jobs, 1)), count);
  std::atomic<size_t> next{0};
  const auto work = [&]() {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      job(i);
    }
  };
  // jthreads join on destruction, so the helpers are joined even if a job on the calling
  // thread throws.
  std::vector<std::jthread> helpers;
  helpers.reserve(workers);
  for (size_t w = 1; w < workers; ++w) {
    helpers.emplace_back(work);
  }
  work();
}

}  // namespace ctms

#endif  // SRC_CORE_PARALLEL_H_
