// Heap-allocation counter for the simbench binary.
//
// alloc_count.cc replaces the global operator new/delete of this binary only (never of the
// simulator libraries' other users) with malloc/free plus one count per allocation. The
// fabric and campaign pools allocate from worker threads, so the count is kept in atomic
// per-thread slots and summed on read; a read after the workers have joined sees all of
// their allocations.

#ifndef SIMBENCH_ALLOC_COUNT_H_
#define SIMBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace simbench {

// Allocations made through operator new, by every thread, since the program started.
uint64_t AllocationCount();

}  // namespace simbench

#endif  // SIMBENCH_ALLOC_COUNT_H_
