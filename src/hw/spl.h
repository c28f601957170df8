// Interrupt priority levels, mirroring the 4.3BSD spl hierarchy on the RT/PC.
//
// A job executing at level L defers dispatch of any pending job at level <= L. Long code
// sequences at elevated levels ("protected code segments throughout the kernel", paper §5.3)
// are the paper's main source of latency jitter, so levels are first-class here.

#ifndef SRC_HW_SPL_H_
#define SRC_HW_SPL_H_

namespace ctms {

enum class Spl : int {
  kNone = 0,       // user / base kernel level
  kSoftClock = 1,  // deferred timeouts
  kNet = 2,        // protocol processing
  kBio = 3,        // disk
  kImp = 4,        // network device interrupts (Token Ring, VCA)
  kTty = 5,
  kClock = 6,      // hardclock
  kHigh = 7,       // everything blocked
};

constexpr int SplValue(Spl level) { return static_cast<int>(level); }

constexpr bool SplBlocks(Spl running, Spl incoming) {
  return SplValue(running) >= SplValue(incoming);
}

}  // namespace ctms

#endif  // SRC_HW_SPL_H_
