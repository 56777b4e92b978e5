// Wall-clock timing helper for the benchmark harnesses.

#ifndef PITEX_SRC_UTIL_TIMER_H_
#define PITEX_SRC_UTIL_TIMER_H_

#include <chrono>

namespace pitex {

/// Simple monotonic stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pitex

#endif  // PITEX_SRC_UTIL_TIMER_H_
