// Wall-clock stopwatch for benches, examples and tests. Library phase
// timing goes through UVD_TRACE_SPAN (obs/trace_recorder.h).
#ifndef UVD_COMMON_TIMER_H_
#define UVD_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace uvd {

/// Monotonic stopwatch with microsecond resolution.
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction / Restart, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed time in microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace uvd

#endif  // UVD_COMMON_TIMER_H_
