// Test helper: records the library's trace spans for one scope so a test
// can read their phase totals (obs::TraceRecorder::PhaseTotals).
#ifndef UVD_TESTS_TESTING_PHASE_TRACE_H_
#define UVD_TESTS_TESTING_PHASE_TRACE_H_

#include <map>
#include <string>

#include "obs/trace_recorder.h"

namespace uvd {
namespace test {

/// Clears the global recorder and turns tracing on; turns tracing off and
/// clears the recorder again on destruction, so tests stay
/// order-independent.
class PhaseTrace {
 public:
  PhaseTrace() {
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::SetEnabled(true);
  }
  ~PhaseTrace() {
    obs::TraceRecorder::SetEnabled(false);
    obs::TraceRecorder::Global().Clear();
  }
  PhaseTrace(const PhaseTrace&) = delete;
  PhaseTrace& operator=(const PhaseTrace&) = delete;

  /// Every phase recorded so far, keyed "category/name".
  std::map<std::string, obs::PhaseTotal> Totals() const {
    return obs::TraceRecorder::Global().PhaseTotals();
  }
};

}  // namespace test
}  // namespace uvd

/// Skips the calling test when spans are compiled out: no phase total
/// would ever be recorded.
#if defined(UVD_DISABLE_TRACING)
#define UVD_SKIP_WITHOUT_TRACING() GTEST_SKIP() << "spans compiled out (UVD_DISABLE_TRACING)"
#else
#define UVD_SKIP_WITHOUT_TRACING() static_cast<void>(0)
#endif

#endif  // UVD_TESTS_TESTING_PHASE_TRACE_H_
