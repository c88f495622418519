// Lightweight scoped-span tracing exported as Chrome trace-event JSON
// (viewable in Perfetto / chrome://tracing). The paper's Figs. 6(c) and
// 7(d)/(e) are phase breakdowns; UVD_TRACE_SPAN is the one clock behind
// them — per-worker stage-1/stage-2 spans and the Algorithm 2 phases
// during construction, the PNN index / retrieval / computation phases and
// locate-leaf / cache-lookup / read-leaf / qualification per query. Besides
// the timeline, the recorder keeps exact per-phase totals (PhaseTotals())
// that benches read as their breakdown columns.
//
// Cost model:
//   * Tracing is DISABLED by default. The macro's fast path is one relaxed
//     atomic load and a branch; no clock is read and nothing is written.
//   * Enabled, a span is two steady_clock reads plus one ring-buffer push
//     and one phase-total update under the calling thread's own
//     (uncontended) ring mutex.
//   * Defining UVD_DISABLE_TRACING at compile time removes the spans from
//     the binary entirely — the hot path is untouched by construction.
//
// Every thread records into its own fixed-capacity ring (registered on
// first use; the ring overwrites its oldest events when full and counts
// the drops), so recording never blocks on another thread. Export walks
// the rings in registration order. Tracing is purely observational:
// serialized indexes and query answers are bitwise-identical with tracing
// on or off (digest-asserted in tests/obs/obs_determinism_test.cc).
#ifndef UVD_OBS_TRACE_RECORDER_H_
#define UVD_OBS_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace uvd {
namespace obs {

/// One completed span ("ph": "X" in the Chrome trace format). `name` and
/// `category` must be string literals (stored by pointer, never copied).
struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  uint64_t start_us = 0;     ///< NowMicros() at span entry.
  uint64_t duration_us = 0;  ///< Span wall time.
};

/// Running total of every span recorded under one "category/name".
struct PhaseTotal {
  uint64_t count = 0;     ///< Spans recorded.
  uint64_t total_ns = 0;  ///< Their summed wall time.
  double seconds() const { return static_cast<double>(total_ns) * 1e-9; }
};

/// \brief Per-thread ring buffers of spans with Chrome trace-event export.
///
/// The process-global instance (Global()) is what UVD_TRACE_SPAN records
/// into; tests may construct private recorders. Thread ids in the export
/// are assigned in ring-registration order (0, 1, ...), so single-threaded
/// recordings export deterministically.
///
/// Rings are keyed by a per-thread token that is never reused: a thread
/// that exits keeps its ring and its events, and a later thread never
/// records into them. Memory is therefore one ring (kDefaultRingCapacity
/// events, about 1 MiB) per thread that ever recorded, for the recorder's
/// lifetime.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 15;  // events/thread

  explicit TraceRecorder(size_t ring_capacity = kDefaultRingCapacity);

  /// The recorder UVD_TRACE_SPAN writes to.
  static TraceRecorder& Global();

  /// Master switch for the span macro (relaxed atomic; off by default).
  /// Spans opened while disabled record nothing even if tracing is
  /// re-enabled before they close.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends a completed span to the calling thread's ring (registering
  /// the ring on first use) and adds it to the ring's phase totals. Safe
  /// for concurrent callers; when the ring is full the oldest event is
  /// overwritten and `dropped()` grows, but the totals keep counting.
  void Record(const char* category, const char* name, uint64_t start_us,
              uint64_t duration_us);

  /// Drops every recorded event and phase total (rings stay registered
  /// and keep their thread ids; the drop counter resets).
  void Clear();

  /// Count and summed wall time of every span recorded since the last
  /// Clear(), keyed by "category/name" and merged across threads by name
  /// text. Exact however many events the rings overwrote. Spans time in
  /// nanoseconds; Record() contributes duration_us * 1000.
  std::map<std::string, PhaseTotal> PhaseTotals() const;

  /// Events currently held across all rings.
  size_t event_count() const;
  /// Events overwritten because a ring was full.
  uint64_t dropped() const;
  /// Rings registered so far (one per recording thread).
  size_t thread_count() const;

  /// The Chrome trace-event document: {"traceEvents": [...]} with one
  /// "ph":"X" entry per span (ts/dur in microseconds), ordered by thread
  /// registration then record order. Loadable directly in Perfetto.
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path`.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  /// One (category, name) literal pair's running total within a ring.
  struct PhaseSlot {
    const char* category;
    const char* name;
    PhaseTotal total;
  };

  struct Ring {
    mutable Mutex mu;
    // tid and owner are written once at registration (under the
    // recorder's registry_mu_, before the ring is published) and
    // immutable afterwards; the analysis cannot name an outer-instance
    // mutex from a nested struct, so they stay unannotated by design.
    uint32_t tid = 0;
    uint64_t owner = 0;  // registering thread's token (lookup key)
    std::vector<TraceEvent> events UVD_GUARDED_BY(mu);  // capacity-bounded
    size_t next UVD_GUARDED_BY(mu) = 0;     // write cursor
    size_t size UVD_GUARDED_BY(mu) = 0;     // events held (<= capacity)
    uint64_t dropped UVD_GUARDED_BY(mu) = 0;
    // A handful of distinct phases per thread: a linear scan by literal
    // pointer beats hashing.
    std::vector<PhaseSlot> phases UVD_GUARDED_BY(mu);

    /// Appends `event` (overwriting the oldest when full) and adds
    /// `duration_ns` to its phase total.
    void Append(const TraceEvent& event, uint64_t duration_ns) UVD_REQUIRES(mu);
  };

  friend class TraceSpan;

  Ring* RingForThisThread() UVD_EXCLUDES(registry_mu_);
  /// Record() with the span's own nanosecond clock readings: the event
  /// keeps microseconds, the phase total the exact nanoseconds.
  void RecordSpan(const char* category, const char* name, uint64_t start_ns,
                  uint64_t end_ns);

  static std::atomic<bool> enabled_;

  size_t ring_capacity_;
  mutable Mutex registry_mu_;  // guards rings_ growth
  std::vector<std::unique_ptr<Ring>> rings_ UVD_GUARDED_BY(registry_mu_);
};

/// RAII span: captures the clock at construction (when tracing is enabled)
/// and records a TraceEvent plus its phase total at destruction. Nest
/// freely; concurrent spans on different threads record into different
/// rings.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name) {
    if (TraceRecorder::Enabled()) {
      category_ = category;
      name_ = name;
      start_ns_ = NowNanosForTrace();
    }
  }
  ~TraceSpan() {
    if (category_ != nullptr) {
      TraceRecorder::Global().RecordSpan(category_, name_, start_ns_,
                                         NowNanosForTrace());
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static uint64_t NowNanosForTrace();

  const char* category_ = nullptr;  // null: span inactive (tracing was off)
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace uvd

#define UVD_OBS_CONCAT_IMPL(a, b) a##b
#define UVD_OBS_CONCAT(a, b) UVD_OBS_CONCAT_IMPL(a, b)

/// Scoped span macro. `category` and `name` must be string literals.
/// Compiles to nothing under UVD_DISABLE_TRACING; otherwise costs one
/// relaxed load when tracing is disabled at runtime (the default).
#if defined(UVD_DISABLE_TRACING)
#define UVD_TRACE_SPAN(category, name) \
  do {                                 \
  } while (false)
#else
#define UVD_TRACE_SPAN(category, name) \
  ::uvd::obs::TraceSpan UVD_OBS_CONCAT(uvd_trace_span_, __LINE__)(category, name)
#endif

#endif  // UVD_OBS_TRACE_RECORDER_H_
