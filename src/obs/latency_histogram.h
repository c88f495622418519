// Log-bucketed latency histogram in the spirit of HdrHistogram: fixed
// bucket layout (16 exact unit buckets, then 16 sub-buckets per power of
// two), so Record is one array increment and two histograms merge EXACTLY
// — the merged bucket counts, count, sum, min and max are the ones a
// single histogram fed both streams would hold. The paper's evaluation
// reports means (Fig. 6); serving at scale needs the distribution — the
// ROADMAP's streaming-serving item asks for p50/p99/p999 under open-loop
// load and this is the type every layer records into (query-kind
// latencies in QueryEngine, per-shard routed latency in ShardRouter, page
// read latency in PageManager).
//
// Concurrency model mirrors common/stats.h: buckets are relaxed atomics,
// so one histogram may be shared by concurrent recorders; totals are
// exact, cross-field snapshots taken mid-flight are not. Hot loops that
// want zero sharing use a per-worker shard merged via MergeFrom at the
// end — the query engine does exactly that. Like Stats, the type is
// deliberately mutex-free, so it carries no thread-safety annotations
// (docs/STATIC_ANALYSIS.md, "Atomics vs. guarded fields"); the other obs
// components (TraceRecorder, MetricsRegistry) do hold locks and are
// fully annotated.
#ifndef UVD_OBS_LATENCY_HISTOGRAM_H_
#define UVD_OBS_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace uvd {
namespace obs {

/// Process-wide metrics master switch (relaxed atomic, default on). When
/// off, every instrumented layer skips its clock reads and histogram
/// records — the knob the obs-off leg of the determinism digest test and
/// the overhead smoke flip. Purely observational either way: answers and
/// serialized indexes are bitwise-identical with metrics on or off.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Monotonic microsecond clock for latency measurements (steady_clock
/// since process start; origin is arbitrary, differences are meaningful).
uint64_t NowMicros();
/// The same clock in nanoseconds: NowMicros() == NowNanos() / 1000.
uint64_t NowNanos();

/// \brief Mergeable log-bucketed histogram of non-negative 64-bit values
/// (by convention: microseconds).
///
/// Bucket layout: values 0..15 get exact unit buckets; every power-of-two
/// octave [2^m, 2^(m+1)) above that is split into 16 equal sub-buckets,
/// bounding the relative quantization error by 1/16. Percentile queries
/// return the bucket's inclusive upper bound clamped to the recorded
/// [min, max] — a conservative (never understated) tail estimate.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr uint64_t kSubBucketCount = 1ull << kSubBucketBits;  // 16
  /// 16 unit buckets + 60 octaves (m = 4..63) x 16 sub-buckets.
  static constexpr uint32_t kNumBuckets =
      static_cast<uint32_t>(kSubBucketCount) +
      (64 - kSubBucketBits) * static_cast<uint32_t>(kSubBucketCount);

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram& other) { CopyFrom(other); }
  LatencyHistogram& operator=(const LatencyHistogram& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Records one observation. Safe for concurrent callers.
  void Record(uint64_t value) { RecordMany(value, 1); }

  /// Records `count` observations of the same value.
  void RecordMany(uint64_t value, uint64_t count);

  /// Adds every bucket (and count/sum/min/max) of `other` into this
  /// instance. Exact: merging shards is indistinguishable from recording
  /// their streams into one histogram, and the operation is associative
  /// and commutative — the property the per-worker-shard story rests on.
  void MergeFrom(const LatencyHistogram& other);

  void Reset();

  uint64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded value (exact, not bucket-quantized);
  /// 0 when empty.
  uint64_t MinValue() const;
  uint64_t MaxValue() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;

  /// Value at the given percentile (0..100): the inclusive upper bound of
  /// the bucket holding that rank, clamped to [MinValue, MaxValue] so a
  /// single-valued stream reports that exact value at every percentile.
  /// 0 when empty.
  uint64_t ValueAtPercentile(double percentile) const;

  /// One coherent read-out (fields are snapshotted bucket-first, so a
  /// quiescent histogram snapshots exactly; one with recorders in flight
  /// is approximate like any Stats read).
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double mean = 0.0;
    uint64_t p50 = 0;
    uint64_t p90 = 0;
    uint64_t p99 = 0;
    uint64_t p999 = 0;

    bool operator==(const Snapshot& o) const {
      return count == o.count && sum == o.sum && min == o.min && max == o.max &&
             mean == o.mean && p50 == o.p50 && p90 == o.p90 && p99 == o.p99 &&
             p999 == o.p999;
    }
  };
  Snapshot TakeSnapshot() const;

  /// Bucket mapping, exposed for the boundary tests.
  static uint32_t BucketIndex(uint64_t value);
  /// Smallest value mapping to `bucket`.
  static uint64_t BucketLowerBound(uint32_t bucket);
  /// Largest value mapping to `bucket` (inclusive).
  static uint64_t BucketUpperBound(uint32_t bucket);

 private:
  void CopyFrom(const LatencyHistogram& other);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ull};  // sentinel: empty
  std::atomic<uint64_t> max_{0};
};

}  // namespace obs
}  // namespace uvd

#endif  // UVD_OBS_LATENCY_HISTOGRAM_H_
