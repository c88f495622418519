#include "obs/latency_histogram.h"

#include <chrono>

namespace uvd {
namespace obs {

namespace {
std::atomic<bool> g_metrics_enabled{true};

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}
}  // namespace

bool MetricsEnabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - ProcessEpoch())
                                   .count());
}

uint64_t NowMicros() { return NowNanos() / 1000; }

uint32_t LatencyHistogram::BucketIndex(uint64_t value) {
  if (value < kSubBucketCount) return static_cast<uint32_t>(value);
  const int msb = 63 - __builtin_clzll(value);
  const int octave = msb - kSubBucketBits;  // 0 for [16, 32), 1 for [32, 64)...
  const uint32_t sub = static_cast<uint32_t>((value >> octave) & (kSubBucketCount - 1));
  return static_cast<uint32_t>(kSubBucketCount) +
         static_cast<uint32_t>(octave) * static_cast<uint32_t>(kSubBucketCount) + sub;
}

uint64_t LatencyHistogram::BucketLowerBound(uint32_t bucket) {
  if (bucket < kSubBucketCount) return bucket;
  const uint32_t octave = (bucket - static_cast<uint32_t>(kSubBucketCount)) /
                          static_cast<uint32_t>(kSubBucketCount);
  const uint32_t sub = (bucket - static_cast<uint32_t>(kSubBucketCount)) %
                       static_cast<uint32_t>(kSubBucketCount);
  return (kSubBucketCount + sub) << octave;
}

uint64_t LatencyHistogram::BucketUpperBound(uint32_t bucket) {
  if (bucket + 1 >= kNumBuckets) return ~0ull;
  return BucketLowerBound(bucket + 1) - 1;
}

void LatencyHistogram::RecordMany(uint64_t value, uint64_t count) {
  if (count == 0) return;
  buckets_[BucketIndex(value)].fetch_add(count, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(value * count, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (uint32_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  const uint64_t omin = other.min_.load(std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (omin < cur &&
         !min_.compare_exchange_weak(cur, omin, std::memory_order_relaxed)) {
  }
  const uint64_t omax = other.max_.load(std::memory_order_relaxed);
  cur = max_.load(std::memory_order_relaxed);
  while (omax > cur &&
         !max_.compare_exchange_weak(cur, omax, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::CopyFrom(const LatencyHistogram& other) {
  for (uint32_t b = 0; b < kNumBuckets; ++b) {
    buckets_[b].store(other.buckets_[b].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  count_.store(other.count_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  sum_.store(other.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  min_.store(other.min_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  max_.store(other.max_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

uint64_t LatencyHistogram::MinValue() const {
  const uint64_t m = min_.load(std::memory_order_relaxed);
  return m == ~0ull ? 0 : m;
}

double LatencyHistogram::Mean() const {
  const uint64_t n = TotalCount();
  return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
}

uint64_t LatencyHistogram::ValueAtPercentile(double percentile) const {
  const uint64_t total = TotalCount();
  if (total == 0) return 0;
  if (percentile < 0.0) percentile = 0.0;
  if (percentile > 100.0) percentile = 100.0;
  // Rank of the requested percentile, at least 1 (p0 = first observation).
  uint64_t target = static_cast<uint64_t>(percentile / 100.0 *
                                          static_cast<double>(total) + 0.5);
  if (target == 0) target = 1;
  if (target > total) target = total;
  uint64_t cumulative = 0;
  for (uint32_t b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets_[b].load(std::memory_order_relaxed);
    if (cumulative >= target) {
      uint64_t v = BucketUpperBound(b);
      const uint64_t lo = MinValue();
      const uint64_t hi = MaxValue();
      if (v < lo) v = lo;
      if (v > hi) v = hi;
      return v;
    }
  }
  return MaxValue();
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  Snapshot s;
  s.count = TotalCount();
  s.sum = Sum();
  s.min = MinValue();
  s.max = MaxValue();
  s.mean = Mean();
  s.p50 = ValueAtPercentile(50.0);
  s.p90 = ValueAtPercentile(90.0);
  s.p99 = ValueAtPercentile(99.0);
  s.p999 = ValueAtPercentile(99.9);
  return s;
}

}  // namespace obs
}  // namespace uvd
