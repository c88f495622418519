#include "obs/trace_recorder.h"

#include <cstdio>
#include <sstream>

#include "obs/latency_histogram.h"

namespace uvd {
namespace obs {

std::atomic<bool> TraceRecorder::enabled_{false};

namespace {
// Fast path for the GLOBAL recorder only: that instance is never
// destroyed, so the cached pointers cannot dangle. Private recorders
// (tests) resolve their ring by thread token under the registry mutex — a
// destroyed-and-reallocated private recorder must never match a stale
// thread-local.
thread_local void* tls_global_ring = nullptr;

/// This thread's ring key: drawn once per thread from a process-wide
/// counter, so unlike std::thread::id it is never handed to a later thread.
uint64_t ThisThreadToken() {
  static std::atomic<uint64_t> next_token{1};
  thread_local const uint64_t token =
      next_token.fetch_add(1, std::memory_order_relaxed);
  return token;
}
}  // namespace

TraceRecorder::TraceRecorder(size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

uint64_t TraceSpan::NowNanosForTrace() { return NowNanos(); }

TraceRecorder::Ring* TraceRecorder::RingForThisThread() {
  const bool is_global = this == &Global();
  if (is_global && tls_global_ring != nullptr) {
    return static_cast<Ring*>(tls_global_ring);
  }
  MutexLock lock(registry_mu_);
  const uint64_t me = ThisThreadToken();
  for (const auto& existing : rings_) {
    if (existing->owner == me) {
      if (is_global) tls_global_ring = existing.get();
      return existing.get();
    }
  }
  auto ring = std::make_unique<Ring>();
  ring->tid = static_cast<uint32_t>(rings_.size());
  ring->owner = me;
  {
    // The ring is not yet published, but `events` is guarded by `mu`:
    // taking the (uncontended) lock keeps the annotation exact.
    MutexLock init_lock(ring->mu);
    ring->events.resize(ring_capacity_);
  }
  Ring* raw = ring.get();
  rings_.push_back(std::move(ring));
  if (is_global) tls_global_ring = raw;
  return raw;
}

void TraceRecorder::Ring::Append(const TraceEvent& event, uint64_t duration_ns) {
  events[next] = event;
  next = (next + 1) % events.size();
  if (size < events.size()) {
    ++size;
  } else {
    ++dropped;
  }
  for (PhaseSlot& slot : phases) {
    if (slot.name == event.name && slot.category == event.category) {
      ++slot.total.count;
      slot.total.total_ns += duration_ns;
      return;
    }
  }
  phases.push_back({event.category, event.name, PhaseTotal{1, duration_ns}});
}

void TraceRecorder::Record(const char* category, const char* name,
                           uint64_t start_us, uint64_t duration_us) {
  Ring* ring = RingForThisThread();
  MutexLock lock(ring->mu);
  ring->Append(TraceEvent{category, name, start_us, duration_us}, duration_us * 1000);
}

void TraceRecorder::RecordSpan(const char* category, const char* name,
                               uint64_t start_ns, uint64_t end_ns) {
  Ring* ring = RingForThisThread();
  MutexLock lock(ring->mu);
  const uint64_t start_us = start_ns / 1000;
  ring->Append(TraceEvent{category, name, start_us, end_ns / 1000 - start_us},
               end_ns - start_ns);
}

void TraceRecorder::Clear() {
  MutexLock lock(registry_mu_);
  for (auto& ring : rings_) {
    MutexLock ring_lock(ring->mu);
    ring->next = 0;
    ring->size = 0;
    ring->dropped = 0;
    ring->phases.clear();
  }
}

std::map<std::string, PhaseTotal> TraceRecorder::PhaseTotals() const {
  std::map<std::string, PhaseTotal> totals;
  MutexLock lock(registry_mu_);
  for (const auto& ring : rings_) {
    MutexLock ring_lock(ring->mu);
    for (const PhaseSlot& slot : ring->phases) {
      PhaseTotal& t = totals[std::string(slot.category) + "/" + slot.name];
      t.count += slot.total.count;
      t.total_ns += slot.total.total_ns;
    }
  }
  return totals;
}

size_t TraceRecorder::event_count() const {
  MutexLock lock(registry_mu_);
  size_t total = 0;
  for (const auto& ring : rings_) {
    MutexLock ring_lock(ring->mu);
    total += ring->size;
  }
  return total;
}

uint64_t TraceRecorder::dropped() const {
  MutexLock lock(registry_mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    MutexLock ring_lock(ring->mu);
    total += ring->dropped;
  }
  return total;
}

size_t TraceRecorder::thread_count() const {
  MutexLock lock(registry_mu_);
  return rings_.size();
}

namespace {
void AppendJsonEscaped(std::ostringstream& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out << '\\';
    out << *s;
  }
}
}  // namespace

std::string TraceRecorder::ToChromeTraceJson() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  MutexLock lock(registry_mu_);
  for (const auto& ring : rings_) {
    MutexLock ring_lock(ring->mu);
    // Oldest event first: the ring holds `size` events ending at `next`.
    const size_t cap = ring->events.size();
    const size_t start = (ring->next + cap - ring->size) % cap;
    for (size_t k = 0; k < ring->size; ++k) {
      const TraceEvent& e = ring->events[(start + k) % cap];
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"";
      AppendJsonEscaped(out, e.name);
      out << "\", \"cat\": \"";
      AppendJsonEscaped(out, e.category);
      out << "\", \"ph\": \"X\", \"ts\": " << e.start_us
          << ", \"dur\": " << e.duration_us << ", \"pid\": 0, \"tid\": "
          << ring->tid << "}";
    }
  }
  out << "\n]}\n";
  return out.str();
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  const std::string doc = ToChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output file: " + path);
  }
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  if (written != doc.size()) {
    return Status::IOError("short write to trace output file: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace uvd
