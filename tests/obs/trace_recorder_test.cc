// Tests for the scoped-span tracer: the disabled-by-default contract,
// nested spans, ring-buffer overwrite accounting, exact phase totals past
// overwrite and across threads, concurrent recording from a thread pool
// (the TSan job runs this binary), and a golden-file check of the Chrome
// trace-event export.
#include "obs/trace_recorder.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "testing/phase_trace.h"

namespace uvd {
namespace obs {
namespace {

/// Global() is process-wide; every test using it restores the default
/// disabled state and clears the rings so tests stay order-independent.
class GlobalTraceGuard {
 public:
  ~GlobalTraceGuard() {
    TraceRecorder::SetEnabled(false);
    TraceRecorder::Global().Clear();
  }
};

TEST(TraceRecorderTest, DisabledByDefaultRecordsNothing) {
  GlobalTraceGuard guard;
  ASSERT_FALSE(TraceRecorder::Enabled());
  const size_t before = TraceRecorder::Global().event_count();
  {
    UVD_TRACE_SPAN("test", "should_not_appear");
  }
  EXPECT_EQ(TraceRecorder::Global().event_count(), before);
}

TEST(TraceRecorderTest, SpanOpenedWhileDisabledNeverRecords) {
  GlobalTraceGuard guard;
  const size_t before = TraceRecorder::Global().event_count();
  {
    UVD_TRACE_SPAN("test", "opened_disabled");
    // Enabling mid-span must not retroactively record it (the span
    // captured no start time).
    TraceRecorder::SetEnabled(true);
  }
  EXPECT_EQ(TraceRecorder::Global().event_count(), before);
}

TEST(TraceRecorderTest, NestedSpansRecordInnerFirst) {
  UVD_SKIP_WITHOUT_TRACING();
  GlobalTraceGuard guard;
  TraceRecorder::Global().Clear();
  TraceRecorder::SetEnabled(true);
  const size_t before = TraceRecorder::Global().event_count();
  {
    UVD_TRACE_SPAN("test", "outer");
    {
      UVD_TRACE_SPAN("test", "inner");
    }
  }
  TraceRecorder::SetEnabled(false);
  EXPECT_EQ(TraceRecorder::Global().event_count(), before + 2);
  // Destruction order records the inner span before the outer one.
  const std::string json = TraceRecorder::Global().ToChromeTraceJson();
  const size_t inner_pos = json.find("\"inner\"");
  const size_t outer_pos = json.find("\"outer\"");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  EXPECT_LT(inner_pos, outer_pos);
}

TEST(TraceRecorderTest, RingOverwritesOldestAndCountsDrops) {
  TraceRecorder recorder(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record("cat", i % 2 == 0 ? "even" : "odd", static_cast<uint64_t>(i),
                    1);
  }
  EXPECT_EQ(recorder.event_count(), 4u);  // capacity-bounded
  EXPECT_EQ(recorder.dropped(), 6u);
  // The survivors are the NEWEST four (ts 6..9), oldest-first in export.
  const std::string json = recorder.ToChromeTraceJson();
  EXPECT_EQ(json.find("\"ts\": 5,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 6,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 9,"), std::string::npos);
  EXPECT_LT(json.find("\"ts\": 6,"), json.find("\"ts\": 9,"));
}

TEST(TraceRecorderTest, ClearKeepsRingsAndResetsCounts) {
  TraceRecorder recorder;
  recorder.Record("cat", "a", 0, 1);
  ASSERT_EQ(recorder.event_count(), 1u);
  recorder.Clear();
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.thread_count(), 1u);  // ring registration survives
}

TEST(TraceRecorderTest, SequentialThreadsKeepTheirOwnRings) {
  // Each thread is joined before the next starts, so the runtime may hand
  // the next one the same std::thread::id; every thread must still get a
  // ring of its own, and an exited thread's events must stay.
  TraceRecorder recorder;
  constexpr int kThreads = 4;
  for (int i = 0; i < kThreads; ++i) {
    std::thread t([&recorder, i] {
      recorder.Record("test", "seq", static_cast<uint64_t>(i), 1);
    });
    t.join();
  }
  EXPECT_EQ(recorder.thread_count(), static_cast<size_t>(kThreads));
  EXPECT_EQ(recorder.event_count(), static_cast<size_t>(kThreads));
  const std::string json = recorder.ToChromeTraceJson();
  std::set<std::string> tids;
  const std::string key = "\"tid\": ";
  for (size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + key.size())) {
    const size_t start = pos + key.size();
    tids.insert(json.substr(start, json.find('}', start) - start));
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST(TraceRecorderTest, ConcurrentSpansUnderThreadPool) {
  // Workers record concurrently through the macro path; every span must
  // land (per-thread rings, no cross-thread contention) and the export
  // must hold together. TSan covers the synchronization.
  UVD_SKIP_WITHOUT_TRACING();
  GlobalTraceGuard guard;
  TraceRecorder::Global().Clear();
  TraceRecorder::SetEnabled(true);
  const size_t before = TraceRecorder::Global().event_count();

  constexpr int kWorkers = 4;
  constexpr int kSpansPerWorker = 500;
  {
    ThreadPool pool(kWorkers);
    RunWorkers(&pool, kWorkers, [](int) {
      for (int i = 0; i < kSpansPerWorker; ++i) {
        UVD_TRACE_SPAN("test", "pool_span");
        {
          UVD_TRACE_SPAN("test", "nested_pool_span");
        }
      }
    });
  }
  TraceRecorder::SetEnabled(false);
  EXPECT_EQ(TraceRecorder::Global().event_count() - before,
            static_cast<size_t>(2 * kWorkers * kSpansPerWorker));
  // The export parses structurally: balanced braces, one record per span.
  const std::string json = TraceRecorder::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"pool_span\""), std::string::npos);
  EXPECT_NE(json.find("\"nested_pool_span\""), std::string::npos);
}

TEST(TraceRecorderTest, PhaseTotalsStayExactPastRingOverwrite) {
  // The ring keeps 4 of 10 events; the per-phase totals keep all 10. A
  // name with the same text at another address (another translation
  // unit's literal) merges into the same phase.
  static const char kOddElsewhere[] = "odd";
  TraceRecorder recorder(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record("cat", i % 2 == 0 ? "even" : (i < 5 ? "odd" : kOddElsewhere),
                    static_cast<uint64_t>(i), static_cast<uint64_t>(i));
  }
  ASSERT_EQ(recorder.dropped(), 6u);
  const auto totals = recorder.PhaseTotals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals.at("cat/even").count, 5u);
  EXPECT_EQ(totals.at("cat/even").total_ns, (0 + 2 + 4 + 6 + 8) * 1000u);
  EXPECT_EQ(totals.at("cat/odd").count, 5u);
  EXPECT_EQ(totals.at("cat/odd").total_ns, (1 + 3 + 5 + 7 + 9) * 1000u);
  EXPECT_DOUBLE_EQ(totals.at("cat/odd").seconds(), 25e-6);

  recorder.Clear();
  EXPECT_TRUE(recorder.PhaseTotals().empty());
  recorder.Record("cat", "even", 0, 3);
  EXPECT_EQ(recorder.PhaseTotals().at("cat/even").count, 1u);
}

TEST(TraceRecorderTest, PhaseTotalsMergeAcrossThreads) {
  // Four workers overflow their rings many times over; the totals count
  // every span exactly, and each nested span's time lies inside its
  // parent's.
  UVD_SKIP_WITHOUT_TRACING();
  GlobalTraceGuard guard;
  TraceRecorder::Global().Clear();
  TraceRecorder::SetEnabled(true);
  constexpr int kWorkers = 4;
  constexpr int kSpansPerWorker = 20000;  // > kDefaultRingCapacity / 2
  {
    ThreadPool pool(kWorkers);
    RunWorkers(&pool, kWorkers, [](int) {
      for (int i = 0; i < kSpansPerWorker; ++i) {
        UVD_TRACE_SPAN("test", "outer");
        UVD_TRACE_SPAN("test", "inner");
      }
    });
  }
  TraceRecorder::SetEnabled(false);
  EXPECT_GT(TraceRecorder::Global().dropped(), 0u);
  const auto totals = TraceRecorder::Global().PhaseTotals();
  EXPECT_EQ(totals.at("test/outer").count, uint64_t{kWorkers} * kSpansPerWorker);
  EXPECT_EQ(totals.at("test/inner").count, uint64_t{kWorkers} * kSpansPerWorker);
  EXPECT_LE(totals.at("test/inner").total_ns, totals.at("test/outer").total_ns);

  TraceRecorder::Global().Clear();
  EXPECT_TRUE(TraceRecorder::Global().PhaseTotals().empty());
}

TEST(TraceRecorderTest, ChromeTraceExportGolden) {
  // A private recorder fed explicit events from one thread exports a
  // deterministic document — the literal Chrome trace-event format
  // (Perfetto-loadable), pinned byte for byte.
  TraceRecorder recorder;
  recorder.Record("build", "stage1", 100, 40);
  recorder.Record("query", "locate \"leaf\"", 150, 7);
  const std::string expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"stage1\", \"cat\": \"build\", \"ph\": \"X\", \"ts\": 100, "
      "\"dur\": 40, \"pid\": 0, \"tid\": 0},\n"
      "{\"name\": \"locate \\\"leaf\\\"\", \"cat\": \"query\", \"ph\": \"X\", "
      "\"ts\": 150, \"dur\": 7, \"pid\": 0, \"tid\": 0}\n"
      "]}\n";
  EXPECT_EQ(recorder.ToChromeTraceJson(), expected);
}

TEST(TraceRecorderTest, EmptyExportIsValid) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.ToChromeTraceJson(),
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n]}\n");
}

TEST(TraceRecorderTest, WriteChromeTraceFailsOnBadPath) {
  TraceRecorder recorder;
  recorder.Record("cat", "a", 0, 1);
  const Status st =
      recorder.WriteChromeTrace("/nonexistent-dir-xyz/trace.json");
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace obs
}  // namespace uvd
