// Tests for the common substrate: Status, Result, Stats, Rng, Timer.
#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/timer.h"

namespace uvd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad radius");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad radius");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad radius");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted), "ResourceExhausted");
}

TEST(StatusTest, ReturnNotOkPropagates) {
  auto fails = []() -> Status { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    UVD_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, AssignOrReturn) {
  auto make = [](bool good) -> Result<int> {
    if (good) return 7;
    return Status::Internal("boom");
  };
  auto use = [&](bool good) -> Result<int> {
    UVD_ASSIGN_OR_RETURN(int v, make(good));
    return v * 2;
  };
  EXPECT_EQ(use(true).value(), 14);
  EXPECT_EQ(use(false).status().code(), StatusCode::kInternal);
}

TEST(StatsTest, AddAndGet) {
  Stats stats;
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 0u);
  stats.Add(Ticker::kPageReads);
  stats.Add(Ticker::kPageReads, 4);
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 5u);
  stats.Reset();
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 0u);
}

TEST(StatsTest, ToStringListsNonZero) {
  Stats stats;
  stats.Add(Ticker::kRtreeLeafReads, 3);
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("rtree.leaf.reads = 3"), std::string::npos);
  EXPECT_EQ(s.find("page.writes"), std::string::npos);
}

TEST(StatsTest, TickerNamesAreUnique) {
  std::set<std::string> names;
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ticker::kNumTickers); ++i) {
    names.insert(TickerName(static_cast<Ticker>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(Ticker::kNumTickers));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms >= s numerically
}

}  // namespace
}  // namespace uvd
