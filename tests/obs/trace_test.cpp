#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>

namespace fedvr::obs {
namespace {

// Every test starts with collection off and an empty span store.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = set_enabled(false);
    clear_spans();
  }
  void TearDown() override {
    clear_spans();
    set_enabled(prev_);
  }
  bool prev_ = false;
};

// The round engine's measured timings read this clock at its stage
// boundaries: it must never step back and must see a sleep in full.
TEST_F(TraceTest, NowNsIsMonotoneAndSeesASleep) {
  std::uint64_t prev = now_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t t = now_ns();
    ASSERT_GE(t, prev);
    prev = t;
  }
  const std::uint64_t start = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(now_ns() - start, 2'000'000u);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  {
    OBS_SPAN("never");
  }
  EXPECT_TRUE(collect_spans().empty());
}

TEST_F(TraceTest, NestedSpansRecordDepthAndContainment) {
  set_enabled(true);
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN("inner");
    }
  }
  set_enabled(false);
  const auto spans = collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  // Temporal nesting: inner entirely inside outer.
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_EQ(spans[0].thread_id, spans[1].thread_id);
}

TEST_F(TraceTest, SequentialSpansAreOrderedByStart) {
  set_enabled(true);
  {
    OBS_SPAN("first");
  }
  {
    OBS_SPAN("second");
  }
  {
    OBS_SPAN("third");
  }
  set_enabled(false);
  const auto spans = collect_spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "first");
  EXPECT_STREQ(spans[1].name, "second");
  EXPECT_STREQ(spans[2].name, "third");
  EXPECT_LE(spans[0].end_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[2].start_ns);
  // Depth resets between siblings.
  for (const auto& s : spans) EXPECT_EQ(s.depth, 0u);
}

TEST_F(TraceTest, ChromeTraceGoldenOutput) {
  // Inject records with fixed timestamps; only the thread id is discovered
  // at runtime (it is a process-wide dense slot, not std::thread::id).
  detail::record_span({"alpha", 1000, 3000, 0, 0});
  detail::record_span({"beta", 2000, 2500, 0, 1});
  const auto spans = collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  const std::string tid = std::to_string(spans[0].thread_id);
  std::ostringstream os;
  write_chrome_trace(os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":[\n"
            "{\"name\":\"alpha\",\"cat\":\"fedvr\",\"ph\":\"X\",\"pid\":0,"
            "\"tid\":" + tid + ",\"ts\":1,\"dur\":2,\"args\":{\"depth\":0}},\n"
            "{\"name\":\"beta\",\"cat\":\"fedvr\",\"ph\":\"X\",\"pid\":0,"
            "\"tid\":" + tid + ",\"ts\":2,\"dur\":0.5,"
            "\"args\":{\"depth\":1}}\n"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST_F(TraceTest, SpanSummaryJsonlGoldenOutput) {
  detail::record_span({"work", 0, 1000, 0, 0});     // 1 us
  detail::record_span({"work", 5000, 7000, 0, 0});  // 2 us
  detail::record_span({"idle", 0, 4000, 0, 0});     // 4 us
  std::ostringstream os;
  write_span_summary_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"type\":\"span_summary\",\"name\":\"idle\",\"count\":1,"
            "\"total_us\":4,\"mean_us\":4,\"min_us\":4,\"max_us\":4}\n"
            "{\"type\":\"span_summary\",\"name\":\"work\",\"count\":2,"
            "\"total_us\":3,\"mean_us\":1.5,\"min_us\":1,\"max_us\":2}\n");
}

TEST_F(TraceTest, RingBufferOverwritesOldestAndCountsDrops) {
  constexpr std::size_t kPushed = 20000;
  for (std::size_t i = 0; i < kPushed; ++i) {
    detail::record_span({"s", i, i + 1, 0, 0});
  }
  const auto spans = collect_spans();
  ASSERT_FALSE(spans.empty());
  ASSERT_LT(spans.size(), kPushed);  // capacity is smaller than kPushed
  EXPECT_EQ(spans_dropped(), kPushed - spans.size());
  // The survivors are the newest records, oldest-first.
  EXPECT_EQ(spans.front().start_ns, kPushed - spans.size());
  EXPECT_EQ(spans.back().start_ns, kPushed - 1);
}

TEST_F(TraceTest, ClearSpansDiscardsRecordsAndDropCount) {
  detail::record_span({"x", 0, 1, 0, 0});
  ASSERT_EQ(collect_spans().size(), 1u);
  clear_spans();
  EXPECT_TRUE(collect_spans().empty());
  EXPECT_EQ(spans_dropped(), 0u);
}

TEST_F(TraceTest, EnableFlagCheckedAtSpanEntry) {
  // A span opened while enabled records even if collection is disabled
  // before it closes; a span opened while disabled never records.
  set_enabled(true);
  {
    OBS_SPAN("open_enabled");
    set_enabled(false);
  }
  {
    OBS_SPAN("open_disabled");
  }
  const auto spans = collect_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "open_enabled");
}

}  // namespace
}  // namespace fedvr::obs
