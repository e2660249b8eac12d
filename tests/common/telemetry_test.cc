#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "common/trace_events.h"
#include "eval/stage_report.h"

namespace stemroot::telemetry {
namespace {

/// Every test owns the process-wide registry for its duration.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Reset();
  }
  void TearDown() override {
    Reset();
    SetEnabled(false);
  }
};

TEST_F(TelemetryTest, CountersAccumulate) {
  Count("a");
  Count("a", 2);
  Count("b", 10);
  const Snapshot snap = Capture();
  EXPECT_EQ(snap.Counter("a"), 3u);
  EXPECT_EQ(snap.Counter("b"), 10u);
  EXPECT_EQ(snap.Counter("missing"), 0u);
  EXPECT_EQ(snap.Counters().size(), 2u);
}

TEST_F(TelemetryTest, CaptureIsCumulativeUntilReset) {
  Count("a");
  EXPECT_EQ(Capture().Counter("a"), 1u);
  Count("a");
  EXPECT_EQ(Capture().Counter("a"), 2u);
  Reset();
  EXPECT_EQ(Capture().Counter("a"), 0u);
  EXPECT_TRUE(Capture().Counters().empty());
}

TEST_F(TelemetryTest, DisabledIsNoop) {
  SetEnabled(false);
  Count("a");
  Record("d", 1.0);
  { Span span("s"); }
  SetEnabled(true);
  const Snapshot snap = Capture();
  EXPECT_TRUE(snap.Counters().empty());
  EXPECT_TRUE(snap.Distributions().empty());
  EXPECT_TRUE(snap.Spans().empty());
}

TEST_F(TelemetryTest, DistributionSummary) {
  for (int i = 1; i <= 100; ++i) Record("d", static_cast<double>(i));
  const DistSummary dist = Capture().Dist("d");
  EXPECT_EQ(dist.count, 100u);
  EXPECT_DOUBLE_EQ(dist.min, 1.0);
  EXPECT_DOUBLE_EQ(dist.max, 100.0);
  EXPECT_DOUBLE_EQ(dist.mean, 50.5);
  // Quantiles index the sorted multiset at floor(q * n).
  EXPECT_DOUBLE_EQ(dist.p50, 51.0);
  EXPECT_DOUBLE_EQ(dist.p99, 100.0);
  EXPECT_EQ(Capture().Dist("missing").count, 0u);
}

TEST_F(TelemetryTest, RecordDropsNonFinite) {
  Record("d", std::numeric_limits<double>::quiet_NaN());
  Record("d", std::numeric_limits<double>::infinity());
  Record("d", -std::numeric_limits<double>::infinity());
  Record("d", 2.0);
  const DistSummary dist = Capture().Dist("d");
  EXPECT_EQ(dist.count, 1u);
  EXPECT_DOUBLE_EQ(dist.min, 2.0);
  EXPECT_DOUBLE_EQ(dist.max, 2.0);
}

TEST_F(TelemetryTest, SpanNestingTracksParent) {
  {
    Span outer("outer");
    Span inner("inner");
  }
  const Snapshot snap = Capture();
  EXPECT_TRUE(snap.HasSpan("outer"));
  EXPECT_TRUE(snap.HasSpan("inner"));
  EXPECT_FALSE(snap.HasSpan("missing"));
  ASSERT_EQ(snap.Spans().count({"outer", ""}), 1u);
  ASSERT_EQ(snap.Spans().count({"inner", "outer"}), 1u);
  const SpanStats& inner = snap.Spans().at({"inner", "outer"});
  EXPECT_EQ(inner.count, 1u);
  EXPECT_GE(inner.total_us, 0.0);
  const SpanStats& outer = snap.Spans().at({"outer", ""});
  EXPECT_GE(outer.total_us, inner.total_us);
}

TEST_F(TelemetryTest, ThreadBuffersMergeDeterministically) {
  SetNumThreads(4);
  ParallelFor(0, 1000, [](size_t i) {
    Count("n");
    Record("v", static_cast<double>(i % 10));
  });
  const Snapshot snap = Capture();
  EXPECT_EQ(snap.Counter("n"), 1000u);
  const DistSummary dist = snap.Dist("v");
  EXPECT_EQ(dist.count, 1000u);
  EXPECT_DOUBLE_EQ(dist.min, 0.0);
  EXPECT_DOUBLE_EQ(dist.max, 9.0);
  EXPECT_DOUBLE_EQ(dist.mean, 4.5);
  SetNumThreads(0);
}

TEST_F(TelemetryTest, CountersJsonIsSortedAndStable) {
  Count("zeta", 2);
  Count("alpha", 1);
  const std::string json = Capture().CountersJson();
  EXPECT_EQ(json, "{\"alpha\":1,\"zeta\":2}");
  EXPECT_EQ(Capture().CountersJson(), json);
}

TEST_F(TelemetryTest, ExportsValidateAndRoundTrip) {
  Count("c", 7);
  Record("d", 1.5);
  Record("d", 2.5);
  { Span span("stage"); }
  const Snapshot snap = Capture();

  std::string error;
  std::vector<std::string> span_names;
  ASSERT_TRUE(eval::ValidateTelemetryJson(snap.ToJson(), &error, &span_names))
      << error;
  ASSERT_EQ(span_names.size(), 1u);
  EXPECT_EQ(span_names[0], "stage");

  const std::string csv = snap.ToCsv();
  EXPECT_EQ(
      csv.rfind("kind,name,parent,count,min,mean,max,p50,p99,total", 0), 0u);
  EXPECT_NE(csv.find("counter,c,"), std::string::npos);
  EXPECT_NE(csv.find("distribution,d,"), std::string::npos);
  EXPECT_NE(csv.find("span,stage,"), std::string::npos);
}

TEST_F(TelemetryTest, ValidateRejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(eval::ValidateTelemetryJson("", &error));
  EXPECT_FALSE(eval::ValidateTelemetryJson("{", &error));
  EXPECT_FALSE(eval::ValidateTelemetryJson("[]", &error));
  EXPECT_FALSE(eval::ValidateTelemetryJson("{\"schema\":\"wrong\"}", &error));
  EXPECT_FALSE(error.empty());
  // Truncating a valid export must fail the full-grammar parse.
  Count("c");
  const std::string json = Capture().ToJson();
  EXPECT_FALSE(eval::ValidateTelemetryJson(
      std::string_view(json).substr(0, json.size() - 2), &error));
}

// Regression: SetEnabled may flip between a Span's construction and its
// destruction (a bench toggling telemetry around a region, or the CLI
// enabling late). Neither direction may corrupt the per-thread name stack
// or crash; disabling mid-span simply discards that span's timing.
TEST_F(TelemetryTest, SpanToleratesDisableMidSpan) {
  {
    Span outer("outer");
    SetEnabled(false);
    // The stack entry must still be popped on destruction even though
    // recording is now off...
  }
  SetEnabled(true);
  EXPECT_TRUE(Capture().Spans().empty());

  // ...so a following span sees a clean stack (no stale "outer" parent).
  { Span next("next"); }
  const Snapshot snap = Capture();
  ASSERT_EQ(snap.Spans().size(), 1u);
  EXPECT_EQ(snap.Spans().begin()->second.name, "next");
  EXPECT_EQ(snap.Spans().begin()->second.parent, "");
}

TEST_F(TelemetryTest, SpanToleratesEnableMidSpan) {
  SetEnabled(false);
  {
    Span span("late");
    SetEnabled(true);
    // Construction saw telemetry off: nothing was pushed, so nothing may
    // be recorded or popped at destruction.
  }
  EXPECT_TRUE(Capture().Spans().empty());
}

TEST_F(TelemetryTest, NestedSpansSurviveMidSpanToggle) {
  {
    Span outer("outer");
    {
      Span inner("inner");
      SetEnabled(false);
    }
    SetEnabled(true);
    // inner popped itself while disabled; a sibling must still see
    // "outer" as its parent.
    { Span sibling("sibling"); }
  }
  const Snapshot snap = Capture();
  bool found = false;
  for (const auto& [key, stats] : snap.Spans()) {
    if (stats.name != "sibling") continue;
    found = true;
    EXPECT_EQ(stats.parent, "outer");
  }
  EXPECT_TRUE(found);
}

// A Span feeds the trace-event timeline independently of telemetry: with
// telemetry off but tracing on it must still emit a balanced B/E pair.
TEST_F(TelemetryTest, SpanFeedsTraceEventsWhenTelemetryOff) {
  SetEnabled(false);
  trace_events::Reset();
  trace_events::SetEnabled(true);
  { Span span("traced_only"); }
  trace_events::SetEnabled(false);
  SetEnabled(true);

  EXPECT_TRUE(Capture().Spans().empty());
  std::string error;
  std::vector<std::string> names;
  trace_events::TraceInfo info;
  ASSERT_TRUE(trace_events::ValidateTraceJson(trace_events::ExportJson(),
                                              &error, &names, &info))
      << error;
  EXPECT_EQ(info.events, 2u);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "traced_only");
  trace_events::Reset();
}

// And the other mid-span hazard: tracing disabled between Span
// construction and destruction must still close the open begin.
TEST_F(TelemetryTest, SpanClosesTraceBeginWhenTracingDisabledMidSpan) {
  trace_events::Reset();
  trace_events::SetEnabled(true);
  {
    Span span("toggled");
    trace_events::SetEnabled(false);
  }
  std::string error;
  trace_events::TraceInfo info;
  ASSERT_TRUE(trace_events::ValidateTraceJson(trace_events::ExportJson(),
                                              &error, nullptr, &info))
      << error;
  EXPECT_EQ(info.events, 2u);
  trace_events::Reset();
}

/// A ParallelFor under a sink at `threads`, while another thread counts
/// unscoped. Returns the sink's deterministic sections.
std::string SinkRun(int threads) {
  SetNumThreads(threads);
  Sink sink;
  std::thread bystander([] {
    for (int i = 0; i < 1000; ++i) Count("global.only");
  });
  {
    SinkScope scope(&sink);
    ParallelFor(0, 500, [](size_t i) {
      Span span("sink.span");
      Count("sink.n");
      Record("sink.v", static_cast<double>(i % 7));
    });
  }
  bystander.join();
  const Snapshot mine = sink.Capture();
  const Snapshot global = Capture();
  EXPECT_EQ(mine.Counter("sink.n"), 500u) << "threads=" << threads;
  EXPECT_EQ(mine.Dist("sink.v").count, 500u);
  EXPECT_TRUE(mine.HasSpan("sink.span"));
  EXPECT_EQ(mine.Counter("global.only"), 0u);
  EXPECT_EQ(global.Counter("global.only"), 1000u);
  EXPECT_EQ(global.Counter("sink.n"), 0u) << "threads=" << threads;
  EXPECT_EQ(global.Dist("sink.v").count, 0u);
  EXPECT_FALSE(global.HasSpan("sink.span"));
  Reset();
  SetNumThreads(0);
  return mine.CountersJson() + mine.DistributionsJson();
}

TEST_F(TelemetryTest, SinkCollectsPoolTasksOfItsSubmitter) {
  EXPECT_EQ(SinkRun(1), SinkRun(4));
}

TEST_F(TelemetryTest, SinkScopeRestoresThePreviousRoute) {
  Sink outer;
  Sink inner;
  EXPECT_EQ(CurrentSink(), nullptr);
  {
    SinkScope a(&outer);
    Count("x");
    {
      SinkScope b(&inner);
      EXPECT_EQ(CurrentSink(), &inner);
      Count("x", 2);
      SinkScope global(nullptr);
      Count("x", 4);
    }
    EXPECT_EQ(CurrentSink(), &outer);
    Count("x", 8);
  }
  EXPECT_EQ(CurrentSink(), nullptr);
  EXPECT_EQ(outer.Capture().Counter("x"), 9u);
  EXPECT_EQ(inner.Capture().Counter("x"), 2u);
  EXPECT_EQ(Capture().Counter("x"), 4u);
}

TEST_F(TelemetryTest, CounterDeltasReportOnlyGrowth) {
  Count("grows", 2);
  Count("static", 5);
  const Snapshot before = Capture();
  Count("grows", 3);
  Count("fresh", 7);
  const Snapshot after = Capture();

  const std::map<std::string, uint64_t> deltas =
      CounterDeltas(before, after);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas.at("grows"), 3u);
  // Absent from `before` counts from zero.
  EXPECT_EQ(deltas.at("fresh"), 7u);
  // Non-growing counters are omitted entirely.
  EXPECT_EQ(deltas.count("static"), 0u);
}

TEST_F(TelemetryTest, CounterDeltasOfIdenticalSnapshotsIsEmpty) {
  Count("a", 4);
  const Snapshot snap = Capture();
  EXPECT_TRUE(CounterDeltas(snap, snap).empty());
  EXPECT_TRUE(CounterDeltas(Snapshot{}, Snapshot{}).empty());
}

}  // namespace
}  // namespace stemroot::telemetry
