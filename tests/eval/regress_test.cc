#include "eval/regress.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace stemroot::eval {
namespace {

RunManifest MakeRun(double wall_seconds = 1.0) {
  RunManifest m;
  m.tool = "stemroot";
  m.command = "run";
  m.completed = true;
  m.config.suite = "rodinia";
  m.config.workload = "hotspot";
  m.config.gpu = "RTX2080";
  m.config.method = "stem";
  m.config.epsilon = 0.05;
  m.config.confidence = 0.95;
  m.config.seed = 42;
  m.config.reps = 10;
  m.config.threads = 1;
  m.wall_time_seconds = wall_seconds;
  m.stages = {{"generate", 1, 100.0},
              {"cluster", 10, 2000.0},
              {"evaluate", 1, 3000.0}};
  m.counters = {{"core.kkt.solves", 100}, {"eval.evaluations", 1}};
  m.metrics.present = true;
  m.metrics.error_pct = 0.8;
  m.metrics.theoretical_error_pct = 5.0;
  m.metrics.speedup = 150.0;
  m.metrics.num_samples = 17;
  m.metrics.num_clusters = 9;
  return m;
}

// ---------------------------------------------------------------------------
// compare

TEST(CompareTest, IdenticalManifestsAreClean) {
  const RunManifest a = MakeRun();
  const CompareReport report = CompareManifests(a, a);
  EXPECT_TRUE(report.comparable);
  EXPECT_FALSE(report.deterministic_drift);
  EXPECT_EQ(report.ExitCode(CompareOptions{}), 0);
  EXPECT_FALSE(report.ToText().empty());
}

TEST(CompareTest, ThreadCountAndWallTimesNeverGate) {
  // The determinism contract: same seed at different --threads must
  // compare clean even when every wall time moved.
  const RunManifest a = MakeRun(1.0);
  RunManifest b = MakeRun(2.0);
  b.config.threads = 8;
  for (auto& stage : b.stages) stage.total_us *= 3.0;
  const CompareReport report = CompareManifests(a, b);
  EXPECT_TRUE(report.comparable);
  EXPECT_FALSE(report.deterministic_drift);
  EXPECT_EQ(report.ExitCode(CompareOptions{}), 0);
}

TEST(CompareTest, ConfigMismatchIsNotComparable) {
  const RunManifest a = MakeRun();
  RunManifest b = MakeRun();
  b.config.seed = 43;
  const CompareReport report = CompareManifests(a, b);
  EXPECT_FALSE(report.comparable);
  EXPECT_EQ(report.ExitCode(CompareOptions{}), kExitNotComparable);
  EXPECT_EQ(report.ExitCode(CompareOptions{.allow_config_diff = true}), 0);
}

TEST(CompareTest, MetricDriftTripsTheExitCode) {
  const RunManifest a = MakeRun();
  RunManifest b = MakeRun();
  b.metrics.error_pct = 0.81;
  const CompareReport report = CompareManifests(a, b);
  EXPECT_TRUE(report.comparable);
  EXPECT_TRUE(report.deterministic_drift);
  EXPECT_EQ(report.ExitCode(CompareOptions{}), kExitRegression);
}

TEST(CompareTest, CounterDriftTripsTheExitCode) {
  const RunManifest a = MakeRun();
  RunManifest b = MakeRun();
  b.counters["core.kkt.solves"] = 101;
  const CompareReport report = CompareManifests(a, b);
  EXPECT_TRUE(report.deterministic_drift);
  EXPECT_EQ(report.ExitCode(CompareOptions{}), kExitRegression);
}

TEST(CompareTest, CacheCountersAreEnvironmental) {
  // A cold and a warm run of the same config are byte-identical in
  // results but not in cache traffic: cache.* counters must not gate.
  RunManifest cold = MakeRun();
  cold.counters["cache.miss"] = 1;
  cold.counters["cache.store"] = 1;
  cold.counters["cache.write_bytes"] = 4096;
  RunManifest warm = MakeRun();
  warm.counters["cache.hit"] = 1;
  warm.counters["cache.read_bytes"] = 4096;
  const CompareReport report = CompareManifests(cold, warm);
  EXPECT_TRUE(report.comparable);
  EXPECT_FALSE(report.deterministic_drift) << report.ToText();
  EXPECT_EQ(report.ExitCode(CompareOptions{}), 0);

  // But a non-cache counter difference still trips.
  warm.counters["core.kkt.solves"] = 101;
  EXPECT_TRUE(CompareManifests(cold, warm).deterministic_drift);
}

TEST(CompareTest, SessionAndRunAreOneCommandFamily) {
  // A served session that fed its full source replays the batch run
  // byte-for-byte (service replay equivalence), so a "session" manifest
  // compares clean against a "run" manifest of the same config; the
  // session-only service.* counters are environmental like cache.*.
  const RunManifest batch = MakeRun();
  RunManifest session = MakeRun();
  session.command = "session";
  session.counters["service.sessions"] = 1;
  session.counters["service.feed_invocations"] = 1234;
  session.counters["service.early_stops"] = 0;
  const CompareReport report = CompareManifests(batch, session);
  EXPECT_TRUE(report.comparable) << report.ToText();
  EXPECT_FALSE(report.deterministic_drift) << report.ToText();
  EXPECT_EQ(report.ExitCode(CompareOptions{}), 0);

  // Any other command pair still refuses to compare.
  RunManifest dse = MakeRun();
  dse.command = "dse";
  EXPECT_FALSE(CompareManifests(batch, dse).comparable);

  // And a session whose deterministic counters drifted still trips.
  session.counters["core.kkt.solves"] = 101;
  EXPECT_TRUE(CompareManifests(batch, session).deterministic_drift);
}

TEST(CompareTest, ChunkedSpillNeverGatesTheCompare) {
  // The chunked-pipeline contract: a spilled run is byte-identical to
  // the in-memory run, so a trace_spill block plus its cache.spill_*
  // traffic must compare clean against a run without any of it. (The
  // chunk size splits *perf baselines* via the fingerprint, but never
  // comparability -- that is the epoch_cycles precedent.)
  const RunManifest inmem = MakeRun();
  RunManifest spilled = MakeRun();
  spilled.trace_spill.present = true;
  spilled.trace_spill.chunk_invocations = 512;
  spilled.trace_spill.chunks = 28;
  spilled.trace_spill.bytes = 1 << 20;
  spilled.counters["cache.spill_write"] = 1;
  spilled.mem.present = true;
  spilled.mem.logical["cache"] = 1 << 20;
  const CompareReport report = CompareManifests(inmem, spilled);
  EXPECT_TRUE(report.comparable) << report.ToText();
  EXPECT_FALSE(report.deterministic_drift) << report.ToText();
  EXPECT_EQ(report.ExitCode(CompareOptions{}), 0);
  EXPECT_NE(inmem.Fingerprint(), spilled.Fingerprint());
}

TEST(CompareTest, LogicalMemDriftTripsTheExitCode) {
  RunManifest a = MakeRun();
  a.mem.present = true;
  a.mem.logical = {{"trace", 1000}, {"root", 2000}};
  RunManifest b = a;
  b.mem.logical["trace"] = 1001;  // deterministic category moved
  const CompareReport report = CompareManifests(a, b);
  EXPECT_TRUE(report.comparable);
  EXPECT_TRUE(report.deterministic_drift) << report.ToText();
  EXPECT_EQ(report.ExitCode(CompareOptions{}), kExitRegression);
}

TEST(CompareTest, EnvironmentalMemNeverGates) {
  // cache*/service* categories, the physical peak, and the sample count
  // are all environmental: warmth and scheduling move them freely.
  RunManifest a = MakeRun();
  a.mem.present = true;
  a.mem.peak_rss_bytes = 100 << 20;
  a.mem.samples = 4;
  a.mem.logical = {{"trace", 1000}, {"cache", 500}, {"service.session", 9}};
  RunManifest b = a;
  b.mem.peak_rss_bytes = 900 << 20;
  b.mem.samples = 40;
  b.mem.logical["cache"] = 99999;
  b.mem.logical.erase("service.session");
  const CompareReport report = CompareManifests(a, b);
  EXPECT_TRUE(report.comparable);
  EXPECT_FALSE(report.deterministic_drift) << report.ToText();
  EXPECT_EQ(report.ExitCode(CompareOptions{}), 0);
}

TEST(CompareTest, MemGatesOnlyWhenBothSidesCarryIt) {
  // One side ran without accounting: that's environmental, not drift.
  RunManifest a = MakeRun();
  RunManifest b = MakeRun();
  b.mem.present = true;
  b.mem.logical = {{"trace", 12345}};
  const CompareReport report = CompareManifests(a, b);
  EXPECT_TRUE(report.comparable);
  EXPECT_FALSE(report.deterministic_drift) << report.ToText();
}

TEST(CompareTest, StageTableCoversTheUnion) {
  const RunManifest a = MakeRun();
  RunManifest b = MakeRun();
  b.stages.push_back({"extra", 1, 50.0});
  const CompareReport report = CompareManifests(a, b);
  ASSERT_EQ(report.stage_deltas.size(), 4u);
  EXPECT_EQ(report.stage_deltas.back().name, "extra");
  EXPECT_FALSE(report.stage_deltas.back().in_both);
}

// ---------------------------------------------------------------------------
// regress

TEST(RegressTest, EmptyLedgerIsUncheckedAndClean) {
  const Ledger ledger;
  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  EXPECT_FALSE(report.checked);
  EXPECT_FALSE(report.HasRegression());
  EXPECT_EQ(report.ExitCode(), 0);
}

TEST(RegressTest, InsufficientHistoryReportsReason) {
  Ledger ledger;
  RunManifest only = MakeRun();
  only.metrics.present = false;  // no standalone gates either
  ledger.Add(only);
  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  EXPECT_FALSE(report.checked);
  EXPECT_NE(report.reason.find("insufficient history"), std::string::npos);
  EXPECT_EQ(report.ExitCode(), 0);
}

TEST(RegressTest, IdenticalRunsAreClean) {
  Ledger ledger;
  for (int i = 0; i < 4; ++i) ledger.Add(MakeRun());
  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  EXPECT_TRUE(report.checked);
  EXPECT_FALSE(report.HasRegression()) << report.ToText();
  EXPECT_EQ(report.ExitCode(), 0);
}

TEST(RegressTest, FivePercentStageSlowdownRegresses) {
  // Zero-MAD baseline (replayed identical manifests): the threshold is
  // the rel_slack floor (2%), so a 5% injected slowdown must trip.
  Ledger ledger;
  for (int i = 0; i < 3; ++i) ledger.Add(MakeRun());
  RunManifest slow = MakeRun();
  for (auto& stage : slow.stages)
    if (stage.name == "evaluate") stage.total_us *= 1.05;
  slow.wall_time_seconds *= 1.05;
  ledger.Add(slow);

  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(report.checked);
  EXPECT_TRUE(report.HasRegression()) << report.ToText();
  EXPECT_EQ(report.ExitCode(), kExitRegression);
  bool evaluate_tripped = false, cluster_tripped = false;
  for (const GateResult& gate : report.gates) {
    if (gate.gate == "perf:evaluate") evaluate_tripped = gate.regressed;
    if (gate.gate == "perf:cluster") cluster_tripped = gate.regressed;
  }
  EXPECT_TRUE(evaluate_tripped);
  EXPECT_FALSE(cluster_tripped);
}

TEST(RegressTest, NoisyBaselineAbsorbsJitterViaMad) {
  // With real noise in the baseline the MAD term dominates the 2% floor:
  // a wobble inside the noise band must NOT regress.
  Ledger ledger;
  const double walls[] = {1.0, 1.3, 0.9, 1.2, 0.8, 1.1};
  for (double w : walls) {
    RunManifest m = MakeRun(w);
    for (auto& stage : m.stages) stage.total_us *= w;
    ledger.Add(m);
  }
  RunManifest probe = MakeRun(1.25);
  for (auto& stage : probe.stages) stage.total_us *= 1.25;
  ledger.Add(probe);

  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(report.checked);
  for (const GateResult& gate : report.gates) {
    if (gate.gate.rfind("perf:", 0) == 0) {
      EXPECT_FALSE(gate.regressed) << gate.gate << "\n" << report.ToText();
    }
  }
}

TEST(RegressTest, AccuracyBudgetGateNeedsNoHistory) {
  Ledger ledger;
  RunManifest blown = MakeRun();
  blown.metrics.error_pct = 6.0;  // above its own 5.0 theoretical bound
  ledger.Add(blown);

  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  EXPECT_TRUE(report.checked);
  EXPECT_TRUE(report.HasRegression());
  EXPECT_EQ(report.ExitCode(), kExitRegression);
  ASSERT_FALSE(report.gates.empty());
  EXPECT_EQ(report.gates[0].gate, "accuracy:budget");
  EXPECT_TRUE(report.gates[0].regressed);
}

TEST(RegressTest, AccuracyDriftRegressesOnAnyMovement) {
  Ledger ledger;
  for (int i = 0; i < 3; ++i) ledger.Add(MakeRun());
  RunManifest drifted = MakeRun();
  drifted.metrics.error_pct = 0.8001;  // tiny but real (deterministic field)
  ledger.Add(drifted);

  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(report.checked);
  bool drift_tripped = false;
  for (const GateResult& gate : report.gates)
    if (gate.gate == "accuracy:drift") drift_tripped = gate.regressed;
  EXPECT_TRUE(drift_tripped) << report.ToText();
}

TEST(RegressTest, IncompleteNewestRunAlwaysRegresses) {
  Ledger ledger;
  RunManifest crashed = MakeRun();
  crashed.completed = false;
  ledger.Add(crashed);

  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  EXPECT_TRUE(report.HasRegression());
  EXPECT_EQ(report.ExitCode(), kExitRegression);
  ASSERT_FALSE(report.gates.empty());
  EXPECT_EQ(report.gates[0].gate, "completed");
}

TEST(RegressTest, WindowLimitsTheBaseline) {
  Ledger ledger;
  // Ancient slow history, then a fast recent regime.
  for (int i = 0; i < 5; ++i) ledger.Add(MakeRun(10.0));
  for (int i = 0; i < 4; ++i) ledger.Add(MakeRun(1.0));
  RunManifest probe = MakeRun(1.06);  // 6% over the recent regime
  ledger.Add(probe);

  RegressOptions options;
  options.window = 4;  // recent regime only
  const RegressReport report = CheckRegression(ledger, options);
  ASSERT_TRUE(report.checked);
  EXPECT_EQ(report.baseline_size, 4u);
  bool wall_tripped = false;
  for (const GateResult& gate : report.gates)
    if (gate.gate == "perf:wall_time") wall_tripped = gate.regressed;
  EXPECT_TRUE(wall_tripped) << report.ToText();

  // The full window dilutes the baseline with the slow regime; the probe
  // sits under that median, so nothing trips.
  options.window = 0;
  const RegressReport full = CheckRegression(ledger, options);
  for (const GateResult& gate : full.gates) {
    if (gate.gate == "perf:wall_time") {
      EXPECT_FALSE(gate.regressed) << full.ToText();
    }
  }
}

TEST(RegressTest, PerfBaselineIsWarmthMatched) {
  // Cold history, then a first warm-cache run whose generate/profile
  // stages collapse to near zero: the wall-time drop is environmental,
  // not a perf signal. With no same-warmth history the perf gates skip
  // instead of comparing warm apples to cold oranges.
  Ledger ledger;
  for (int i = 0; i < 3; ++i) {
    RunManifest cold = MakeRun(10.0);
    cold.counters["cache.miss"] = 1;
    ledger.Add(cold);
  }
  RunManifest warm = MakeRun(0.5);
  warm.counters["cache.hit"] = 1;
  for (auto& stage : warm.stages)
    if (stage.name == "generate") stage.total_us = 1.0;
  ledger.Add(warm);

  const RegressReport skip = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(skip.checked);
  for (const GateResult& gate : skip.gates)
    EXPECT_NE(gate.gate.rfind("perf:", 0), 0u)
        << gate.gate << " gated against a cold baseline\n" << skip.ToText();

  // Once warm history accumulates, a slow warm run gates against the
  // warm regime (and the cold entries stay out of that baseline).
  for (int i = 0; i < 2; ++i) {
    RunManifest fast = warm;
    ledger.Add(fast);
  }
  RunManifest slow = warm;
  slow.wall_time_seconds = 0.6;  // 20% over the warm regime
  ledger.Add(slow);
  const RegressReport gated = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(gated.checked);
  bool wall_tripped = false;
  for (const GateResult& gate : gated.gates)
    if (gate.gate == "perf:wall_time") wall_tripped = gate.regressed;
  EXPECT_TRUE(wall_tripped) << gated.ToText();
}

TEST(RegressTest, JournalErrorGateNeedsNoHistory) {
  Ledger ledger;
  RunManifest noisy = MakeRun();
  noisy.journal.present = true;
  noisy.journal.emitted = 100;
  noisy.journal.errors = 2;
  ledger.Add(noisy);

  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  EXPECT_TRUE(report.checked);
  bool errors_tripped = false;
  for (const GateResult& gate : report.gates)
    if (gate.gate == "journal:errors") errors_tripped = gate.regressed;
  EXPECT_TRUE(errors_tripped) << report.ToText();
  EXPECT_EQ(report.ExitCode(), kExitRegression);

  // A raised threshold admits the same run.
  RegressOptions lax;
  lax.max_journal_errors = 2;
  const RegressReport relaxed = CheckRegression(ledger, lax);
  for (const GateResult& gate : relaxed.gates)
    if (gate.gate == "journal:errors") {
      EXPECT_FALSE(gate.regressed) << relaxed.ToText();
    }
}

TEST(RegressTest, CleanJournalPassesAndDropGateIsOptIn) {
  Ledger ledger;
  RunManifest dropped = MakeRun();
  dropped.journal.present = true;
  dropped.journal.emitted = 50;
  dropped.journal.dropped = 10;  // capacity signal, not an error
  ledger.Add(dropped);

  // Default: drops never gate (max_journal_dropped < 0).
  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  EXPECT_TRUE(report.checked);
  for (const GateResult& gate : report.gates) {
    EXPECT_NE(gate.gate, "journal:dropped") << report.ToText();
    if (gate.gate == "journal:errors") {
      EXPECT_FALSE(gate.regressed) << report.ToText();
    }
  }

  // Opting in makes the drop budget a gate.
  RegressOptions strict;
  strict.max_journal_dropped = 5;
  const RegressReport gated = CheckRegression(ledger, strict);
  bool dropped_tripped = false;
  for (const GateResult& gate : gated.gates)
    if (gate.gate == "journal:dropped") dropped_tripped = gate.regressed;
  EXPECT_TRUE(dropped_tripped) << gated.ToText();
}

TEST(RegressTest, ManifestsWithoutJournalSkipJournalGates) {
  Ledger ledger;
  for (int i = 0; i < 3; ++i) ledger.Add(MakeRun());
  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(report.checked);
  for (const GateResult& gate : report.gates)
    EXPECT_NE(gate.gate.rfind("journal:", 0), 0u) << gate.gate;
}

TEST(RegressTest, SummarizeJournalFileTalliesAndToleratesTornTail) {
  const std::string path =
      ::testing::TempDir() + "/regress_journal_summary.jsonl";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << R"({"ts_us":1,"tid":1,"seq":0,"sev":"info","event":"a"})" << "\n";
    out << R"({"ts_us":2,"tid":1,"seq":1,"sev":"warn","event":"b"})" << "\n";
    out << R"({"ts_us":3,"tid":1,"seq":2,"sev":"error","event":"c"})" << "\n";
    out << R"({"ts_us":4,"tid":1,"seq":3,"sev":"info","event":"d",)"
        << R"("dropped_since_last":7})" << "\n";
    out << R"({"ts_us":5,"tid":1,"seq":4,"sev":"in)";  // torn final line
  }
  const JournalSummary summary = SummarizeJournalFile(path);
  EXPECT_EQ(summary.events, 4u);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.warnings, 1u);
  EXPECT_EQ(summary.dropped, 7u);
  EXPECT_EQ(summary.unparseable, 1u);
  std::remove(path.c_str());

  // The summary drives the same gates as the manifest block.
  RegressReport report;
  RegressOptions options;
  AddJournalGates(summary, options, report);
  ASSERT_FALSE(report.gates.empty());
  bool errors_tripped = false;
  for (const GateResult& gate : report.gates)
    if (gate.gate == "journal:errors") errors_tripped = gate.regressed;
  EXPECT_TRUE(errors_tripped);
}

RunManifest MakeMemRun(uint64_t peak_rss_mb, uint64_t trace_bytes) {
  RunManifest m = MakeRun();
  m.mem.present = true;
  m.mem.peak_rss_bytes = peak_rss_mb << 20;
  m.mem.samples = 3;
  m.mem.logical = {{"trace", trace_bytes},
                   {"root", 4096},
                   {"cache", 1234}};
  return m;
}

TEST(RegressTest, PeakRssGateTripsOnInflatedMemory) {
  // Stable physical baseline, then a 10x blow-up: the mem:peak_rss gate
  // must trip (threshold = median + max(3*MAD, 2% median)).
  Ledger ledger;
  for (int i = 0; i < 3; ++i) ledger.Add(MakeMemRun(100, 1000));
  ledger.Add(MakeMemRun(1000, 1000));

  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(report.checked);
  bool rss_tripped = false;
  for (const GateResult& gate : report.gates)
    if (gate.gate == "mem:peak_rss") rss_tripped = gate.regressed;
  EXPECT_TRUE(rss_tripped) << report.ToText();
  EXPECT_EQ(report.ExitCode(), kExitRegression);
}

TEST(RegressTest, PeakRssWithinNoiseIsClean) {
  Ledger ledger;
  for (uint64_t mb : {100, 104, 98, 102}) ledger.Add(MakeMemRun(mb, 1000));
  ledger.Add(MakeMemRun(103, 1000));
  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(report.checked);
  for (const GateResult& gate : report.gates)
    if (gate.gate == "mem:peak_rss") {
      EXPECT_FALSE(gate.regressed) << report.ToText();
    }
}

TEST(RegressTest, LogicalMemCategoryGateTripsButEnvironmentalSkips) {
  Ledger ledger;
  for (int i = 0; i < 3; ++i) ledger.Add(MakeMemRun(100, 1000));
  RunManifest bloated = MakeMemRun(100, 5000);  // trace logical 5x up
  bloated.mem.logical["cache"] = 999999;        // environmental, never gated
  ledger.Add(bloated);

  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(report.checked);
  bool trace_tripped = false, root_seen = false;
  for (const GateResult& gate : report.gates) {
    if (gate.gate == "mem:trace") trace_tripped = gate.regressed;
    if (gate.gate == "mem:root") {
      root_seen = true;
      EXPECT_FALSE(gate.regressed) << report.ToText();
    }
    EXPECT_NE(gate.gate, "mem:cache") << "environmental category gated";
  }
  EXPECT_TRUE(trace_tripped) << report.ToText();
  EXPECT_TRUE(root_seen);
  EXPECT_EQ(report.ExitCode(), kExitRegression);
}

TEST(RegressTest, ManifestsWithoutMemSkipMemGates) {
  Ledger ledger;
  for (int i = 0; i < 3; ++i) ledger.Add(MakeRun());
  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(report.checked);
  for (const GateResult& gate : report.gates)
    EXPECT_NE(gate.gate.rfind("mem:", 0), 0u) << gate.gate;
}

TEST(RegressTest, BaselineIgnoresOtherFingerprintsAndCrashedRuns) {
  Ledger ledger;
  RunManifest other = MakeRun(100.0);
  other.config.workload = "lud";
  ledger.Add(other);
  RunManifest crashed = MakeRun(100.0);
  crashed.completed = false;
  ledger.Add(crashed);
  for (int i = 0; i < 2; ++i) ledger.Add(MakeRun(1.0));
  ledger.Add(MakeRun(1.0));

  const RegressReport report = CheckRegression(ledger, RegressOptions{});
  ASSERT_TRUE(report.checked);
  EXPECT_EQ(report.baseline_size, 2u);
  EXPECT_FALSE(report.HasRegression()) << report.ToText();
}

/// One well-formed journal line.
std::string JournalLine(uint64_t ts, uint64_t seq, const char* sev,
                        const char* event) {
  return "{\"ts_us\":" + std::to_string(ts) + ",\"tid\":1,\"seq\":" +
         std::to_string(seq) + ",\"sev\":\"" + sev + "\",\"event\":\"" +
         event + "\"}";
}

/// Write `lines` (newline-terminated) plus an optional unterminated tail,
/// then summarize the file through the one journal reader.
JournalSummary SummarizeLines(const std::vector<std::string>& lines,
                              const std::string& tail = "") {
  const std::string path = ::testing::TempDir() + "/regress_journal_check.jsonl";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
    out << tail;
  }
  JournalSummary summary = SummarizeJournalFile(path);
  std::remove(path.c_str());
  return summary;
}

std::vector<std::string> Check(const JournalSummary& summary) {
  return CheckJournal(summary, {"session.open"}, 0);
}

/// A clean three-event journal as the writer emits it.
std::vector<std::string> CleanJournal() {
  return {JournalLine(10, 0, "info", "server.start"),
          JournalLine(11, 1, "info", "session.open"),
          JournalLine(11, 2, "debug", "session.feed")};
}

TEST(JournalCheckTest, CleanJournalAndTornFinalLinePass) {
  const JournalSummary clean = SummarizeLines(CleanJournal());
  EXPECT_EQ(Check(clean), std::vector<std::string>{});
  EXPECT_EQ(clean.events, 3u);
  EXPECT_EQ(clean.event_names.count("session.open"), 1u);

  // A crash mid-append leaves a torn final line: tolerated, and reported
  // as the torn tail rather than as a mid-file unparseable line.
  const JournalSummary torn =
      SummarizeLines(CleanJournal(), R"({"ts_us":12,"tid":1,"se)");
  EXPECT_EQ(Check(torn), std::vector<std::string>{});
  EXPECT_EQ(torn.unparseable, 1u);
  EXPECT_EQ(torn.torn_tail, 1u);
}

TEST(JournalCheckTest, EachInvariantBreachFails) {
  const struct {
    std::vector<std::string> lines;
    const char* why;
  } cases[] = {
      {{JournalLine(10, 0, "info", "session.open"), "garbage",
        JournalLine(12, 1, "info", "x")},
       "unparseable"},
      {{JournalLine(10, 0, "info", "session.open"),
        JournalLine(11, 2, "info", "x")},
       "seq gap"},
      {{JournalLine(10, 0, "info", "session.open"),
        JournalLine(9, 1, "info", "x")},
       "ts_us went backwards"},
      {{JournalLine(10, 0, "info", "session.open"),
        R"({"ts_us":11,"seq":1,"sev":"info","event":"x"})"},
       "reserved key"},
      {{JournalLine(10, 0, "info", "session.open"),
        R"({"ts_us":-11,"tid":1,"seq":1,"sev":"info","event":"x"})"},
       "reserved key"},
      {{JournalLine(10, 0, "info", "session.open"),
        JournalLine(11, 1, "fatal", "x")},
       "unknown severity"},
      {{JournalLine(10, 0, "info", "server.start")}, "never emitted"},
      {{JournalLine(10, 0, "info", "session.open"),
        JournalLine(11, 1, "error", "x")},
       "error event(s), max allowed 0"},
  };
  for (const auto& c : cases) {
    const std::vector<std::string> failures = Check(SummarizeLines(c.lines));
    ASSERT_EQ(failures.size(), 1u) << c.why;
    EXPECT_NE(failures[0].find(c.why), std::string::npos) << failures[0];
  }
}

TEST(JournalCheckTest, ErrorBoundAndMidFileGarbageRules) {
  std::vector<std::string> lines = CleanJournal();
  lines.push_back(JournalLine(12, 3, "error", "request.failed"));
  lines.push_back(JournalLine(13, 4, "error", "request.failed"));
  const JournalSummary summary = SummarizeLines(lines);
  EXPECT_FALSE(CheckJournal(summary, {}, 1).empty());
  EXPECT_TRUE(CheckJournal(summary, {}, 2).empty());

  // Mid-file garbage counts as unparseable like a torn tail does (the
  // regress gate ignores both), but only the torn tail passes the check.
  lines.insert(lines.begin() + 1, "{\"ts_us\":");
  const JournalSummary garbled = SummarizeLines(lines);
  EXPECT_EQ(garbled.unparseable, 1u);
  EXPECT_EQ(garbled.torn_tail, 0u);
  EXPECT_FALSE(CheckJournal(garbled, {}, 2).empty());
}

}  // namespace
}  // namespace stemroot::eval
