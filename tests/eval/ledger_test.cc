#include "eval/ledger.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace stemroot::eval {
namespace {

RunManifest MakeRun(double wall_seconds, uint64_t seed = 42,
                    bool completed = true) {
  RunManifest m;
  m.tool = "stemroot";
  m.command = "run";
  m.completed = completed;
  m.config.suite = "rodinia";
  m.config.workload = "hotspot";
  m.config.method = "stem";
  m.config.seed = seed;
  m.config.threads = 1;
  m.wall_time_seconds = wall_seconds;
  return m;
}

std::string TempLedger(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(LedgerTest, AppendAndLoadRoundTrip) {
  const std::string path = TempLedger("ledger_roundtrip.jsonl");
  Ledger::Append(MakeRun(1.0), path);
  Ledger::Append(MakeRun(2.0), path);
  Ledger::Append(MakeRun(3.0), path);

  const Ledger ledger = Ledger::Load(path);
  EXPECT_EQ(ledger.num_skipped(), 0u);
  ASSERT_EQ(ledger.Entries().size(), 3u);
  // Append order is chronological order.
  EXPECT_DOUBLE_EQ(ledger.Entries()[0].wall_time_seconds, 1.0);
  EXPECT_DOUBLE_EQ(ledger.Entries()[2].wall_time_seconds, 3.0);
  std::remove(path.c_str());
}

TEST(LedgerTest, LoadSkipsTornTailAndJunkLines) {
  const std::string path = TempLedger("ledger_torn.jsonl");
  Ledger::Append(MakeRun(1.0), path);
  Ledger::Append(MakeRun(2.0), path);
  {
    // A crash mid-append leaves a torn final line; earlier corruption
    // (editor accident, merge marker) must not take the ledger down either.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"schema\":\"stemroot-manifest-v1\",\"tool\":\"trunc";
  }
  const Ledger ledger = Ledger::Load(path);
  EXPECT_EQ(ledger.Entries().size(), 2u);
  EXPECT_EQ(ledger.num_skipped(), 1u);
  std::remove(path.c_str());
}

TEST(LedgerTest, AppendToUnwritablePathThrows) {
  // A regular file where a directory is needed blocks the open for any
  // user (chmod-based unwritability is a no-op under root). A dropped
  // append must surface as an error, never silently succeed.
  const std::string blocker = TempLedger("ledger_blocker");
  { std::ofstream(blocker) << "not a directory"; }
  try {
    Ledger::Append(MakeRun(1.0), blocker + "/ledger.jsonl");
    FAIL() << "append into a non-directory should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos)
        << e.what();
  }
  std::remove(blocker.c_str());
}

TEST(LedgerTest, LoadThrowsOnMissingFile) {
  EXPECT_THROW(Ledger::Load(::testing::TempDir() + "/no_such_ledger.jsonl"),
               std::runtime_error);
}

TEST(LedgerTest, AppendCreatesParentDirectories) {
  const std::string dir = ::testing::TempDir() + "/ledger_subdir_test";
  const std::string path = dir + "/nested/ledger.jsonl";
  Ledger::Append(MakeRun(1.0), path);
  EXPECT_EQ(Ledger::Load(path).Entries().size(), 1u);
  std::remove(path.c_str());
}

TEST(LedgerTest, FilterKeepsFileOrder) {
  Ledger ledger;
  ledger.Add(MakeRun(1.0, 42));
  ledger.Add(MakeRun(2.0, 7));
  ledger.Add(MakeRun(3.0, 42));
  const auto hits = ledger.Filter(
      [](const RunManifest& m) { return m.config.seed == 42; });
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[0]->wall_time_seconds, 1.0);
  EXPECT_DOUBLE_EQ(hits[1]->wall_time_seconds, 3.0);
}

TEST(LedgerTest, BaselineMatchesFingerprintWindowAndCompleteness) {
  Ledger ledger;
  ledger.Add(MakeRun(1.0));
  ledger.Add(MakeRun(2.0, /*seed=*/7));            // different fingerprint
  ledger.Add(MakeRun(3.0));
  ledger.Add(MakeRun(4.0, 42, /*completed=*/false));  // crashed run
  ledger.Add(MakeRun(5.0));
  ledger.Add(MakeRun(6.0));  // the "newest" run under test

  const RunManifest reference = MakeRun(0.0);
  // Baseline of the newest entry: same fingerprint, completed only,
  // entries strictly before it, newest last.
  const size_t newest = ledger.Entries().size() - 1;
  auto base = ledger.Baseline(reference, newest, /*window=*/0);
  ASSERT_EQ(base.size(), 3u);
  EXPECT_DOUBLE_EQ(base[0]->wall_time_seconds, 1.0);
  EXPECT_DOUBLE_EQ(base[1]->wall_time_seconds, 3.0);
  EXPECT_DOUBLE_EQ(base[2]->wall_time_seconds, 5.0);

  // A window keeps only the most recent entries.
  base = ledger.Baseline(reference, newest, /*window=*/2);
  ASSERT_EQ(base.size(), 2u);
  EXPECT_DOUBLE_EQ(base[0]->wall_time_seconds, 3.0);
  EXPECT_DOUBLE_EQ(base[1]->wall_time_seconds, 5.0);

  // before == Entries().size() includes the final entry too.
  base = ledger.Baseline(reference, ledger.Entries().size(), /*window=*/0);
  ASSERT_EQ(base.size(), 4u);
  EXPECT_DOUBLE_EQ(base.back()->wall_time_seconds, 6.0);
}

TEST(LedgerTest, BenchArgsSplitBaselines) {
  // Two google-benchmark filters of one bench binary are two series: a
  // change's entry finds only its own filter's earlier runs.
  const auto bench_run = [](double wall, const char* args) {
    RunManifest m = MakeRun(wall);
    m.tool = "perf_scalability";
    m.command = "bench";
    m.config.bench_args = args;
    return m;
  };
  const std::string path = TempLedger("bench_args.jsonl");
  Ledger::Append(bench_run(40.0, ""), path);  // whole-binary run
  Ledger::Append(bench_run(1.0, "--benchmark_filter=BM_SimulateKernel"),
                 path);
  Ledger::Append(bench_run(0.9, "--benchmark_filter=BM_DseSweepThreads/4"),
                 path);
  Ledger::Append(bench_run(1.1, "--benchmark_filter=BM_SimulateKernel"),
                 path);
  const Ledger ledger = Ledger::Load(path);
  ASSERT_EQ(ledger.Entries().size(), 4u);
  const size_t newest = ledger.Entries().size() - 1;
  const auto base =
      ledger.Baseline(ledger.Entries()[newest], newest, /*window=*/0);
  ASSERT_EQ(base.size(), 1u);
  EXPECT_DOUBLE_EQ(base[0]->wall_time_seconds, 1.0);
  EXPECT_EQ(base[0]->config.bench_args,
            "--benchmark_filter=BM_SimulateKernel");
}

}  // namespace
}  // namespace stemroot::eval
