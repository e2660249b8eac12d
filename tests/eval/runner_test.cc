#include "eval/runner.h"

#include <gtest/gtest.h>

#include "baselines/random_sampler.h"
#include "core/sampler.h"
#include "common/csv.h"
#include "eval/pipeline.h"
#include "eval/report.h"

namespace stemroot::eval {
namespace {

TEST(RunnerTest, RunsSelectedWorkloadsForAllSamplers) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  baselines::RandomSampler random(0.01);
  core::StemRootSampler stem;
  const core::Sampler* samplers[] = {&random, &stem};

  SuiteRunConfig config;
  config.suite = workloads::SuiteId::kCasio;
  config.size_scale = 0.01;
  config.reps = 2;
  config.only_workloads = {"bert_infer", "dlrm_infer"};

  const SuiteResults results = RunSuite(config, gpu, samplers);
  EXPECT_EQ(results.rows.size(), 4u);  // 2 workloads x 2 samplers
  EXPECT_EQ(results.Methods().size(), 2u);
  EXPECT_EQ(results.ForWorkload("bert_infer").size(), 2u);
  EXPECT_NO_THROW(results.Aggregate("STEM"));
}

TEST(RunnerTest, StemBeatsRandomOnErrors) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  baselines::RandomSampler random(0.001);
  core::StemRootSampler stem;
  const core::Sampler* samplers[] = {&random, &stem};

  SuiteRunConfig config;
  config.suite = workloads::SuiteId::kCasio;
  config.size_scale = 0.05;
  config.reps = 3;
  config.only_workloads = {"bert_infer"};

  const SuiteResults results = RunSuite(config, gpu, samplers);
  const EvalResult random_agg = results.Aggregate(random.Name());
  const EvalResult stem_agg = results.Aggregate("STEM");
  EXPECT_LT(stem_agg.error_pct, random_agg.error_pct);
}

TEST(RunnerTest, SeedChangesWorkloadRealization) {
  const hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  const auto profiled = [&](uint64_t seed) {
    return Pipeline::GenerateProfiled(workloads::SuiteId::kRodinia, "lud",
                                      gpu, {.seed = seed, .size_scale = 0.1});
  };
  EXPECT_NE(profiled(3).Trace().TotalDurationUs(),
            profiled(4).Trace().TotalDurationUs());
}

TEST(SuiteResultsIndexTest, ThousandRowResultSet) {
  // Regression for the quadratic Methods()/ForWorkload() scans: a DSE-sized
  // result set (1000 rows = 100 workloads x 10 methods) must index
  // correctly -- first-seen method order, insertion-ordered workload rows,
  // and aggregates that match the unindexed AggregateSuite path.
  SuiteResults results;
  for (int w = 0; w < 100; ++w) {
    for (int m = 0; m < 10; ++m) {
      EvalResult row;
      row.method = "method_" + std::to_string(m);
      row.workload = "workload_" + std::to_string(w);
      row.speedup = 1.0 + m + 0.01 * w;
      row.error_pct = 0.1 * (m + 1);
      row.num_samples = static_cast<size_t>(10 + m);
      results.Add(row);
    }
  }
  ASSERT_EQ(results.rows.size(), 1000u);

  const std::vector<std::string> methods = results.Methods();
  ASSERT_EQ(methods.size(), 10u);
  for (int m = 0; m < 10; ++m)  // first-seen order, not lexicographic
    EXPECT_EQ(methods[static_cast<size_t>(m)],
              "method_" + std::to_string(m));

  for (int w : {0, 42, 99}) {
    const auto rows = results.ForWorkload("workload_" + std::to_string(w));
    ASSERT_EQ(rows.size(), 10u);
    for (int m = 0; m < 10; ++m)
      EXPECT_EQ(rows[static_cast<size_t>(m)].method,
                "method_" + std::to_string(m));
  }
  EXPECT_TRUE(results.ForWorkload("no_such_workload").empty());

  const EvalResult indexed = results.Aggregate("method_7");
  const EvalResult scanned = AggregateSuite(results.rows, "method_7");
  EXPECT_EQ(indexed.speedup, scanned.speedup);
  EXPECT_EQ(indexed.error_pct, scanned.error_pct);
  EXPECT_EQ(indexed.num_samples, scanned.num_samples);
  EXPECT_THROW(results.Aggregate("no_such_method"), std::invalid_argument);
}

TEST(SuiteResultsIndexTest, IndexCatchesUpAfterAppend) {
  SuiteResults results;
  EvalResult row;
  row.method = "A";
  row.workload = "w1";
  row.speedup = 2.0;
  row.error_pct = 1.0;
  results.Add(row);
  EXPECT_EQ(results.Methods(), std::vector<std::string>{"A"});

  // Append directly to the public vector after a query: the lazy index
  // must pick the new rows up on the next query.
  row.method = "B";
  row.workload = "w2";
  results.rows.push_back(row);
  EXPECT_EQ(results.Methods(), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(results.ForWorkload("w2").size(), 1u);

  // Shrinking forces a full rebuild.
  results.rows.pop_back();
  EXPECT_EQ(results.Methods(), std::vector<std::string>{"A"});
  EXPECT_TRUE(results.ForWorkload("w2").empty());
}

TEST(ReportTest, TablesContainAllMethodsAndWorkloads) {
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  baselines::RandomSampler random(0.01);
  const core::Sampler* samplers[] = {&random};
  SuiteRunConfig config;
  config.suite = workloads::SuiteId::kCasio;
  config.size_scale = 0.01;
  config.reps = 1;
  config.only_workloads = {"bert_infer"};
  const SuiteResults results = RunSuite(config, gpu, samplers);

  const std::string table = FormatSuiteTable(results, "title");
  EXPECT_NE(table.find("title"), std::string::npos);
  EXPECT_NE(table.find("bert_infer"), std::string::npos);
  EXPECT_NE(table.find("Random"), std::string::npos);

  const std::string averages = FormatSuiteAverages(results, "avg");
  EXPECT_NE(averages.find("Random"), std::string::npos);

  const std::string csv_path = testing::TempDir() + "/runner_report.csv";
  WriteResultsCsv(results, csv_path);
  EXPECT_NO_THROW(stemroot::CsvTable::ReadFile(csv_path));
}

}  // namespace
}  // namespace stemroot::eval
