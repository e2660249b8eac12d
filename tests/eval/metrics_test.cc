#include "eval/metrics.h"

#include <gtest/gtest.h>

#include "baselines/random_sampler.h"
#include "common/telemetry.h"
#include "core/sampler.h"
#include "hw/hardware_model.h"
#include "workloads/casio.h"

namespace stemroot::eval {
namespace {

KernelTrace SmallProfiledTrace() {
  KernelTrace trace = workloads::MakeCasio("bert_infer", 71, 0.02);
  hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  gpu.ProfileTrace(trace, 2);
  return trace;
}

TEST(EvaluatePlanTest, PerfectPlanHasZeroError) {
  const KernelTrace trace = SmallProfiledTrace();
  core::SamplingPlan plan;
  plan.method = "full";
  for (uint32_t i = 0; i < trace.NumInvocations(); ++i)
    plan.entries.push_back({i, 1.0});
  const EvalResult result = EvaluatePlan(trace, plan);
  EXPECT_NEAR(result.error_pct, 0.0, 1e-9);
  EXPECT_NEAR(result.speedup, 1.0, 1e-9);
  EXPECT_EQ(result.workload, "bert_infer");
}

TEST(EvaluatePlanTest, KnownBiasYieldsKnownError) {
  const KernelTrace trace = SmallProfiledTrace();
  core::SamplingPlan plan;
  plan.method = "biased";
  // Represent the whole workload with double weight: estimate = 2x truth.
  for (uint32_t i = 0; i < trace.NumInvocations(); ++i)
    plan.entries.push_back({i, 2.0});
  const EvalResult result = EvaluatePlan(trace, plan);
  EXPECT_NEAR(result.error_pct, 100.0, 1e-6);
}

TEST(EvaluatePlanTest, SpeedupIsFullOverSampled) {
  const KernelTrace trace = SmallProfiledTrace();
  core::SamplingPlan plan;
  plan.method = "one";
  plan.entries.push_back(
      {0, static_cast<double>(trace.NumInvocations())});
  const EvalResult result = EvaluatePlan(trace, plan);
  EXPECT_NEAR(result.speedup,
              trace.TotalDurationUs() / trace.At(0).duration_us, 1e-9);
}

TEST(EvaluatePlanOnDurationsTest, UsesExternalTimings) {
  core::SamplingPlan plan;
  plan.method = "m";
  plan.entries = {{0, 2.0}, {1, 2.0}};
  const std::vector<double> durations = {10.0, 10.0, 10.0, 10.0};
  const EvalResult result =
      EvaluatePlanOnDurations(plan, durations, "wl");
  EXPECT_NEAR(result.error_pct, 0.0, 1e-9);  // 2*10+2*10 == 40
  EXPECT_NEAR(result.speedup, 2.0, 1e-9);
  const std::vector<double> with_zero = {10.0, 0.0, 10.0, 10.0};
  EXPECT_THROW(EvaluatePlanOnDurations(plan, with_zero, "wl"),
               std::invalid_argument);
}

TEST(EvaluateRepeatedTest, AveragesAcrossSeeds) {
  const KernelTrace trace = SmallProfiledTrace();
  baselines::RandomSampler sampler(0.02);
  const EvalResult avg = EvaluateRepeated(sampler, trace, 5, 1);
  EXPECT_GT(avg.speedup, 1.0);
  EXPECT_GE(avg.error_pct, 0.0);
  EXPECT_THROW(EvaluateRepeated(sampler, trace, 0, 1),
               std::invalid_argument);
}

TEST(EvaluateRepeatedTest, DeterministicSamplersRunOnce) {
  // Smoke: a deterministic sampler must produce identical results for any
  // rep count (only one run happens).
  const KernelTrace trace = SmallProfiledTrace();
  class FixedSampler : public core::Sampler {
   public:
    std::string Name() const override { return "Fixed"; }
    bool Deterministic() const override { return true; }
    std::unique_ptr<const core::Strata> Stratify(
        const KernelTrace& t) const override {
      auto strata = std::make_unique<core::FixedPlanStrata>();
      strata->plan.method = Name();
      strata->plan.entries.push_back(
          {0, static_cast<double>(t.NumInvocations())});
      return strata;
    }
    core::SamplingPlan Draw(const core::Strata& strata,
                            uint64_t) const override {
      return core::StrataAs<core::FixedPlanStrata>(strata, "Fixed").plan;
    }
  } sampler;
  const EvalResult once = EvaluateRepeated(sampler, trace, 1, 1);
  const EvalResult many = EvaluateRepeated(sampler, trace, 10, 1);
  EXPECT_DOUBLE_EQ(once.error_pct, many.error_pct);
  EXPECT_DOUBLE_EQ(once.speedup, many.speedup);
}

// Stratification depends only on the trace: ten reps cost one plan's worth
// of ROOT clustering, not ten.
TEST(EvaluateRepeatedTest, StratifiesOncePerTrace) {
  const KernelTrace trace = SmallProfiledTrace();
  const core::StemRootSampler stem;
  const auto kmeans_runs = [](const auto& fn) {
    telemetry::SetEnabled(true);
    telemetry::Reset();
    fn();
    const uint64_t runs = telemetry::Capture().Counter("core.kmeans.runs");
    telemetry::Reset();
    telemetry::SetEnabled(false);
    return runs;
  };
  const uint64_t one_plan =
      kmeans_runs([&] { (void)stem.BuildPlan(trace, 1); });
  const uint64_t ten_reps =
      kmeans_runs([&] { (void)EvaluateRepeated(stem, trace, 10, 1); });
  EXPECT_GT(one_plan, 0u);
  EXPECT_EQ(ten_reps, one_plan);
}

TEST(AggregateSuiteTest, PaperAveragingConventions) {
  std::vector<EvalResult> rows(3);
  rows[0].method = "STEM";
  rows[0].speedup = 10.0;
  rows[0].error_pct = 1.0;
  rows[1].method = "STEM";
  rows[1].speedup = 1000.0;
  rows[1].error_pct = 3.0;
  rows[2].method = "Other";
  rows[2].speedup = 5.0;
  rows[2].error_pct = 50.0;

  const EvalResult agg = AggregateSuite(rows, "STEM");
  // Harmonic mean of {10, 1000} = 2/(0.1 + 0.001) ~ 19.8 (not 505).
  EXPECT_NEAR(agg.speedup, 2.0 / (0.1 + 0.001), 1e-9);
  EXPECT_NEAR(agg.error_pct, 2.0, 1e-12);  // arithmetic mean
  EXPECT_THROW(AggregateSuite(rows, "Missing"), std::invalid_argument);
}

}  // namespace
}  // namespace stemroot::eval
