#include "baselines/photon.h"

#include <cmath>
#include <stdexcept>

#include "common/telemetry.h"
#include "profiler/bbv_collector.h"

namespace stemroot::baselines {

namespace {
thread_local uint64_t g_comparisons = 0;
}  // namespace

PhotonSampler::PhotonSampler(PhotonConfig config) : config_(config) {
  if (!(config_.similarity_threshold > 0.0 &&
        config_.similarity_threshold <= 1.0))
    throw std::invalid_argument("PhotonSampler: bad similarity threshold");
  if (config_.warp_tolerance < 0.0)
    throw std::invalid_argument("PhotonSampler: bad warp tolerance");
}

uint64_t PhotonSampler::LastComparisonCount() { return g_comparisons; }

std::unique_ptr<const core::Strata> PhotonSampler::Stratify(
    const KernelTrace& trace) const {
  // Fully deterministic (online first-occurrence analysis): the whole
  // plan is built here and Draw hands it out.
  if (trace.Empty())
    throw std::invalid_argument("PhotonSampler: empty trace");
  g_comparisons = 0;

  struct Representative {
    uint32_t invocation;
    uint32_t kernel_id;
    double warps;
    profiler::Bbv bbv;
    uint64_t represented = 1;
  };
  std::vector<Representative> reps;

  const double max_distance = 2.0 * (1.0 - config_.similarity_threshold);
  for (uint32_t i = 0; i < trace.NumInvocations(); ++i) {
    const KernelInvocation& inv = trace.At(i);
    const profiler::Bbv bbv = profiler::BbvCollector::Extract(trace, inv);
    const double warps = static_cast<double>(inv.launch.TotalWarps());

    bool matched = false;
    for (Representative& rep : reps) {
      if (rep.kernel_id != inv.kernel_id) continue;
      ++g_comparisons;
      if (std::abs(warps - rep.warps) >
          config_.warp_tolerance * std::max(1.0, rep.warps))
        continue;
      if (profiler::BbvCollector::NormalizedDistance(bbv, rep.bbv) <=
          max_distance) {
        ++rep.represented;
        matched = true;
        break;
      }
    }
    if (!matched) reps.push_back({i, inv.kernel_id, warps, bbv, 1});
  }

  auto strata = std::make_unique<core::FixedPlanStrata>();
  core::SamplingPlan& plan = strata->plan;
  plan.method = Name();
  plan.num_clusters = reps.size();
  plan.entries.reserve(reps.size());
  for (const Representative& rep : reps)
    plan.entries.push_back(
        {rep.invocation, static_cast<double>(rep.represented)});
  telemetry::Count("baselines.photon.comparisons", g_comparisons);
  return strata;
}

core::SamplingPlan PhotonSampler::Draw(const core::Strata& strata,
                                       uint64_t /*seed*/) const {
  const core::SamplingPlan& plan =
      core::StrataAs<core::FixedPlanStrata>(strata, "PhotonSampler").plan;
  telemetry::Count("baselines.photon.plans");
  telemetry::Record("baselines.photon.reps_per_plan",
                    static_cast<double>(plan.num_clusters));
  return plan;
}

}  // namespace stemroot::baselines
