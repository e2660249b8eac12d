#include "baselines/pka.h"

#include <stdexcept>

#include "baselines/feature.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/kmeans.h"
#include "profiler/metric_profiler.h"

namespace stemroot::baselines {

PkaSampler::PkaSampler(PkaConfig config) : config_(config) {
  if (config_.max_k == 0)
    throw std::invalid_argument("PkaSampler: max_k == 0");
}

std::string PkaSampler::Name() const {
  return config_.random_representative ? "PKA(random-rep)" : "PKA";
}

namespace {

/// PKA's strata: the elbow-chosen k-means clusters (non-empty, in cluster
/// order); members are in timeline order.
struct PkaStrata final : core::Strata {
  std::vector<std::vector<uint32_t>> clusters;
};

}  // namespace

std::unique_ptr<const core::Strata> PkaSampler::Stratify(
    const KernelTrace& trace) const {
  if (trace.Empty()) throw std::invalid_argument("PkaSampler: empty trace");
  const size_t n = trace.NumInvocations();
  constexpr size_t kDim = profiler::PkaFeatures::kDim;

  // Feature matrix from the NCU-like profiler, z-normalized per metric.
  std::vector<double> matrix(n * kDim);
  for (size_t i = 0; i < n; ++i) {
    const profiler::PkaFeatures f =
        profiler::MetricProfiler::Extract(trace, trace.At(i));
    for (size_t j = 0; j < kDim; ++j) matrix[i * kDim + j] = f.values[j];
  }
  ZNormalizeColumns(matrix, kDim);

  // Sweep k = 1..max_k, stopping at the elbow.
  const uint32_t k_limit =
      static_cast<uint32_t>(std::min<size_t>(config_.max_k, n));
  std::vector<double> inertias;
  std::vector<core::KmeansResult> sweeps;
  for (uint32_t k = 1; k <= k_limit; ++k) {
    sweeps.push_back(core::KmeansNd(matrix, kDim, k));
    inertias.push_back(sweeps.back().inertia);
    // Early exit: once inertia flattens the elbow cannot move past here.
    if (k >= 2 && inertias[0] > 0.0 &&
        (inertias[k - 2] - inertias[k - 1]) / inertias[0] <
            config_.elbow_threshold)
      break;
  }
  const uint32_t k_best = ElbowK(inertias, config_.elbow_threshold);
  const core::KmeansResult& clustering = sweeps[k_best - 1];
  telemetry::Record("baselines.pka.chosen_k", static_cast<double>(k_best));

  auto strata = std::make_unique<PkaStrata>();
  strata->clusters.resize(k_best);
  for (size_t i = 0; i < n; ++i)
    strata->clusters[clustering.assignment[i]].push_back(
        static_cast<uint32_t>(i));
  std::erase_if(strata->clusters,
                [](const auto& members) { return members.empty(); });
  return strata;
}

core::SamplingPlan PkaSampler::Draw(const core::Strata& strata,
                                    uint64_t seed) const {
  const PkaStrata& pka = core::StrataAs<PkaStrata>(strata, "PkaSampler");
  telemetry::Count("baselines.pka.plans");

  // One representative per cluster, weighted by cluster size.
  core::SamplingPlan plan;
  plan.method = Name();
  plan.num_clusters = pka.clusters.size();
  Rng rng(DeriveSeed(seed, 0x504B41ULL));
  for (const auto& members : pka.clusters) {
    const uint32_t rep =
        config_.random_representative
            ? members[rng.NextBounded(members.size())]
            : members.front();  // first chronological
    plan.entries.push_back({rep, static_cast<double>(members.size())});
  }
  return plan;
}

}  // namespace stemroot::baselines
