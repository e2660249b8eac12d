#include "core/sampler.h"

#include <stdexcept>

#include "common/parallel.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace_events.h"

namespace stemroot::core {

StemClustering BuildStemClusters(const KernelTrace& trace,
                                 const RootConfig& config) {
  if (trace.Empty())
    throw std::invalid_argument("BuildStemClusters: empty trace");

  // This is the "cluster" stage of the pipeline's telemetry.
  telemetry::Span cluster_span("cluster");
  const auto groups = trace.GroupByKernel();
  // Kernel groups are independent ROOT problems: they fan out over the
  // pool and land in kernel-id slots, so the merge below sees the exact
  // sequence the serial loop produced.
  std::vector<std::vector<RootCluster>> per_kernel =
      ParallelMap(groups.size(), [&](size_t kernel_id) {
        const auto& group = groups[kernel_id];
        if (group.empty()) return std::vector<RootCluster>{};
        std::vector<double> durations;
        durations.reserve(group.size());
        for (uint32_t idx : group) {
          const double d = trace.At(idx).duration_us;
          if (d <= 0.0)
            throw std::invalid_argument(
                "BuildStemClusters: trace has unprofiled (non-positive) "
                "durations");
          durations.push_back(d);
        }
        return RootCluster1D(durations, group, config);
      });

  StemClustering out;
  for (uint32_t kernel_id = 0; kernel_id < per_kernel.size(); ++kernel_id) {
    for (RootCluster& c : per_kernel[kernel_id]) {
      out.clusters.push_back(std::move(c));
      out.kernel_ids.push_back(kernel_id);
    }
  }
  trace_events::CounterValue("stem.clusters",
                             static_cast<double>(out.clusters.size()));
  if (resource::AccountingEnabled()) {
    // The clustering is a pure function of the trace, so this byte count
    // is deterministic and max() over concurrent calls is
    // schedule-invariant.
    uint64_t bytes = out.kernel_ids.size() * sizeof(uint32_t);
    for (const RootCluster& c : out.clusters)
      bytes += sizeof(RootCluster) + c.members.size() * sizeof(uint32_t);
    resource::AccountPeak("root", bytes);
  }
  return out;
}

StemRootSampler::StemRootSampler(StemRootConfig config)
    : config_(std::move(config)) {
  config_.root.Validate();
}

std::unique_ptr<const Strata> StemRootSampler::Stratify(
    const KernelTrace& trace) const {
  auto strata = std::make_unique<StemStrata>();
  strata->clustering = BuildStemClusters(trace, config_.root);

  // Step 3: joint sample sizing across every final cluster (Eq. 6).
  std::vector<ClusterStats> stats;
  stats.reserve(strata->clustering.clusters.size());
  for (const RootCluster& c : strata->clustering.clusters)
    stats.push_back(c.stats);
  strata->solution = SolveKkt(stats, config_.root.stem);
  return strata;
}

SamplingPlan StemRootSampler::Draw(const Strata& strata,
                                   uint64_t seed) const {
  const StemStrata& stem = StrataAs<StemStrata>(strata, "StemRootSampler");
  const std::vector<RootCluster>& clusters = stem.clustering.clusters;
  const KktSolution& solution = stem.solution;
  telemetry::Count("core.stem.plans");
  telemetry::Record("core.stem.clusters_per_plan",
                    static_cast<double>(clusters.size()));
  for (uint64_t m : solution.sample_sizes)
    telemetry::Record("core.stem.samples_per_cluster",
                      static_cast<double>(m));
  telemetry::Record("core.stem.theoretical_error",
                    solution.theoretical_error);

  // Step 4: random sampling with replacement inside each cluster.
  SamplingPlan plan;
  plan.method = Name();
  plan.num_clusters = clusters.size();
  plan.theoretical_error = solution.theoretical_error;
  Rng rng(DeriveSeed(seed, 0x57454D21ULL));
  for (size_t i = 0; i < clusters.size(); ++i) {
    const RootCluster& cluster = clusters[i];
    const uint64_t m = solution.sample_sizes[i];
    const uint64_t n = cluster.members.size();
    if (m == 0 || n == 0) continue;
    if (m >= n) {
      // Exhaustive cluster: simulate every member with weight 1.
      for (uint32_t idx : cluster.members)
        plan.entries.push_back({idx, 1.0});
      continue;
    }
    const double weight =
        static_cast<double>(n) / static_cast<double>(m);
    for (uint64_t draw = 0; draw < m; ++draw) {
      const uint32_t idx =
          cluster.members[rng.NextBounded(n)];
      plan.entries.push_back({idx, weight});
    }
  }
  return plan;
}

}  // namespace stemroot::core
