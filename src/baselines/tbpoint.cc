#include "baselines/tbpoint.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "baselines/feature.h"
#include "common/telemetry.h"
#include "core/kmeans.h"
#include "profiler/metric_profiler.h"

namespace stemroot::baselines {

TbPointSampler::TbPointSampler(TbPointConfig config) : config_(config) {
  if (config_.merge_threshold <= 0.0)
    throw std::invalid_argument("TbPointSampler: merge_threshold <= 0");
  if (config_.max_clusters == 0 || config_.agglomeration_cap == 0)
    throw std::invalid_argument("TbPointSampler: zero cap");
}

namespace {

constexpr size_t kDim = profiler::PkaFeatures::kDim;

/// Average-linkage agglomeration via centroid merging (O(n^2 log n)
/// with a simple nearest-pair scan; n is capped by the caller).
struct Agglomerator {
  struct Cluster {
    std::vector<double> centroid;  // kDim
    std::vector<uint32_t> members;
    bool alive = true;
  };
  std::vector<Cluster> clusters;

  double CentroidDist(const Cluster& a, const Cluster& b) const {
    double sum = 0.0;
    for (size_t j = 0; j < kDim; ++j) {
      const double d = a.centroid[j] - b.centroid[j];
      sum += d * d;
    }
    return std::sqrt(sum);
  }

  void Merge(size_t into, size_t from) {
    Cluster& a = clusters[into];
    Cluster& b = clusters[from];
    const double na = static_cast<double>(a.members.size());
    const double nb = static_cast<double>(b.members.size());
    for (size_t j = 0; j < kDim; ++j)
      a.centroid[j] = (a.centroid[j] * na + b.centroid[j] * nb) / (na + nb);
    a.members.insert(a.members.end(), b.members.begin(), b.members.end());
    b.alive = false;
    b.members.clear();
  }
};

}  // namespace

std::unique_ptr<const core::Strata> TbPointSampler::Stratify(
    const KernelTrace& trace) const {
  // Fully deterministic: the whole plan is built here and Draw hands it
  // out.
  if (trace.Empty())
    throw std::invalid_argument("TbPointSampler: empty trace");
  const size_t n = trace.NumInvocations();

  // Feature matrix (the same microarchitecture-independent metrics as
  // PKA), z-normalized.
  std::vector<double> features(n * kDim);
  for (size_t i = 0; i < n; ++i) {
    const profiler::PkaFeatures f =
        profiler::MetricProfiler::Extract(trace, trace.At(i));
    for (size_t j = 0; j < kDim; ++j) features[i * kDim + j] = f.values[j];
  }
  ZNormalizeColumns(features, kDim);

  // Seed the agglomeration: one cluster per invocation when the trace is
  // small; otherwise pre-reduce with k-means so the O(n^2) stage stays
  // bounded (TBPoint targeted small GPGPU traces).
  Agglomerator agg;
  if (n <= config_.agglomeration_cap) {
    agg.clusters.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      agg.clusters[i].centroid.assign(
          features.begin() + static_cast<ptrdiff_t>(i * kDim),
          features.begin() + static_cast<ptrdiff_t>((i + 1) * kDim));
      agg.clusters[i].members = {i};
    }
  } else {
    const uint32_t k = static_cast<uint32_t>(
        std::min<size_t>(config_.agglomeration_cap, 256));
    const core::KmeansResult pre = core::KmeansNd(features, kDim, k);
    agg.clusters.resize(k);
    for (uint32_t c = 0; c < k; ++c)
      agg.clusters[c].centroid.assign(
          pre.centers.begin() + static_cast<ptrdiff_t>(c * kDim),
          pre.centers.begin() + static_cast<ptrdiff_t>((c + 1) * kDim));
    for (uint32_t i = 0; i < n; ++i)
      agg.clusters[pre.assignment[i]].members.push_back(i);
    std::erase_if(agg.clusters,
                  [](const auto& c) { return c.members.empty(); });
  }

  // RMS feature radius sets the merge scale.
  double rms = 0.0;
  for (double v : features) rms += v * v;
  rms = std::sqrt(rms / static_cast<double>(n));
  const double cutoff = config_.merge_threshold * rms * std::sqrt(kDim);

  // Greedy nearest-pair merging until the closest pair exceeds the cutoff
  // or the cluster budget is met.
  while (true) {
    size_t alive = 0;
    for (const auto& c : agg.clusters) alive += c.alive ? 1 : 0;
    double best = std::numeric_limits<double>::infinity();
    size_t best_a = 0, best_b = 0;
    for (size_t a = 0; a < agg.clusters.size(); ++a) {
      if (!agg.clusters[a].alive) continue;
      for (size_t b = a + 1; b < agg.clusters.size(); ++b) {
        if (!agg.clusters[b].alive) continue;
        const double d =
            agg.CentroidDist(agg.clusters[a], agg.clusters[b]);
        if (d < best) {
          best = d;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (!std::isfinite(best)) break;
    if (best > cutoff && alive <= config_.max_clusters) break;
    agg.Merge(best_a, best_b);
    if (alive - 1 <= 1) break;
  }

  // Representative: the member nearest the cluster centroid, weighted by
  // the cluster's size.
  auto strata = std::make_unique<core::FixedPlanStrata>();
  core::SamplingPlan& plan = strata->plan;
  plan.method = Name();
  for (const auto& cluster : agg.clusters) {
    if (!cluster.alive || cluster.members.empty()) continue;
    ++plan.num_clusters;
    uint32_t rep = cluster.members.front();
    double best = std::numeric_limits<double>::infinity();
    for (uint32_t idx : cluster.members) {
      double d = 0.0;
      for (size_t j = 0; j < kDim; ++j) {
        const double diff =
            features[idx * kDim + j] - cluster.centroid[j];
        d += diff * diff;
      }
      if (d < best) {
        best = d;
        rep = idx;
      }
    }
    plan.entries.push_back(
        {rep, static_cast<double>(cluster.members.size())});
  }
  return strata;
}

core::SamplingPlan TbPointSampler::Draw(const core::Strata& strata,
                                        uint64_t /*seed*/) const {
  const core::SamplingPlan& plan =
      core::StrataAs<core::FixedPlanStrata>(strata, "TbPointSampler").plan;
  telemetry::Count("baselines.tbpoint.plans");
  telemetry::Record("baselines.tbpoint.clusters_per_plan",
                    static_cast<double>(plan.num_clusters));
  return plan;
}

}  // namespace stemroot::baselines
