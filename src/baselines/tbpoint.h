/// \file
/// TBPoint (Huang et al., IPDPS '14) — the precursor of PKA, per the
/// paper's Sec. 7.2: "uses microarchitecture-independent metrics obtained
/// from profiling to apply hierarchical clustering, grouping similar
/// kernels, and then sampling the kernel closest to the center of each
/// group."
///
/// Differences from our PkaSampler: agglomerative (bottom-up) hierarchical
/// clustering with a distance cutoff instead of a k-means sweep, and the
/// *centroid-nearest* member as representative instead of the first
/// chronological one. The paper's evaluation tables omit TBPoint (PKA
/// subsumes it); we provide it for completeness.

#pragma once

#include "core/sampler.h"

namespace stemroot::baselines {

/// TBPoint knobs.
struct TbPointConfig {
  /// Merge clusters while the closest pair is nearer than this fraction
  /// of the data's RMS feature radius.
  double merge_threshold = 0.15;
  /// Cap on the number of clusters kept (safety for huge traces).
  size_t max_clusters = 64;
  /// Invocation cap for the O(n^2) agglomeration; larger traces are
  /// pre-reduced with k-means (mirrors TBPoint's small-trace heritage).
  size_t agglomeration_cap = 1024;
};

/// TBPoint sampler.
class TbPointSampler : public core::Sampler {
 public:
  explicit TbPointSampler(TbPointConfig config = {});

  std::string Name() const override { return "TBPoint"; }
  bool Deterministic() const override { return true; }
  std::unique_ptr<const core::Strata> Stratify(
      const KernelTrace& trace) const override;
  core::SamplingPlan Draw(const core::Strata& strata,
                          uint64_t seed) const override;

 private:
  TbPointConfig config_;
};

}  // namespace stemroot::baselines
