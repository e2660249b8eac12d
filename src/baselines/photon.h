/// \file
/// Photon — fine-grained sampled simulation for GPU workloads (Liu, Sun,
/// Carlson, MICRO '23), reimplemented at kernel granularity per the
/// paper's Table 1 / Sec. 7.2 summary:
///
///  - signature: GPU Basic Block Vector (BBV) plus warp count;
///  - online analysis over the launch timeline: each new invocation is
///    compared against the representatives kept so far; if one matches
///    (BBV similarity above a 95% threshold and warp count within
///    tolerance), the invocation is skipped and the representative's
///    weight grows; otherwise the invocation becomes a new representative;
///  - the comparison cost is what makes Photon O(N*S*d)..O(N^2*d)
///    (Sec. 5.6): every invocation scans the representative list.

#pragma once

#include "core/sampler.h"

namespace stemroot::baselines {

/// Photon knobs.
struct PhotonConfig {
  /// Similarity threshold (paper: 95%). Similarity = 1 - d/2 where d is
  /// the normalized Manhattan distance between BBVs.
  double similarity_threshold = 0.95;
  /// Relative warp-count tolerance for a match.
  double warp_tolerance = 0.10;
};

/// Photon sampler.
class PhotonSampler : public core::Sampler {
 public:
  explicit PhotonSampler(PhotonConfig config = {});

  std::string Name() const override { return "Photon"; }
  bool Deterministic() const override { return true; }
  std::unique_ptr<const core::Strata> Stratify(
      const KernelTrace& trace) const override;
  core::SamplingPlan Draw(const core::Strata& strata,
                          uint64_t seed) const override;

  /// Number of representative comparisons performed by the last
  /// Stratify on this thread -- exposes the quadratic cost for the
  /// scalability bench.
  static uint64_t LastComparisonCount();

 private:
  PhotonConfig config_;
};

}  // namespace stemroot::baselines
