/// \file
/// Streaming ROOT — incremental hierarchical clustering of one kernel's
/// execution-time population (the online counterpart of root.h).
///
/// Batch ROOT sees the whole population and recursively splits it; a
/// resident sampling session (service/service.h) sees invocations one
/// Feed() chunk at a time and must keep a useful cluster structure at all
/// times. StreamingRoot maintains that structure with mini-batch k-means
/// discipline:
///
///   - **Assign**: each new duration joins the cluster with the nearest
///     center (the running mean) and updates its Welford accumulator.
///   - **Split**: every `reassess_interval` observations, each cluster is
///     re-examined with the batch ROOT acceptance rule (Eq. 7 vs Eq. 8):
///     k-means with k = 2 partitions the cluster's *reservoir* (a bounded,
///     deterministic uniform sample of its members) and the split is taken
///     iff the KKT-sized children predict a cheaper sampled simulation
///     than the Eq. 3-sized parent.
///   - **Merge**: after splits, adjacent clusters (by center) are merged
///     back when the same cost rule says the separation no longer pays --
///     the guard against over-splitting on early, noisy data.
///
/// Every decision is a pure function of the observation order and the
/// seed (reservoir replacement uses a per-cluster Rng derived from the
/// seed and a monotone cluster uid), so a session that feeds the same
/// data in the same chunks reproduces the same structure at any thread
/// count -- StreamingRoot itself is single-owner and unsynchronized; the
/// owning session serializes access.
///
/// The streaming structure is *advisory*: it powers the cheap per-Query
/// error bound and the early-stop decision. Plan materialization always
/// re-runs the canonical batch sampler over the accumulated trace, which
/// is what pins the replay-equivalence contract (DESIGN.md section 13).
///
/// **Reassessment cost.** The k = 2 partition and the two sides' sample
/// mean and stddev are a pure function of the reservoir's contents, so
/// each cluster memoizes them as its split candidate. Only a reservoir
/// write (an append, or an Algorithm R replacement) drops the memo; split
/// children and merge unions start without one. A pass therefore runs
/// k-means only on clusters whose reservoir changed since their last run
/// -- once a reservoir is saturated, most observations write nothing --
/// and re-evaluates just the parent-dependent part of the rule (the
/// `n_low` scaling, Eq. 3 and the KKT solve) for the rest. The memo holds
/// exactly the values a fresh run would compute (same k-means call, the
/// side statistics summed in reservoir order as ClusterStats::Of does),
/// and an accepted split builds its children from the kept assignment,
/// so every decision and statistic is bit-identical to re-running
/// k-means on every pass (DESIGN.md section 16).

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/root.h"
#include "trace/kernel.h"
#include "trace/trace.h"

namespace stemroot::core {

/// Knobs of the incremental clusterer, on top of the batch RootConfig
/// (whose stem member supplies epsilon/confidence for the cost rule).
struct StreamingRootConfig {
  RootConfig root;
  /// Per-cluster reservoir capacity: the bounded uniform sample that
  /// split decisions run k-means over.
  uint32_t reservoir_capacity = 256;
  /// Do not consider splitting a cluster before its reservoir holds this
  /// many observations (split decisions on a handful of points are noise).
  uint64_t min_split_observations = 64;
  /// Observations between split/merge reassessment passes (per kernel).
  uint64_t reassess_interval = 64;
  /// Hard cap on clusters per kernel (guards adversarial streams).
  uint32_t max_clusters = 64;

  void Validate() const;  ///< throws std::invalid_argument
};

/// Online clusterer for one kernel's execution-time population.
class StreamingRoot {
 public:
  /// `seed` scopes the deterministic reservoir sampling; use
  /// DeriveSeed(session_seed, kernel_id) so kernels get independent
  /// streams.
  StreamingRoot(const StreamingRootConfig& config, uint64_t seed);

  /// Fold one profiled invocation duration (microseconds, > 0) into the
  /// structure. Triggers a split/merge reassessment every
  /// `reassess_interval` observations.
  void Observe(double duration_us);

  uint64_t Observations() const { return observations_; }
  size_t NumClusters() const { return clusters_.size(); }

  /// Current population statistics of every cluster, ordered by center
  /// (ascending mean). The `n` fields sum to Observations().
  std::vector<ClusterStats> Stats() const;

  /// Lifetime structural-event counts (telemetry fodder for the service).
  uint64_t NumSplits() const { return splits_; }
  uint64_t NumMerges() const { return merges_; }

 private:
  /// A reservoir's k = 2 partition and the reservoir-sample stats of its
  /// two sides ("low" is the side with the smaller k-means center).
  struct SplitCandidate {
    std::vector<uint32_t> assignment;  ///< Kmeans1D labels, reservoir order
    uint32_t low_label = 0;
    ClusterStats low;   ///< ClusterStats::Of(low side's values)
    ClusterStats high;  ///< ClusterStats::Of(high side's values)

    static SplitCandidate Of(std::span<const double> reservoir);
  };

  struct Cluster {
    StreamingStats stats;           ///< Welford accumulator (population)
    std::vector<double> reservoir;  ///< bounded uniform member sample
    uint64_t reservoir_seen = 0;    ///< observations offered to the reservoir
    Rng rng;                        ///< reservoir replacement stream
    /// Memo of SplitCandidate::Of(reservoir); reset by every reservoir
    /// write.
    std::optional<SplitCandidate> candidate;

    Cluster() : rng(0) {}
    double Center() const { return stats.Mean(); }
    ClusterStats PopulationStats() const;
  };

  Cluster MakeCluster();
  void ObserveInto(Cluster& cluster, double duration_us);
  void Reassess();
  bool TrySplit(size_t index);   ///< true when the cluster was split
  void TryMerges();

  StreamingRootConfig config_;
  uint64_t seed_ = 0;
  uint64_t next_cluster_uid_ = 0;
  uint64_t observations_ = 0;
  uint64_t since_reassess_ = 0;
  uint64_t splits_ = 0;
  uint64_t merges_ = 0;
  std::vector<Cluster> clusters_;  ///< kept sorted by center
};

/// Whole-trace streaming ROOT: one StreamingRoot per kernel type, fed
/// chunk by chunk (trace/chunked.h). This is the clustering stage of the
/// out-of-core pipeline -- it never needs more of the timeline resident
/// than the chunk currently being folded, so a billion-invocation trace
/// clusters in bounded memory.
///
/// Per-kernel seeds derive as DeriveSeed(seed, kernel_id), identical to
/// feeding each kernel's durations to a standalone StreamingRoot, so the
/// structure is a pure function of (header, chunk contents in order,
/// seed) -- invariant to chunk size and to whether the chunks came from
/// memory, a file, or a replicated synthetic source.
class StreamingTraceClusterer {
 public:
  /// `header` supplies the kernel-type table (a HeaderClone() is fine);
  /// one StreamingRoot is created per type.
  StreamingTraceClusterer(const StreamingRootConfig& config,
                          const KernelTrace& header, uint64_t seed);

  /// Fold one chunk of invocations (timeline order across calls).
  /// Invocations with non-positive durations are skipped, matching the
  /// service-session feed contract. Throws std::out_of_range on a
  /// kernel_id outside the header table.
  void ObserveChunk(std::span<const KernelInvocation> chunk);

  size_t NumKernels() const { return roots_.size(); }
  const StreamingRoot& Root(size_t kernel_id) const {
    return roots_.at(kernel_id);
  }

  /// Invocations folded (positive-duration only).
  uint64_t Observations() const { return observations_; }
  /// Current cluster count summed over kernels.
  size_t TotalClusters() const;
  /// Lifetime split/merge totals summed over kernels.
  uint64_t TotalSplits() const;
  uint64_t TotalMerges() const;

  /// Concatenated per-kernel cluster stats in kernel-id order (each
  /// kernel's clusters ordered by center), the flat form eval::StreamTrace
  /// reports.
  std::vector<ClusterStats> AllStats() const;

 private:
  std::vector<StreamingRoot> roots_;  ///< index == kernel_id
  uint64_t observations_ = 0;
};

}  // namespace stemroot::core
