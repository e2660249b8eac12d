#include "core/streaming_root.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/kkt.h"
#include "core/kmeans.h"

namespace stemroot::core {

void StreamingRootConfig::Validate() const {
  root.Validate();
  if (reservoir_capacity < 8)
    throw std::invalid_argument(
        "StreamingRootConfig: reservoir_capacity must be >= 8");
  if (min_split_observations < 2)
    throw std::invalid_argument(
        "StreamingRootConfig: min_split_observations must be >= 2");
  if (reassess_interval == 0)
    throw std::invalid_argument(
        "StreamingRootConfig: reassess_interval must be >= 1");
  if (max_clusters == 0)
    throw std::invalid_argument(
        "StreamingRootConfig: max_clusters must be >= 1");
}

ClusterStats StreamingRoot::Cluster::PopulationStats() const {
  ClusterStats out;
  out.n = stats.Count();
  out.mean = stats.Mean();
  out.stddev = stats.Stddev();
  return out;
}

StreamingRoot::StreamingRoot(const StreamingRootConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  config_.Validate();
}

StreamingRoot::Cluster StreamingRoot::MakeCluster() {
  Cluster cluster;
  // Monotone uids keep reservoir streams unique across splits/merges: a
  // cluster born later (even at the same center) draws differently.
  cluster.rng = Rng(DeriveSeed(seed_, next_cluster_uid_++));
  return cluster;
}

void StreamingRoot::ObserveInto(Cluster& cluster, double duration_us) {
  cluster.stats.Add(duration_us);
  ++cluster.reservoir_seen;
  if (cluster.reservoir.size() < config_.reservoir_capacity) {
    cluster.reservoir.push_back(duration_us);
    cluster.candidate.reset();
  } else {
    // Algorithm R: replace a random slot with probability cap/seen, so the
    // reservoir stays a uniform sample of everything this cluster saw.
    const uint64_t j = cluster.rng.NextBounded(cluster.reservoir_seen);
    if (j < cluster.reservoir.size()) {
      cluster.reservoir[static_cast<size_t>(j)] = duration_us;
      cluster.candidate.reset();
    }
  }
}

void StreamingRoot::Observe(double duration_us) {
  if (!(duration_us > 0.0))
    throw std::invalid_argument(
        "StreamingRoot::Observe: duration must be positive (profiled)");
  ++observations_;
  if (clusters_.empty()) {
    clusters_.push_back(MakeCluster());
    ObserveInto(clusters_.front(), duration_us);
    return;
  }
  // Nearest center by running mean. Clusters are kept sorted by center, so
  // a binary search would do; populations hold a handful of clusters and
  // the linear scan is branch-predictable.
  size_t best = 0;
  double best_distance = std::abs(duration_us - clusters_[0].Center());
  for (size_t i = 1; i < clusters_.size(); ++i) {
    const double distance = std::abs(duration_us - clusters_[i].Center());
    if (distance < best_distance) {
      best = i;
      best_distance = distance;
    }
  }
  ObserveInto(clusters_[best], duration_us);
  if (++since_reassess_ >= config_.reassess_interval) {
    since_reassess_ = 0;
    Reassess();
  }
}

void StreamingRoot::Reassess() {
  // Split pass: examine each current cluster once (newly created children
  // wait for the next pass -- their stats are still the parent's guess).
  const size_t current = clusters_.size();
  size_t index = 0;
  for (size_t examined = 0; examined < current && index < clusters_.size();
       ++examined) {
    if (!TrySplit(index)) ++index;
    // On a split, the two children replace the parent at `index`; skip
    // both (they inherit a freshly partitioned reservoir).
    else index += 2;
  }
  TryMerges();
  std::sort(clusters_.begin(), clusters_.end(),
            [](const Cluster& a, const Cluster& b) {
              return a.Center() < b.Center();
            });
}

StreamingRoot::SplitCandidate StreamingRoot::SplitCandidate::Of(
    std::span<const double> reservoir) {
  KmeansResult split = Kmeans1D(reservoir, 2);
  // ClusterStats::Of of each side without gathering its values: both
  // passes visit the side's points in reservoir order, as Of's would.
  double sum[2] = {0.0, 0.0};
  uint64_t count[2] = {0, 0};
  for (size_t i = 0; i < reservoir.size(); ++i) {
    sum[split.assignment[i]] += reservoir[i];
    ++count[split.assignment[i]];
  }
  double mean[2] = {0.0, 0.0};
  for (int side = 0; side < 2; ++side)
    if (count[side] > 0)
      mean[side] = sum[side] / static_cast<double>(count[side]);
  double m2[2] = {0.0, 0.0};
  for (size_t i = 0; i < reservoir.size(); ++i) {
    const double d = reservoir[i] - mean[split.assignment[i]];
    m2[split.assignment[i]] += d * d;
  }
  ClusterStats side[2];
  for (int c = 0; c < 2; ++c) {
    side[c].n = count[c];
    side[c].mean = mean[c];
    if (count[c] > 0)
      side[c].stddev = std::sqrt(m2[c] / static_cast<double>(count[c]));
  }

  SplitCandidate candidate;
  candidate.low_label = split.centers[0] > split.centers[1] ? 1 : 0;
  candidate.low = side[candidate.low_label];
  candidate.high = side[1 - candidate.low_label];
  candidate.assignment = std::move(split.assignment);
  return candidate;
}

bool StreamingRoot::TrySplit(size_t index) {
  Cluster& cluster = clusters_[index];
  const ClusterStats parent = cluster.PopulationStats();
  if (clusters_.size() >= config_.max_clusters) return false;
  if (cluster.reservoir.size() < config_.min_split_observations) return false;
  if (parent.n < config_.root.min_split_size) return false;
  if (parent.stddev <= 0.0) return false;

  if (!cluster.candidate)
    cluster.candidate = SplitCandidate::Of(cluster.reservoir);
  const SplitCandidate& candidate = *cluster.candidate;
  if (candidate.low.n == 0 || candidate.high.n == 0) return false;

  // Scale reservoir-sample stats up to the full population: child sizes
  // proportional to the reservoir partition, remainders to the low child.
  const double fraction =
      static_cast<double>(candidate.low.n) /
      static_cast<double>(cluster.reservoir.size());
  const uint64_t n_low = std::min<uint64_t>(
      parent.n - 1,
      std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 std::llround(fraction * static_cast<double>(parent.n)))));
  const uint64_t n_high = parent.n - n_low;

  ClusterStats stats_low = candidate.low;
  ClusterStats stats_high = candidate.high;
  stats_low.n = n_low;
  stats_high.n = n_high;

  // Batch ROOT's acceptance rule (Eq. 7 vs Eq. 8) on the scaled children.
  const uint64_t m_old = SingleClusterSampleSize(parent, config_.root.stem);
  const double tau_old = static_cast<double>(m_old) * parent.mean;
  const ClusterStats children[] = {stats_low, stats_high};
  const double tau_new = SolveKkt(children, config_.root.stem).cost_us;
  if (tau_new >= tau_old) return false;

  // Rebuild the two children with Welford state synthesized from the
  // scaled sample stats; reservoirs and ranges come from the kept
  // partition.
  std::vector<double> low, high;
  low.reserve(candidate.low.n);
  high.reserve(candidate.high.n);
  for (size_t i = 0; i < cluster.reservoir.size(); ++i)
    (candidate.assignment[i] == candidate.low_label ? low : high)
        .push_back(cluster.reservoir[i]);
  const auto [low_min, low_max] = std::minmax_element(low.begin(), low.end());
  const auto [high_min, high_max] =
      std::minmax_element(high.begin(), high.end());
  Cluster child_low = MakeCluster();
  Cluster child_high = MakeCluster();
  child_low.stats = StreamingStats::FromMoments(
      n_low, stats_low.mean, stats_low.stddev * stats_low.stddev, *low_min,
      *low_max);
  child_high.stats = StreamingStats::FromMoments(
      n_high, stats_high.mean, stats_high.stddev * stats_high.stddev,
      *high_min, *high_max);
  child_low.reservoir = std::move(low);
  child_high.reservoir = std::move(high);
  child_low.reservoir_seen = n_low;
  child_high.reservoir_seen = n_high;

  clusters_[index] = std::move(child_low);
  clusters_.insert(clusters_.begin() + static_cast<ptrdiff_t>(index) + 1,
                   std::move(child_high));
  ++splits_;
  return true;
}

void StreamingRoot::TryMerges() {
  if (clusters_.size() < 2) return;
  std::sort(clusters_.begin(), clusters_.end(),
            [](const Cluster& a, const Cluster& b) {
              return a.Center() < b.Center();
            });
  for (size_t i = 0; i + 1 < clusters_.size();) {
    const ClusterStats a = clusters_[i].PopulationStats();
    const ClusterStats b = clusters_[i + 1].PopulationStats();
    if (a.n == 0 || b.n == 0) {
      ++i;
      continue;
    }
    StreamingStats merged_stats = clusters_[i].stats;
    merged_stats.Merge(clusters_[i + 1].stats);
    ClusterStats merged;
    merged.n = merged_stats.Count();
    merged.mean = merged_stats.Mean();
    merged.stddev = merged_stats.Stddev();

    // Inverse of the split rule: keep the pair separate only while the
    // KKT-sized pair predicts a strictly cheaper simulation than the
    // Eq. 3-sized union.
    const uint64_t m_merged =
        SingleClusterSampleSize(merged, config_.root.stem);
    const double tau_merged = static_cast<double>(m_merged) * merged.mean;
    const ClusterStats pair[] = {a, b};
    const double tau_pair = SolveKkt(pair, config_.root.stem).cost_us;
    if (tau_pair < tau_merged) {
      ++i;
      continue;
    }

    Cluster union_cluster = MakeCluster();
    union_cluster.stats = merged_stats;
    union_cluster.reservoir = std::move(clusters_[i].reservoir);
    union_cluster.reservoir.insert(union_cluster.reservoir.end(),
                                   clusters_[i + 1].reservoir.begin(),
                                   clusters_[i + 1].reservoir.end());
    // Downsample deterministically back to capacity (partial Fisher-Yates
    // keeps the kept prefix a uniform sample of the union).
    if (union_cluster.reservoir.size() > config_.reservoir_capacity) {
      std::vector<double>& r = union_cluster.reservoir;
      for (size_t k = 0; k < config_.reservoir_capacity; ++k) {
        const uint64_t pick =
            k + union_cluster.rng.NextBounded(r.size() - k);
        std::swap(r[k], r[static_cast<size_t>(pick)]);
      }
      r.resize(config_.reservoir_capacity);
    }
    union_cluster.reservoir_seen = merged.n;
    clusters_[i] = std::move(union_cluster);
    clusters_.erase(clusters_.begin() + static_cast<ptrdiff_t>(i) + 1);
    ++merges_;
    // Re-examine the union against its new right neighbour.
  }
}

std::vector<ClusterStats> StreamingRoot::Stats() const {
  std::vector<ClusterStats> out;
  out.reserve(clusters_.size());
  for (const Cluster& cluster : clusters_)
    out.push_back(cluster.PopulationStats());
  std::sort(out.begin(), out.end(),
            [](const ClusterStats& a, const ClusterStats& b) {
              return a.mean < b.mean;
            });
  return out;
}

StreamingTraceClusterer::StreamingTraceClusterer(
    const StreamingRootConfig& config, const KernelTrace& header,
    uint64_t seed) {
  roots_.reserve(header.NumKernelTypes());
  for (uint32_t k = 0; k < header.NumKernelTypes(); ++k)
    roots_.emplace_back(config, DeriveSeed(seed, k));
}

void StreamingTraceClusterer::ObserveChunk(
    std::span<const KernelInvocation> chunk) {
  for (const KernelInvocation& inv : chunk) {
    if (inv.duration_us <= 0.0) continue;
    roots_.at(inv.kernel_id).Observe(inv.duration_us);
    ++observations_;
  }
}

size_t StreamingTraceClusterer::TotalClusters() const {
  size_t total = 0;
  for (const StreamingRoot& root : roots_) total += root.NumClusters();
  return total;
}

uint64_t StreamingTraceClusterer::TotalSplits() const {
  uint64_t total = 0;
  for (const StreamingRoot& root : roots_) total += root.NumSplits();
  return total;
}

uint64_t StreamingTraceClusterer::TotalMerges() const {
  uint64_t total = 0;
  for (const StreamingRoot& root : roots_) total += root.NumMerges();
  return total;
}

std::vector<ClusterStats> StreamingTraceClusterer::AllStats() const {
  std::vector<ClusterStats> out;
  for (const StreamingRoot& root : roots_) {
    // Skip kernels that never observed a duration (zero clusters or a
    // single empty seed cluster contributes nothing).
    for (const ClusterStats& s : root.Stats())
      if (s.n > 0) out.push_back(s);
  }
  return out;
}

}  // namespace stemroot::core
