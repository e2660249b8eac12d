#include "core/streaming_root.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/cache.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "hw/hardware_model.h"
#include "workloads/suite.h"

namespace stemroot::core {
namespace {

std::vector<double> BimodalDurations(size_t per_mode, Rng& rng) {
  std::vector<double> durations;
  for (size_t i = 0; i < per_mode; ++i) {
    durations.push_back(rng.NextGaussian(20.0, 0.6));
    durations.push_back(rng.NextGaussian(200.0, 5.0));
  }
  return durations;
}

TEST(StreamingRootConfigTest, Validation) {
  StreamingRootConfig config;
  EXPECT_NO_THROW(config.Validate());
  config.reservoir_capacity = 4;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = StreamingRootConfig{};
  config.min_split_observations = 1;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = StreamingRootConfig{};
  config.reassess_interval = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = StreamingRootConfig{};
  config.max_clusters = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

TEST(StreamingRootTest, RejectsNonPositiveDurations) {
  StreamingRoot root(StreamingRootConfig{}, 1);
  EXPECT_THROW(root.Observe(0.0), std::invalid_argument);
  EXPECT_THROW(root.Observe(-1.0), std::invalid_argument);
}

TEST(StreamingRootTest, CountsAreConserved) {
  Rng rng(3);
  StreamingRoot root(StreamingRootConfig{}, 7);
  const auto durations = BimodalDurations(1500, rng);
  for (double d : durations) root.Observe(d);
  EXPECT_EQ(root.Observations(), durations.size());
  uint64_t total = 0;
  for (const ClusterStats& c : root.Stats()) total += c.n;
  EXPECT_EQ(total, durations.size());
}

TEST(StreamingRootTest, SplitsBimodalStream) {
  Rng rng(5);
  StreamingRoot root(StreamingRootConfig{}, 11);
  for (double d : BimodalDurations(2000, rng)) root.Observe(d);
  const auto stats = root.Stats();
  ASSERT_GE(stats.size(), 2u);
  // Separated modes: at least one cluster per mode, none straddling.
  EXPECT_LT(stats.front().mean, 100.0);
  EXPECT_GT(stats.back().mean, 100.0);
  EXPECT_GE(root.NumSplits(), 1u);
}

TEST(StreamingRootTest, DoesNotSplitNarrowUnimodal) {
  Rng rng(7);
  StreamingRoot root(StreamingRootConfig{}, 13);
  for (int i = 0; i < 5000; ++i) root.Observe(rng.NextGaussian(100.0, 1.0));
  // A 1% CoV population needs no splitting (Eq. 3 already gives m ~ 1);
  // merges must undo any speculative split on early noise.
  EXPECT_LE(root.NumClusters(), 2u);
}

TEST(StreamingRootTest, StatsAreSortedByMean) {
  Rng rng(9);
  StreamingRoot root(StreamingRootConfig{}, 17);
  for (double mode : {15.0, 40.0, 95.0})
    for (int i = 0; i < 2000; ++i)
      root.Observe(rng.NextGaussian(mode, mode * 0.02));
  const auto stats = root.Stats();
  EXPECT_TRUE(std::is_sorted(stats.begin(), stats.end(),
                             [](const ClusterStats& a, const ClusterStats& b) {
                               return a.mean < b.mean;
                             }));
}

TEST(StreamingRootTest, DeterministicForSameFeedOrder) {
  Rng rng(11);
  const auto durations = BimodalDurations(1000, rng);
  StreamingRoot a(StreamingRootConfig{}, 23);
  StreamingRoot b(StreamingRootConfig{}, 23);
  for (double d : durations) a.Observe(d);
  for (double d : durations) b.Observe(d);
  const auto sa = a.Stats();
  const auto sb = b.Stats();
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].n, sb[i].n);
    EXPECT_EQ(sa[i].mean, sb[i].mean);
    EXPECT_EQ(sa[i].stddev, sb[i].stddev);
  }
  EXPECT_EQ(a.NumSplits(), b.NumSplits());
  EXPECT_EQ(a.NumMerges(), b.NumMerges());
}

TEST(StreamingRootTest, RespectsMaxClusters) {
  Rng rng(13);
  StreamingRootConfig config;
  config.max_clusters = 2;
  StreamingRoot root(config, 29);
  // A wide lognormal invites many splits; the cap must hold anyway.
  for (int i = 0; i < 8000; ++i) root.Observe(rng.NextLogNormal(2.0, 1.5));
  EXPECT_LE(root.NumClusters(), 2u);
}

TEST(StreamingRootTest, ApproximatesBatchStructure) {
  // The streaming structure is advisory, but on a well-separated stream it
  // should land on the same mode count batch ROOT finds.
  Rng rng(15);
  std::vector<double> durations;
  for (int i = 0; i < 3000; ++i) {
    durations.push_back(rng.NextGaussian(10.0, 0.2));
    durations.push_back(rng.NextGaussian(300.0, 6.0));
  }
  StreamingRootConfig config;
  StreamingRoot streaming(config, 31);
  for (double d : durations) streaming.Observe(d);
  const auto batch = RootCluster1D(durations, config.root);
  // Mode membership: population mass below/above the valley must agree.
  uint64_t stream_low = 0;
  for (const ClusterStats& c : streaming.Stats())
    if (c.mean < 100.0) stream_low += c.n;
  uint64_t batch_low = 0;
  for (const RootCluster& c : batch)
    if (c.stats.mean < 100.0) batch_low += c.stats.n;
  EXPECT_EQ(stream_low, batch_low);
}

/// k-means runs recorded since the last telemetry::Reset().
uint64_t KmeansRuns() {
  return telemetry::Capture().Counter("core.kmeans.runs");
}

/// Observe every value of `values` and return the k-means runs that took.
uint64_t RunsWhileObserving(StreamingRoot& root,
                            const std::vector<double>& values) {
  const uint64_t before = KmeansRuns();
  for (double v : values) root.Observe(v);
  return KmeansRuns() - before;
}

/// `n` draws of N(mean, stddev).
std::vector<double> Mode(Rng& rng, double mean, double stddev, size_t n) {
  std::vector<double> values(n);
  for (double& v : values) v = rng.NextGaussian(mean, stddev);
  return values;
}

TEST(StreamingRootTest, ReclustersOnlyAChangedReservoir) {
  telemetry::SetEnabled(true);
  telemetry::Reset();
  Rng rng(19);

  // One narrow cluster (it never pays to split) with an 8-slot reservoir,
  // reassessed after every observation. Past saturation, Algorithm R
  // writes the reservoir only when the cluster's replacement draw lands
  // inside it; mirror that draw (uid 0 is the first cluster's stream) and
  // expect exactly one k-means run per write and none otherwise.
  {
    StreamingRootConfig config;
    config.reservoir_capacity = 8;
    config.min_split_observations = 8;
    config.reassess_interval = 1;
    const uint64_t seed = 37;
    StreamingRoot root(config, seed);
    Rng mirror(DeriveSeed(seed, 0));
    uint64_t writes = 0;
    uint64_t quiet = 0;
    for (uint64_t seen = 1; seen <= 3000; ++seen) {
      const bool write =
          seen <= config.reservoir_capacity ||
          mirror.NextBounded(seen) < config.reservoir_capacity;
      const uint64_t runs =
          RunsWhileObserving(root, {rng.NextGaussian(100.0, 1.0)});
      if (seen < config.min_split_observations) continue;  // too few yet
      ASSERT_EQ(runs, write ? 1u : 0u) << "observation " << seen;
      if (seen > config.reservoir_capacity) ++(write ? writes : quiet);
    }
    ASSERT_EQ(root.NumClusters(), 1u);
    EXPECT_GT(writes, 0u);
    EXPECT_GT(quiet, writes);  // most saturated passes re-cluster nothing
  }

  StreamingRootConfig config;
  config.reservoir_capacity = 64;
  config.min_split_observations = 2;
  config.reassess_interval = 64;

  // Split children: a bimodal first pass splits the one cluster (the
  // first observation founds it, so that pass comes one observation
  // later than the rest). The next pass feeds only the low mode, yet both
  // children re-cluster (the high child has no memo yet); on the pass
  // after that only the written low child does.
  {
    StreamingRoot root(config, 41);
    std::vector<double> bimodal = {rng.NextGaussian(20.0, 0.2)};
    for (int i = 0; i < 32; ++i) {
      bimodal.push_back(rng.NextGaussian(20.0, 0.2));
      bimodal.push_back(rng.NextGaussian(200.0, 2.0));
    }
    EXPECT_EQ(RunsWhileObserving(root, bimodal), 1u);
    ASSERT_EQ(root.NumSplits(), 1u);
    EXPECT_EQ(RunsWhileObserving(root, Mode(rng, 20.0, 0.2, 64)), 2u);
    EXPECT_EQ(RunsWhileObserving(root, Mode(rng, 20.0, 0.2, 64)), 1u);
    EXPECT_EQ(root.NumClusters(), 2u);
    EXPECT_EQ(root.NumSplits(), 1u);
    EXPECT_EQ(root.NumMerges(), 0u);
  }

  // Merge unions: split a far mode off, split 10 from 11, then pour in
  // 10.5 until the two merge back. Feeding only the far mode afterwards,
  // the union re-clusters once (no memo) and then holds.
  {
    StreamingRoot root(config, 43);
    std::vector<double> mix = {rng.NextGaussian(1000.0, 10.0)};
    for (int i = 0; i < 42; ++i) {
      mix.push_back(rng.NextGaussian(1000.0, 10.0));
      mix.push_back(rng.NextGaussian(10.0, 0.01));
      mix.push_back(rng.NextGaussian(11.0, 0.01));
    }
    mix.push_back(rng.NextGaussian(1000.0, 10.0));
    mix.push_back(rng.NextGaussian(1000.0, 10.0));
    RunsWhileObserving(root, mix);  // two passes
    ASSERT_EQ(root.NumClusters(), 3u);
    for (int pass = 0; pass < 20 && root.NumMerges() == 0; ++pass)
      RunsWhileObserving(root, Mode(rng, 10.5, 0.001, 64));
    ASSERT_EQ(root.NumMerges(), 1u);
    ASSERT_EQ(root.NumClusters(), 2u);
    const uint64_t splits = root.NumSplits();
    EXPECT_EQ(RunsWhileObserving(root, Mode(rng, 1000.0, 10.0, 64)), 2u);
    EXPECT_EQ(RunsWhileObserving(root, Mode(rng, 1000.0, 10.0, 64)), 1u);
    EXPECT_EQ(root.NumSplits(), splits);
    EXPECT_EQ(root.NumMerges(), 1u);
  }

  telemetry::Reset();
  telemetry::SetEnabled(false);
}

// ---------------------------------------------------------------------------
// StreamingTraceClusterer: the per-kernel fan-out StreamTrace folds
// chunks into (DESIGN.md section 16).

/// A two-kernel trace whose durations form well-separated per-kernel
/// streams, deterministic in `seed`.
KernelTrace ClustererTrace(uint64_t seed, int n) {
  Rng rng(seed);
  KernelTrace trace("wl");
  const uint32_t a = trace.InternKernel("a");
  const uint32_t b = trace.InternKernel("b");
  for (int i = 0; i < n; ++i) {
    KernelInvocation inv;
    inv.kernel_id = (i % 3 == 0) ? b : a;
    inv.duration_us = inv.kernel_id == a ? rng.NextGaussian(10.0, 0.5)
                                         : rng.NextGaussian(200.0, 4.0);
    trace.Add(inv);
  }
  return trace;
}

void ExpectClusterersEqual(const StreamingTraceClusterer& x,
                           const StreamingTraceClusterer& y) {
  EXPECT_EQ(x.Observations(), y.Observations());
  EXPECT_EQ(x.TotalClusters(), y.TotalClusters());
  EXPECT_EQ(x.TotalSplits(), y.TotalSplits());
  EXPECT_EQ(x.TotalMerges(), y.TotalMerges());
  const auto sx = x.AllStats();
  const auto sy = y.AllStats();
  ASSERT_EQ(sx.size(), sy.size());
  for (size_t i = 0; i < sx.size(); ++i) {
    EXPECT_EQ(sx[i].n, sy[i].n);
    EXPECT_DOUBLE_EQ(sx[i].mean, sy[i].mean);
    EXPECT_DOUBLE_EQ(sx[i].stddev, sy[i].stddev);
  }
}

TEST(StreamingTraceClustererTest, ChunkSizeNeverChangesTheStructure) {
  // Feeding the same timeline in chunks of 1, 7, or all-at-once must
  // land on the identical structure: chunking is pacing, not modeling.
  const KernelTrace trace = ClustererTrace(3, 900);
  const StreamingRootConfig config;
  const auto invocations = trace.Invocations();
  StreamingTraceClusterer whole(config, trace, 42);
  whole.ObserveChunk(invocations);
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{256}}) {
    StreamingTraceClusterer chunked(config, trace, 42);
    for (size_t i = 0; i < invocations.size(); i += chunk)
      chunked.ObserveChunk(invocations.subspan(
          i, std::min(chunk, invocations.size() - i)));
    ExpectClusterersEqual(whole, chunked);
  }
}

TEST(StreamingTraceClustererTest, RoutesByKernelAndSkipsUnprofiled) {
  KernelTrace trace = ClustererTrace(5, 90);
  // Blank out every third duration: unprofiled invocations are skipped,
  // matching the service-session feed contract.
  size_t blanked = 0;
  for (auto& inv : trace.MutableInvocations())
    if (inv.seq % 3 == 2) {
      inv.duration_us = 0.0;
      ++blanked;
    }
  StreamingTraceClusterer clusterer({}, trace, 42);
  clusterer.ObserveChunk(trace.Invocations());
  EXPECT_EQ(clusterer.NumKernels(), 2u);
  EXPECT_EQ(clusterer.Observations(), trace.NumInvocations() - blanked);
  uint64_t routed = 0;
  for (size_t k = 0; k < clusterer.NumKernels(); ++k)
    for (const ClusterStats& c : clusterer.Root(k).Stats()) routed += c.n;
  EXPECT_EQ(routed, clusterer.Observations());
}

TEST(StreamingTraceClustererTest, ThrowsOnKernelIdOutsideHeader) {
  const KernelTrace trace = ClustererTrace(7, 10);
  StreamingTraceClusterer clusterer({}, trace, 42);
  KernelInvocation bad;
  bad.kernel_id = 99;
  bad.duration_us = 1.0;
  EXPECT_THROW(
      clusterer.ObserveChunk(std::span<const KernelInvocation>(&bad, 1)),
      std::out_of_range);
}

TEST(StreamingTraceClustererTest, PerKernelSeedsAreDecorrelated) {
  // Different master seeds must produce independently-seeded per-kernel
  // roots, while the same seed reproduces the structure exactly.
  const KernelTrace trace = ClustererTrace(9, 600);
  StreamingTraceClusterer x({}, trace, 42);
  StreamingTraceClusterer y({}, trace, 42);
  x.ObserveChunk(trace.Invocations());
  y.ObserveChunk(trace.Invocations());
  ExpectClusterersEqual(x, y);
}

/// FNV-1a over the whole streamed structure: lifetime splits and merges,
/// then every cluster's population n and the bit patterns of its mean and
/// stddev, in AllStats() order.
uint64_t StructureFingerprint(const StreamingTraceClusterer& clusterer) {
  std::string bytes;
  const auto put = [&bytes](uint64_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(clusterer.TotalSplits());
  put(clusterer.TotalMerges());
  for (const ClusterStats& c : clusterer.AllStats()) {
    put(c.n);
    put(std::bit_cast<uint64_t>(c.mean));
    put(std::bit_cast<uint64_t>(c.stddev));
  }
  return Fnv1a64(bytes);
}

TEST(StreamingTraceClustererTest, StructureIsPinned) {
  // Two profiled traces streamed at seed 42, pinned bit for bit. Any
  // change to reassessment (k-means, split candidates, the split and merge
  // rules) that moves a single cluster statistic fails here.
  struct Case {
    workloads::SuiteId suite;
    const char* workload;
    double scale;
    uint64_t fingerprint;
  };
  const Case cases[] = {
      {workloads::SuiteId::kCasio, "bert_infer", 0.5, 0x4ec1453e24228299ULL},
      {workloads::SuiteId::kHuggingface, "gpt2", 0.03, 0x6de2ade4f084422eULL},
  };
  const hw::HardwareModel gpu(hw::GpuSpec::Rtx2080());
  for (const Case& c : cases) {
    KernelTrace trace = workloads::MakeWorkload(c.suite, c.workload, 42,
                                                c.scale);
    gpu.ProfileTrace(trace, 42);
    StreamingTraceClusterer clusterer({}, trace, 42);
    clusterer.ObserveChunk(trace.Invocations());
    EXPECT_GT(clusterer.TotalSplits(), 0u) << c.workload;
    EXPECT_EQ(StructureFingerprint(clusterer), c.fingerprint)
        << c.workload << ": splits " << clusterer.TotalSplits()
        << ", merges " << clusterer.TotalMerges() << ", clusters "
        << clusterer.TotalClusters();
  }
}

}  // namespace
}  // namespace stemroot::core
