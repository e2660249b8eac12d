#include "eval/trace_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/stem.h"
#include "eval/metrics.h"
#include "eval/pipeline.h"
#include "hw/gpu_spec.h"
#include "hw/hardware_model.h"
#include "trace/chunked.h"
#include "workloads/suite.h"

namespace stemroot::eval {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 99;
constexpr double kScale = 0.05;
constexpr auto kSuite = workloads::SuiteId::kCasio;
constexpr const char* kWorkload = "bert_infer";

uint64_t Bits(double x) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

void ExpectSameResult(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(Bits(a.speedup), Bits(b.speedup));
  EXPECT_EQ(Bits(a.error_pct), Bits(b.error_pct));
  EXPECT_EQ(Bits(a.estimated_total_us), Bits(b.estimated_total_us));
  EXPECT_EQ(Bits(a.true_total_us), Bits(b.true_total_us));
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

/// The canonical bytes of a trace: its SRTC file.
std::string TraceBytes(const KernelTrace& trace) {
  const std::string path =
      testing::TempDir() + "/" +
      testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_bytes.srtc";
  SpillTraceChunked(trace, path);
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TraceCacheKey MakeKey() {
  TraceCacheKey key;
  key.suite = "casio";
  key.workload = kWorkload;
  key.gpu_digest = GpuDigest(hw::HardwareModel(hw::GpuSpec::Rtx2080()));
  key.scale = kScale;
  key.seed = kSeed;
  key.build_stamp = BuildStamp();
  return key;
}

/// Every test gets its own cache directory and leaves the process-wide
/// cache disabled again afterwards (the library default other tests rely
/// on).
class TraceCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sr_trace_cache_test_" +
            std::to_string(
                std::hash<std::thread::id>{}(std::this_thread::get_id())) +
            "_" + std::to_string(counter_++));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    SetTraceCacheDir("none");
    telemetry::SetEnabled(false);
    telemetry::Reset();
    SetNumThreads(0);
    fs::remove_all(dir_);
  }

  std::string DirStr() const { return dir_.string(); }

  /// The single entry file of the cache directory.
  fs::path OnlyEntry() const {
    fs::path found;
    size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      ++count;
      found = entry.path();
    }
    EXPECT_EQ(count, 1u);
    return found;
  }

  fs::path dir_;
  static int counter_;
};

int TraceCacheTest::counter_ = 0;

TEST(TraceCacheKeyTest, EveryFieldChangesTheKey) {
  const TraceCacheKey base = MakeKey();
  TraceCacheKey k = base;
  EXPECT_EQ(k.KeyString(), base.KeyString());
  k.suite = "rodinia";
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.workload = "resnet_train";
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.gpu_digest = GpuDigest(hw::HardwareModel(hw::GpuSpec::H100()));
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.scale = kScale * 2;
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.seed = kSeed + 1;
  EXPECT_NE(k.KeyString(), base.KeyString());
  k = base;
  k.build_stamp = "other-build";
  EXPECT_NE(k.KeyString(), base.KeyString());
}

TEST(TraceCacheKeyTest, GpuDigestCoversSpecAndTimingParams) {
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();
  EXPECT_EQ(GpuDigest(hw::HardwareModel(spec)),
            GpuDigest(hw::HardwareModel(spec)));
  // A DSE variant with the same preset lineage must not collide.
  EXPECT_NE(GpuDigest(hw::HardwareModel(spec)),
            GpuDigest(hw::HardwareModel(spec.WithCacheScale(2.0))));
  EXPECT_NE(GpuDigest(hw::HardwareModel(spec)),
            GpuDigest(hw::HardwareModel(spec.WithSmScale(0.5))));
  // Timing parameters are part of the digest, not just the GpuSpec.
  hw::TimingParams params;
  params.jitter_base *= 2;
  EXPECT_NE(GpuDigest(hw::HardwareModel(spec)),
            GpuDigest(hw::HardwareModel(spec, params)));
}

TEST_F(TraceCacheTest, StoreLoadRoundTripsTheExactBytes) {
  const Pipeline cold = Pipeline::Generate(kSuite, kWorkload,
                                           {.seed = kSeed,
                                            .size_scale = kScale})
                            .Profile(hw::GpuSpec::Rtx2080());
  const TraceCache cache(DirStr());
  const TraceCacheKey key = MakeKey();
  EXPECT_FALSE(cache.Load(key).has_value());
  EXPECT_TRUE(cache.Store(key, cold.Trace()));
  const std::optional<KernelTrace> warm = cache.Load(key);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(TraceBytes(*warm), TraceBytes(cold.Trace()));
}

TEST_F(TraceCacheTest, GenerateProfiledColdThenWarmIsByteIdentical) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  const Pipeline cold =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  EXPECT_EQ(OnlyEntry().extension(), ".srtc");

  const Pipeline warm =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  EXPECT_EQ(TraceBytes(warm.Trace()), TraceBytes(cold.Trace()));
  EXPECT_TRUE(warm.Profiled());
  EXPECT_EQ(warm.SuiteName(), cold.SuiteName());
  EXPECT_EQ(warm.WorkloadName(), cold.WorkloadName());
  EXPECT_EQ(warm.GpuName(), spec.name);

  // The downstream stages see identical inputs, so evaluation results are
  // bit-equal too.
  const core::StemRootSampler stem;
  ExpectSameResult(warm.Evaluate(stem, 2), cold.Evaluate(stem, 2));
}

TEST_F(TraceCacheTest, WarmHitIsByteIdenticalAtAnyThreadCount) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  SetNumThreads(1);
  const std::string cold =
      TraceBytes(Pipeline::GenerateProfiled(kSuite, kWorkload, spec,
                                                options)
                         .Trace());
  SetNumThreads(4);
  const std::string warm =
      TraceBytes(Pipeline::GenerateProfiled(kSuite, kWorkload, spec,
                                                options)
                         .Trace());
  // And uncached at yet another thread count for the same bytes.
  SetTraceCacheDir("none");
  SetNumThreads(3);
  const std::string uncached =
      TraceBytes(Pipeline::GenerateProfiled(kSuite, kWorkload, spec,
                                                options)
                         .Trace());
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, uncached);
}

TEST_F(TraceCacheTest, WarmRunReplaysStageCountersAndSpans) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  telemetry::SetEnabled(true);
  telemetry::Reset();
  Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  const telemetry::Snapshot cold = telemetry::Capture();
  EXPECT_EQ(cold.Counter("cache.hit"), 0u);
  EXPECT_EQ(cold.Counter("cache.miss"), 1u);
  EXPECT_EQ(cold.Counter("cache.store"), 1u);

  telemetry::Reset();
  Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  const telemetry::Snapshot warm = telemetry::Capture();
  EXPECT_EQ(warm.Counter("cache.hit"), 1u);
  EXPECT_EQ(warm.Counter("cache.miss"), 0u);

  // The deterministic counters the skipped stages would have produced are
  // replayed, so cold and warm snapshots agree on every non-cache.*
  // counter and distribution (the determinism contract `stemroot compare`
  // gates on).
  const auto non_cache = [](const telemetry::Snapshot& snap) {
    std::map<std::string, uint64_t> counters;
    for (const auto& [name, value] : snap.Counters())
      if (name.rfind("cache.", 0) != 0) counters[name] = value;
    return counters;
  };
  EXPECT_EQ(non_cache(cold), non_cache(warm));
  EXPECT_EQ(cold.DistributionsJson(), warm.DistributionsJson());

  // Stage spans still exist on the warm path (manifests and stage checks
  // rely on them), plus the cache.load span.
  EXPECT_TRUE(warm.HasSpan("generate"));
  EXPECT_TRUE(warm.HasSpan("profile"));
  EXPECT_TRUE(warm.HasSpan("cache.load"));
}

TEST_F(TraceCacheTest, TruncatedEntryFallsBackToRecompute) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  const Pipeline cold =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  fs::resize_file(OnlyEntry(), 32);

  const Pipeline again =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  EXPECT_EQ(TraceBytes(again.Trace()), TraceBytes(cold.Trace()));
  // The recompute re-stored a valid entry; the next run hits it.
  const TraceCache cache(DirStr());
  EXPECT_TRUE(cache.Load(MakeKey()).has_value());
}

TEST_F(TraceCacheTest, ChecksumMismatchFallsBackToRecompute) {
  SetTraceCacheDir(DirStr());
  const Pipeline::Options options{.seed = kSeed, .size_scale = kScale};
  const hw::GpuSpec spec = hw::GpuSpec::Rtx2080();

  const Pipeline cold =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  // Flip the first kernel-id byte of the chunk payload: the chunk digest
  // no longer matches, so the load is a miss and the run recomputes.
  const ChunkInfo chunk = ChunkedTraceReader(OnlyEntry().string()).Chunk(0);
  {
    std::fstream f(OnlyEntry(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(chunk.offset + 8));
    const char byte = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(chunk.offset + 8));
    f.put(static_cast<char>(byte ^ 0x5a));
  }
  telemetry::SetEnabled(true);
  telemetry::Reset();
  const Pipeline again =
      Pipeline::GenerateProfiled(kSuite, kWorkload, spec, options);
  EXPECT_EQ(telemetry::Capture().Counter("cache.corrupt"), 1u);
  EXPECT_EQ(TraceBytes(again.Trace()), TraceBytes(cold.Trace()));
  EXPECT_TRUE(TraceCache(DirStr()).Load(MakeKey()).has_value());
}

TEST_F(TraceCacheTest, StaleBuildStampIsUnreachableNotServed) {
  // An entry stored under a different build stamp digests to a different
  // file name, so the current binary's lookup simply misses it.
  const TraceCache cache(DirStr());
  TraceCacheKey stale = MakeKey();
  stale.build_stamp = "deadbeef+dirty|GNU 0.0.0|Debug|";
  KernelTrace trace =
      Pipeline::Generate(kSuite, kWorkload, {.seed = kSeed,
                                             .size_scale = kScale})
          .Profile(hw::GpuSpec::Rtx2080())
          .Trace();
  ASSERT_TRUE(cache.Store(stale, trace));
  EXPECT_FALSE(cache.Load(MakeKey()).has_value());
  EXPECT_TRUE(cache.Load(stale).has_value());
}

TEST_F(TraceCacheTest, DisabledCacheWritesNothing) {
  SetTraceCacheDir("none");
  EXPECT_EQ(DefaultTraceCache(), nullptr);
  Pipeline::GenerateProfiled(kSuite, kWorkload, hw::GpuSpec::Rtx2080(),
                             {.seed = kSeed, .size_scale = kScale});
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(TraceCacheTest, SetTraceCacheDirTogglesTheDefault) {
  EXPECT_EQ(DefaultTraceCache(), nullptr);
  SetTraceCacheDir(DirStr());
  ASSERT_NE(DefaultTraceCache(), nullptr);
  EXPECT_EQ(DefaultTraceCache()->Dir(), DirStr());
  SetTraceCacheDir("");
  EXPECT_EQ(DefaultTraceCache(), nullptr);
}

// ---------------------------------------------------------------------------
// The entry files: one "<key digest>.srtc" per key, with the
// stats/verify/evict sweeps behind `stemroot cache`.

class ArtifactCacheTest : public TraceCacheTest {
 protected:
  static TraceCacheKey Key(const std::string& workload) {
    TraceCacheKey key = MakeKey();
    key.workload = workload;
    return key;
  }

  static KernelTrace Tiny(int n) {
    KernelTrace trace("tiny");
    const uint32_t k = trace.InternKernel("k");
    for (int i = 0; i < n; ++i) {
      KernelInvocation inv;
      inv.kernel_id = k;
      inv.duration_us = 1.0 + i;
      trace.Add(inv);
    }
    return trace;
  }

  /// Load must miss and count the entry as corrupt.
  static void ExpectCorruptMiss(const TraceCache& cache,
                                const TraceCacheKey& key) {
    telemetry::SetEnabled(true);
    telemetry::Reset();
    EXPECT_FALSE(cache.Load(key).has_value());
    const telemetry::Snapshot snap = telemetry::Capture();
    EXPECT_EQ(snap.Counter("cache.miss"), 1u);
    EXPECT_EQ(snap.Counter("cache.corrupt"), 1u);
    EXPECT_EQ(snap.Counter("cache.hit"), 0u);
  }
};

TEST_F(ArtifactCacheTest, MissOnEmptyCacheThenRoundTrip) {
  const TraceCache cache(DirStr());
  EXPECT_FALSE(cache.Load(Key("a")).has_value());
  ASSERT_TRUE(cache.Store(Key("a"), Tiny(7)));
  const std::optional<KernelTrace> got = cache.Load(Key("a"));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(TraceBytes(*got), TraceBytes(Tiny(7)));
  EXPECT_FALSE(cache.Load(Key("b")).has_value());
}

TEST_F(ArtifactCacheTest, PutReplacesExistingEntry) {
  const TraceCache cache(DirStr());
  ASSERT_TRUE(cache.Store(Key("k"), Tiny(3)));
  ASSERT_TRUE(cache.Store(Key("k"), Tiny(5)));
  const std::optional<KernelTrace> got = cache.Load(Key("k"));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->NumInvocations(), 5u);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST_F(ArtifactCacheTest, EmptyPayloadRoundTrips) {
  const TraceCache cache(DirStr());
  ASSERT_TRUE(cache.Store(Key("empty"), Tiny(0)));
  const std::optional<KernelTrace> got = cache.Load(Key("empty"));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->NumInvocations(), 0u);
  EXPECT_EQ(got->NumKernelTypes(), 1u);
}

TEST_F(ArtifactCacheTest, NoTempFileResidueAfterPut) {
  const TraceCache cache(DirStr());
  ASSERT_TRUE(cache.Store(Key("k"), Tiny(4)));
  ASSERT_TRUE(cache.Store(Key("k"), Tiny(6)));  // a rewrite
  EXPECT_EQ(OnlyEntry(), fs::path(cache.EntryPath(Key("k"))));
}

TEST_F(ArtifactCacheTest, TruncatedEntryIsAMiss) {
  const TraceCache cache(DirStr());
  ASSERT_TRUE(cache.Store(Key("k"), Tiny(50)));
  fs::resize_file(cache.EntryPath(Key("k")), 32);
  ExpectCorruptMiss(cache, Key("k"));
  // The defective entry is overwritten and works again.
  ASSERT_TRUE(cache.Store(Key("k"), Tiny(50)));
  ASSERT_TRUE(cache.Load(Key("k")).has_value());
}

TEST_F(ArtifactCacheTest, EvenHeaderOnlyTruncationIsAMiss) {
  const TraceCache cache(DirStr());
  ASSERT_TRUE(cache.Store(Key("k"), Tiny(2)));
  fs::resize_file(cache.EntryPath(Key("k")), 3);  // shorter than the magic
  ExpectCorruptMiss(cache, Key("k"));
  fs::resize_file(cache.EntryPath(Key("k")), 0);
  ExpectCorruptMiss(cache, Key("k"));
}

TEST_F(ArtifactCacheTest, FlippedPayloadByteIsAMiss) {
  const TraceCache cache(DirStr());
  ASSERT_TRUE(cache.Store(Key("k"), Tiny(20)));
  const std::string path = cache.EntryPath(Key("k"));
  const ChunkInfo chunk = ChunkedTraceReader(path).Chunk(0);
  // The last byte of the payload: the final duration's sign byte.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(
      chunk.offset + 8 + chunk.count * ChunkWireBytesPerInvocation() - 1));
  f.put('Z');
  f.close();
  ExpectCorruptMiss(cache, Key("k"));
}

TEST_F(ArtifactCacheTest, WrongKeyInEntryIsAMiss) {
  const TraceCache cache(DirStr());
  ASSERT_TRUE(cache.Store(Key("real"), Tiny(3)));
  // Simulate a digest collision / renamed file: the entry for "real"
  // placed where another key's digest points.
  fs::copy_file(cache.EntryPath(Key("real")), cache.EntryPath(Key("other")));
  ExpectCorruptMiss(cache, Key("other"));
  EXPECT_TRUE(cache.Load(Key("real")).has_value());
}

TEST_F(ArtifactCacheTest, GarbageFileIsAMissNotACrash) {
  const TraceCache cache(DirStr());
  fs::create_directories(dir_);
  std::ofstream(cache.EntryPath(Key("k")), std::ios::binary)
      << "this is not an SRTC entry at all";
  ExpectCorruptMiss(cache, Key("k"));
  // Big enough to hold a fake trailer.
  std::ofstream(cache.EntryPath(Key("k")), std::ios::binary)
      << std::string(4096, '\x5a');
  ExpectCorruptMiss(cache, Key("k"));
}

TEST_F(ArtifactCacheTest, StatsCountEntriesAndBytes) {
  const TraceCache cache(DirStr());
  EXPECT_EQ(cache.GetStats().entries, 0u);  // missing dir == empty cache
  ASSERT_TRUE(cache.Store(Key("a"), Tiny(10)));
  ASSERT_TRUE(cache.Store(Key("b"), Tiny(20)));
  const TraceCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, fs::file_size(cache.EntryPath(Key("a"))) +
                             fs::file_size(cache.EntryPath(Key("b"))));
}

TEST_F(ArtifactCacheTest, VerifyReportsCorruptEntries) {
  const TraceCache cache(DirStr());
  ASSERT_TRUE(cache.Store(Key("good"), Tiny(3)));
  ASSERT_TRUE(cache.Store(Key("bad"), Tiny(30)));
  fs::resize_file(cache.EntryPath(Key("bad")), 40);
  // A valid file under a name its echoed key does not digest to.
  fs::copy_file(cache.EntryPath(Key("good")),
                cache.EntryPath(Key("renamed")));

  const std::vector<TraceCache::EntryInfo> report = cache.Verify();
  ASSERT_EQ(report.size(), 3u);
  size_t valid = 0, invalid = 0;
  for (const TraceCache::EntryInfo& info : report) {
    if (info.valid) {
      ++valid;
      EXPECT_TRUE(info.problem.empty());
      EXPECT_EQ(dir_ / info.file, fs::path(cache.EntryPath(Key("good"))));
    } else {
      ++invalid;
      EXPECT_FALSE(info.problem.empty());
    }
  }
  EXPECT_EQ(valid, 1u);
  EXPECT_EQ(invalid, 2u);
}

TEST_F(ArtifactCacheTest, EvictAllAndEvictToBudget) {
  const TraceCache cache(DirStr());
  for (const char* name : {"a", "b", "c"})
    ASSERT_TRUE(cache.Store(Key(name), Tiny(10)));
  EXPECT_EQ(cache.GetStats().entries, 3u);
  const uint64_t one = fs::file_size(cache.EntryPath(Key("a")));

  // Shrink to roughly one entry's footprint: at least one must go.
  const uint64_t removed = cache.Evict(one + one / 4);
  EXPECT_GE(removed, 1u);
  EXPECT_LE(cache.GetStats().bytes, one + one / 4);

  cache.Evict(0);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST_F(ArtifactCacheTest, StoreIntoUnwritableDirReturnsFalse) {
  // A cache "directory" below a regular file can never be created, for
  // any user: the store warns and reports failure instead of throwing.
  fs::create_directories(dir_);
  std::ofstream(dir_ / "file") << "x";
  const TraceCache cache((dir_ / "file" / "cache").string());
  EXPECT_FALSE(cache.Store(Key("k"), Tiny(3)));
  EXPECT_FALSE(cache.Load(Key("k")).has_value());
}

TEST_F(ArtifactCacheTest, LegacySrceEntryIsACleanMissVerifiedAndEvicted) {
  // An entry of the retired whole-trace envelope format, named as that
  // format named entries: `<key digest>.srce`. Its bytes are never read.
  const TraceCache cache(DirStr());
  fs::create_directories(dir_);
  fs::path legacy = cache.EntryPath(Key("k"));
  legacy.replace_extension(".srce");
  std::ofstream(legacy, std::ios::binary) << "retired envelope + payload";

  telemetry::SetEnabled(true);
  telemetry::Reset();
  EXPECT_FALSE(cache.Load(Key("k")).has_value());
  const telemetry::Snapshot snap = telemetry::Capture();
  EXPECT_EQ(snap.Counter("cache.miss"), 1u);
  EXPECT_EQ(snap.Counter("cache.corrupt"), 0u);

  const std::vector<TraceCache::EntryInfo> report = cache.Verify();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].file, legacy.filename().string());
  EXPECT_FALSE(report[0].valid);
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.Evict(0), 1u);
  EXPECT_FALSE(fs::exists(legacy));
}

}  // namespace
}  // namespace stemroot::eval
