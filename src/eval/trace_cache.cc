#include "eval/trace_cache.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/cache.h"
#include "common/json.h"
#include "common/log.h"
#include "common/resource.h"
#include "common/telemetry.h"
#include "trace/chunked.h"

namespace stemroot::eval {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kEntrySuffix = ".srtc";
/// Entries of the retired whole-trace envelope format: never read, always
/// reported defective, evictable.
constexpr std::string_view kLegacySuffix = ".srce";

void AppendField(std::string& out, std::string_view value) {
  out += '|';
  out += value;
}

/// Entry files of a cache directory (a missing directory has none).
std::vector<fs::directory_entry> EntryFiles(const std::string& dir) {
  std::vector<fs::directory_entry> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file(ec) &&
        (ext == kEntrySuffix || ext == kLegacySuffix))
      files.push_back(entry);
  }
  return files;
}

/// "" when the entry file verifies, its defect otherwise. Never throws.
std::string EntryProblem(const fs::path& path) {
  if (path.extension() == kLegacySuffix)
    return "retired .srce entry format (never read; evict to reclaim)";
  try {
    const ChunkedTraceReader reader(path.string());
    for (size_t i = 0; i < reader.NumChunks(); ++i)
      if (!reader.VerifyChunk(i))
        return "chunk " + std::to_string(i) + " digest mismatch";
    // The file name is the digest of the echoed key; a mismatch is a
    // renamed or foreign file that no lookup would ever accept.
    if (path.filename().string() !=
        HexDigest64(Fnv1a64(reader.Key())) + std::string(kEntrySuffix))
      return "key echo does not match the file name";
    return "";
  } catch (const std::exception& e) {
    return e.what();
  }
}

}  // namespace

std::string TraceCacheKey::KeyString() const {
  std::string key(kTraceCacheSchema);
  AppendField(key, "srtc" + std::to_string(SrtcFormatVersion()));
  AppendField(key, build_stamp);
  AppendField(key, suite);
  AppendField(key, workload);
  AppendField(key, gpu_digest);
  // json::Number renders doubles shortest-round-trip and locale-free, so
  // the same scale always digests to the same key.
  AppendField(key, "scale=" + json::Number(scale));
  AppendField(key, "seed=" + std::to_string(seed));
  return key;
}

std::string TraceEntryPath(const std::string& dir, const TraceCacheKey& key) {
  return (fs::path(dir) /
          (HexDigest64(Fnv1a64(key.KeyString())) + std::string(kEntrySuffix)))
      .string();
}

std::string GpuDigest(const hw::HardwareModel& gpu) {
  const hw::GpuSpec& s = gpu.Spec();
  const hw::TimingParams& t = gpu.Params();
  std::string canon = "gpu-spec-v1";
  AppendField(canon, s.name);
  AppendField(canon, std::to_string(s.num_sms));
  AppendField(canon, json::Number(s.clock_ghz));
  AppendField(canon, std::to_string(s.max_warps_per_sm));
  AppendField(canon, std::to_string(s.warp_size));
  AppendField(canon, json::Number(s.issue_width));
  AppendField(canon, std::to_string(s.l1_bytes));
  AppendField(canon, std::to_string(s.l2_bytes));
  AppendField(canon, std::to_string(s.line_bytes));
  AppendField(canon, json::Number(s.dram_bw_gbps));
  AppendField(canon, json::Number(s.dram_latency_ns));
  AppendField(canon, json::Number(s.l2_latency_ns));
  AppendField(canon, json::Number(s.fp16_speedup));
  AppendField(canon, json::Number(s.launch_overhead_us));
  AppendField(canon, json::Number(t.jitter_base));
  AppendField(canon, json::Number(t.jitter_mem_scale));
  AppendField(canon, json::Number(t.overlap_slack));
  AppendField(canon, json::Number(t.coalesce_best));
  AppendField(canon, json::Number(t.coalesce_worst));
  return HexDigest64(Fnv1a64(canon));
}

std::string BuildStamp() {
  const BuildInfo& b = GetBuildInfo();
  std::string stamp = b.git_hash;
  if (b.git_dirty) stamp += "+dirty";
  AppendField(stamp, b.compiler);
  AppendField(stamp, b.build_type);
  AppendField(stamp, b.sanitizer);
  return stamp;
}

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir)) {}

std::optional<KernelTrace> TraceCache::Load(const TraceCacheKey& key) const {
  const std::string path = EntryPath(key);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    telemetry::Count("cache.miss");
    return std::nullopt;
  }
  try {
    const FileChunkSource source(path);
    if (source.Reader().Key() != key.KeyString())
      throw std::runtime_error("key mismatch (digest collision or renamed "
                               "entry)");
    KernelTrace trace = AssembleTrace(source);  // verifies every chunk
    // The entry bytes are canonical for the trace, so a warm Load charges
    // exactly what the cold Store did.
    const uint64_t bytes = fs::file_size(path, ec);
    resource::Account("cache", bytes);
    telemetry::Count("cache.hit");
    telemetry::Count("cache.read_bytes", bytes);
    return trace;
  } catch (const std::exception&) {
    // A defective entry is a miss by contract: recompute, never crash,
    // never serve stale or torn data.
    telemetry::Count("cache.miss");
    telemetry::Count("cache.corrupt");
    return std::nullopt;
  }
}

bool TraceCache::Store(const TraceCacheKey& key,
                       const KernelTrace& trace) const {
  try {
    std::error_code ec;
    fs::create_directories(dir_, ec);  // best effort; the writer reports
    const TraceEntryInfo entry = EnsureTraceEntry(
        EntryPath(key), key.KeyString(), trace, kDefaultChunkInvocations);
    resource::Account("cache", entry.bytes);
    if (!entry.reused) {
      telemetry::Count("cache.store");
      telemetry::Count("cache.write_bytes", entry.bytes);
    }
    return true;
  } catch (const std::exception& e) {
    Warn("trace cache: store failed, continuing uncached: %s", e.what());
    return false;
  }
}

TraceCache::Stats TraceCache::GetStats() const {
  Stats stats;
  std::error_code ec;
  for (const fs::directory_entry& entry : EntryFiles(dir_)) {
    ++stats.entries;
    stats.bytes += entry.file_size(ec);
  }
  return stats;
}

std::vector<TraceCache::EntryInfo> TraceCache::Verify() const {
  std::vector<EntryInfo> report;
  std::error_code ec;
  for (const fs::directory_entry& entry : EntryFiles(dir_)) {
    EntryInfo info;
    info.file = entry.path().filename().string();
    info.bytes = entry.file_size(ec);
    info.problem = EntryProblem(entry.path());
    info.valid = info.problem.empty();
    report.push_back(std::move(info));
  }
  std::sort(report.begin(), report.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              return a.file < b.file;
            });
  return report;
}

uint64_t TraceCache::Evict(uint64_t max_bytes) const {
  struct Candidate {
    fs::path path;
    uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<Candidate> candidates;
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : EntryFiles(dir_)) {
    Candidate c;
    c.path = entry.path();
    c.bytes = entry.file_size(ec);
    c.mtime = entry.last_write_time(ec);
    total += c.bytes;
    candidates.push_back(std::move(c));
  }
  // Oldest first; tie-break on path so eviction order is deterministic.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  uint64_t removed = 0;
  for (const Candidate& c : candidates) {
    if (total <= max_bytes) break;
    if (fs::remove(c.path, ec) && !ec) {
      total -= c.bytes;
      ++removed;
    }
  }
  return removed;
}

std::string DefaultTraceCacheDir() { return "bench_results/cache"; }

namespace {

/// The process-wide cache pointer. Readers (parallel suite workers) load
/// it lock-free; SetTraceCacheDir publishes replacements under a mutex and
/// retires prior instances into a still-reachable list instead of deleting
/// them, so a concurrent reader can never observe a dangling pointer (and
/// leak checkers see reachable memory, not a leak).
std::atomic<const TraceCache*> g_default{nullptr};

std::mutex& RetireMutex() {
  static std::mutex m;
  return m;
}

std::vector<std::unique_ptr<TraceCache>>& RetiredCaches() {
  static auto* retired = new std::vector<std::unique_ptr<TraceCache>>();
  return *retired;
}

}  // namespace

void SetTraceCacheDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(RetireMutex());
  const TraceCache* next =
      (dir.empty() || dir == "none") ? nullptr : new TraceCache(dir);
  const TraceCache* prev =
      g_default.exchange(next, std::memory_order_acq_rel);
  if (prev != nullptr)
    RetiredCaches().emplace_back(const_cast<TraceCache*>(prev));
}

const TraceCache* DefaultTraceCache() {
  return g_default.load(std::memory_order_acquire);
}

}  // namespace stemroot::eval
