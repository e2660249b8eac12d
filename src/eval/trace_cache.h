/// \file
/// The profiled-trace cache: a content-addressed, persistent memo of the
/// pipeline's generate->profile stages.
///
/// Generating a workload and profiling it on the hardware model dominate
/// the wall time of every CLI command and bench, yet both stages are pure
/// functions of (suite, workload, gpu spec, scale, seed) plus the code
/// revision. The cache exploits that: the key digests exactly those
/// inputs, and the entry `<dir>/<key digest>.srtc` is the profiled trace
/// as an "SRTC" file (trace/chunked.h) that echoes the full key string in
/// its header. A warm `stemroot run` therefore skips straight to
/// cluster+sample+evaluate, byte-identical to the cold run. A pipeline
/// spill (Pipeline::Options::trace_spill_dir) is the same entry in another
/// directory, written by the same routine (EnsureTraceEntry).
///
/// Key / invalidation contract (DESIGN.md §11):
///
///   key = schema tag | trace format version | build stamp |
///         suite | workload | gpu digest | scale | seed
///
///   - *gpu digest* hashes every numeric field of the GpuSpec AND the
///     TimingParams, not just the preset name, so DSE variants and custom
///     specs never collide.
///   - *build stamp* is the full BuildInfo (git hash, dirty flag,
///     compiler, build type, sanitizer). Any rebuild from different code
///     changes the key, so a stale artifact is unreachable rather than
///     detected late. Note the dirty-tree caveat: two different
///     uncommitted edits share a stamp; run `stemroot cache evict` when
///     iterating on generator/model code with a dirty tree.
///   - the format version retires whole generations of entries on format
///     changes.
///
/// Defects of any kind (truncation, chunk digest, key echo, version) are
/// plain misses: recompute, never crash, never serve stale data. Entries
/// are published by temp file + rename, so a crash mid-store leaves the
/// old entry or none, never a torn one.
///
/// When telemetry is enabled the cache emits `cache.hit`, `cache.miss`,
/// `cache.corrupt`, `cache.store`, `cache.read_bytes`, and
/// `cache.write_bytes`. These are *environmental* (they depend on what is
/// on disk, like wall times), so `stemroot compare` excludes the `cache.`
/// prefix from its determinism gate -- see src/eval/regress.h.
///
/// The process-wide default cache is what Pipeline::GenerateProfiled
/// consults; the CLI and benches configure it from `--cache DIR|none`
/// (default bench_results/cache). The library default is *disabled* so
/// tests and embedders opt in explicitly.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/hardware_model.h"
#include "trace/trace.h"
#include "workloads/suite.h"

namespace stemroot::eval {

/// Schema tag versioning the key layout itself.
inline constexpr std::string_view kTraceCacheSchema = "stemroot-trace-cache-v1";

/// The resolved inputs of one generate->profile computation.
struct TraceCacheKey {
  std::string suite;       ///< suite token (workloads::ToName)
  std::string workload;    ///< workload name within the suite
  std::string gpu_digest;  ///< GpuDigest() of the profiling model
  double scale = 1.0;      ///< workload size scale
  uint64_t seed = 0;       ///< master seed (stage seeds derive from it)
  std::string build_stamp; ///< BuildStamp() of the producing binary

  /// Canonical pipe-delimited key string (content-hashed by the cache).
  std::string KeyString() const;
};

/// Where the trace entry for `key` lives in `dir`:
/// `<dir>/<FNV-1a64 of KeyString()>.srtc`. Cache entries and pipeline
/// spills share this name.
std::string TraceEntryPath(const std::string& dir, const TraceCacheKey& key);

/// Digest of the full hardware-model configuration: every GpuSpec field
/// (including the name) and every TimingParams field.
std::string GpuDigest(const hw::HardwareModel& gpu);

/// Canonical build-stamp string of this binary's BuildInfo.
std::string BuildStamp();

/// A directory of profiled-trace entries.
class TraceCache {
 public:
  /// One entry as seen by the Verify sweep.
  struct EntryInfo {
    std::string file;     ///< file name inside the cache directory
    uint64_t bytes = 0;   ///< file size on disk
    bool valid = false;   ///< opens, every chunk digest verifies, name
                          ///< matches the echoed key
    std::string problem;  ///< why `valid` is false ("" when valid)
  };

  struct Stats {
    uint64_t entries = 0;  ///< entry files present
    uint64_t bytes = 0;    ///< their total size
  };

  /// The directory is created lazily on the first Store.
  explicit TraceCache(std::string dir);

  const std::string& Dir() const { return dir_; }
  std::string EntryPath(const TraceCacheKey& key) const {
    return TraceEntryPath(dir_, key);
  }

  /// The trace on a verified hit (the entry echoes `key` and every chunk
  /// digest checks out while it is read); std::nullopt on a miss or any
  /// entry defect. Never throws.
  std::optional<KernelTrace> Load(const TraceCacheKey& key) const;

  /// Write the entry for `key` (EnsureTraceEntry: a valid entry already in
  /// place is kept). Best effort: returns false (with a warning log)
  /// instead of throwing -- a failed store must never fail the run.
  bool Store(const TraceCacheKey& key, const KernelTrace& trace) const;

  /// Entry count and total bytes. A missing directory is an empty cache.
  /// Entry files are `*.srtc` plus retired `*.srce` ones, which Load never
  /// reads, Verify reports as defective, and Evict removes.
  Stats GetStats() const;

  /// Verify every entry. Sorted by file name so the report is
  /// deterministic.
  std::vector<EntryInfo> Verify() const;

  /// Remove entries, oldest first by mtime, until the cache holds at most
  /// `max_bytes` (0 = remove everything). Returns the number of entries
  /// removed. Never throws; undeletable files are skipped.
  uint64_t Evict(uint64_t max_bytes = 0) const;

 private:
  std::string dir_;
};

/// The committed default directory, shared by the CLI and benches:
/// "bench_results/cache".
std::string DefaultTraceCacheDir();

/// Configure the process-wide cache: a directory enables it, "" or "none"
/// disables it (the library default). Call before parallel regions.
void SetTraceCacheDir(const std::string& dir);

/// The process-wide cache, or nullptr when disabled.
const TraceCache* DefaultTraceCache();

}  // namespace stemroot::eval
