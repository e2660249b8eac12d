/// \file
/// Shared plumbing for the bench binaries: the standard sampler roster
/// (Table 1's four methods + uniform random, built via the sampler
/// registry), result directories, the experiment-wide default seed, and the
/// Session helper every bench main opens first (threads + telemetry).
///
/// Every bench prints the paper-table layout to stdout and mirrors the raw
/// series into bench_results/*.csv (like the paper artifact's per-figure
/// CSVs).

#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/sampler.h"
#include "core/sampler_registry.h"

namespace stemroot::bench {

/// Master seed shared by all benches (reproducible end to end).
inline constexpr uint64_t kSeed = 20251018;  // MICRO '25 week

/// Where benches drop their CSVs.
inline std::string ResultsDir() {
  const std::string dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Owning container for a sampler roster.
struct SamplerSet {
  std::vector<std::unique_ptr<core::Sampler>> owned;
  std::vector<const core::Sampler*> pointers;

  void Add(std::unique_ptr<core::Sampler> sampler) {
    pointers.push_back(sampler.get());
    owned.push_back(std::move(sampler));
  }
};

/// Per-bench run scope, opened first thing in every bench main:
///
///   int main(int argc, char** argv) {
///     bench::Session session(argc, argv);
///     ...
///   }
///
/// Parses `--threads N` (0 = auto; STEMROOT_THREADS works too -- results
/// are bit-identical at any thread count), `--telemetry FILE` (enables
/// the telemetry subsystem; the destructor captures and writes the export,
/// .csv extension selecting CSV over JSON), `--trace FILE` (records Chrome
/// trace events, written by the destructor), `--log-level L`
/// (silent|warn|inform|debug), `--ledger FILE` (override the run
/// ledger path; `--ledger none` disables the append), and
/// `--cache DIR|none` (relocate or disable the content-addressed
/// profiled-trace cache, default bench_results/cache -- a warm cache
/// skips the generate+profile stages with byte-identical results).
///
/// Every bench run leaves a machine-readable stemroot-manifest-v1 run
/// manifest at bench_results/BENCH_<name>.json (the bench name is
/// argv[0]'s basename): the constructor flushes it immediately with
/// `"completed": false`, and the destructor rewrites it with the final
/// wall time, build stamp, telemetry stage/counter data (when enabled),
/// and `"completed": true` -- so a crashed, OOM-killed, or timed-out
/// bench still leaves evidence of what started and never finished. On
/// clean completion the manifest is also appended to the perf ledger
/// (bench_results/ledger.jsonl by default; see src/eval/ledger.h), which
/// `stemroot regress` gates on.
class Session {
 public:
  Session(int argc, const char* const* argv);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Resolved parallelism after --threads / STEMROOT_THREADS.
  int threads() const { return threads_; }

  /// Record the simulator sharding knobs in the run manifest (benches that
  /// drive the cycle-level engine call this once after parsing their
  /// flags). sim_shards joins the manifest fingerprint, so ledger
  /// baselines split per shard count; the default 0 omits the block.
  void SetShardConfig(uint32_t sim_shards, int sim_threads,
                      uint64_t epoch_cycles) {
    sim_shards_ = sim_shards;
    sim_threads_ = sim_threads;
    epoch_cycles_ = epoch_cycles;
  }

  /// Record the run as failed: the destructor then writes the manifest
  /// with completed=false and appends nothing to the ledger.
  void MarkFailed() { failed_ = true; }

  /// Bench name derived from argv[0] (basename, no directories).
  const std::string& name() const { return name_; }

  /// Remove the Session-consumed flag pairs (--threads, --telemetry,
  /// --trace, --log-level, --ledger, --cache) from argv in place,
  /// updating *argc:
  /// benches
  /// that forward argv to another parser (google-benchmark) call this
  /// after constructing the Session so the foreign parser never sees our
  /// flags.
  static void StripFlags(int* argc, char** argv);

 private:
  /// Manifest skeleton for this run; completed=false until the destructor.
  void WriteManifest(bool completed) const;

  int threads_ = 0;
  bool failed_ = false;
  uint32_t sim_shards_ = 0;
  int sim_threads_ = 0;
  uint64_t epoch_cycles_ = 0;
  std::string name_;
  /// google-benchmark arguments recorded in the manifest config (their
  /// filter, repetitions, min time...): see RunManifest::Config.
  std::string bench_args_;
  std::string telemetry_path_;
  std::string trace_path_;
  std::string ledger_path_;  ///< empty = append disabled
  std::chrono::steady_clock::time_point start_;
};

/// The paper's comparison roster for a suite (Sec. 5):
/// Random(p), PKA, Sieve, Photon, STEM -- built through the global
/// SamplerRegistry (the same path the CLI uses). Per Sec. 5.1 the
/// evaluation uses the hand-tuned random-representative variants of
/// PKA/Sieve on Rodinia (first-chronological fails catastrophically there)
/// and disables Sieve's KDE on CASIO (it oversamples); `rodinia_tuning`
/// selects that.
SamplerSet MakeStandardSamplers(double random_probability,
                                bool rodinia_tuning);

/// Build one sampler through the global SamplerRegistry (ensuring the
/// builtin samplers are registered first). Shorthand for benches that need
/// a single method or a parameter sweep.
std::unique_ptr<core::Sampler> MakeSampler(
    const std::string& name, const core::SamplerParams& params);
std::unique_ptr<core::Sampler> MakeSampler(const std::string& name);

}  // namespace stemroot::bench
