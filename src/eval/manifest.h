/// \file
/// Run manifests: one validated JSON document per `stemroot` command or
/// bench run, capturing everything needed to compare that run against
/// another -- the full resolved configuration, the build-info stamp, wall
/// time per pipeline stage, a telemetry counter snapshot, and the headline
/// accuracy metrics.
///
/// Schema "stemroot-manifest-v1":
///
///   {
///     "schema": "stemroot-manifest-v1",
///     "tool": "stemroot",            // or the bench binary's name
///     "command": "run",              // or "bench"
///     "completed": true,             // false = partial/abnormal-exit flush
///     "build": { git_hash, git_dirty, compiler, build_type, sanitizer },
///     "config": { suite, workload, gpu, method, epsilon, confidence,
///                 scale, seed, reps, threads,
///                 sim_shards, sim_threads, epoch_cycles,  // sim_* only
///                                        // when simulator sharding is in
///                                        // play (sim_shards >= 1)
///                 bench_args },          // only when a bench got
///                                        // google-benchmark arguments
///     "wall_time_seconds": 1.23,
///     "stages": [ { "name": "generate", "count": 1,
///                   "total_us": 123.4 }, ... ],
///     "counters": { "kkt.iterations": 42, ... },
///     "metrics": {                   // optional: absent for stage-only
///       "error_pct": 0.81,           //   commands (generate, profile, ...)
///       "theoretical_error_pct": 5.0,
///       "speedup": 123.0,
///       "num_samples": 321,
///       "num_clusters": 17
///     },
///     "journal": { "emitted": 12, "dropped": 0, "errors": 0 },
///                                    // optional: only when a journal
///                                    //   was open (serve sessions)
///     "mem": {                       // optional: only when resource
///       "peak_rss_bytes": 104857600, //   accounting ran (DESIGN.md §15);
///       "samples": 12,               //   physical peaks environmental,
///       "logical": { "trace": 1234, ... }  // logical peaks deterministic
///     },
///     "trace_spill": {               // optional: only when the run
///       "chunk_invocations": 65536,  //   spilled the trace out-of-core
///       "chunks": 3,                 //   (--trace-spill, DESIGN.md §16)
///       "bytes": 1234567
///     },
///     "error": "..."                 // optional: why the run failed
///   }
///
/// Manifests are written pretty-printed for humans (`--manifest FILE`) and
/// as compact single lines into the append-only ledger
/// (src/eval/ledger.h). `stemroot compare` diffs two manifests;
/// `stemroot regress` checks the newest ledger entry against a rolling
/// baseline (src/eval/regress.h). `stemroot check manifest` validates
/// files in CI. The determinism contract (DESIGN.md) makes the config,
/// counters, and metrics sections byte-identical at any --threads for a
/// fixed seed; only wall times vary.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/build_info.h"
#include "common/telemetry.h"

namespace stemroot::eval {

inline constexpr std::string_view kManifestSchema = "stemroot-manifest-v1";

/// One run's provenance + results. Field meanings in the schema above.
struct RunManifest {
  /// Wall time of one pipeline stage (aggregated over span parents, the
  /// StageReport view).
  struct Stage {
    std::string name;
    uint64_t count = 0;
    double total_us = 0.0;
  };

  /// The resolved run configuration. Unused string fields stay "";
  /// unused numeric fields stay 0 (scale defaults to 1).
  struct Config {
    std::string suite;
    std::string workload;
    std::string gpu;
    std::string method;
    double epsilon = 0.0;
    double confidence = 0.0;
    double scale = 1.0;
    uint64_t seed = 0;
    uint32_t reps = 0;
    int threads = 0;
    /// Simulator sharding (0 = sharding not in play for this command).
    /// sim_shards is a modeling knob: it changes results, so it gates
    /// comparability and joins the fingerprint. sim_threads is a pacing
    /// knob excluded from both by the §12 determinism contract;
    /// epoch_cycles likewise never changes results but does change wall
    /// time, so it joins the fingerprint (perf baselines are only
    /// comparable at equal pacing) while staying out of the compare gate.
    uint32_t sim_shards = 0;
    int sim_threads = 0;
    uint64_t epoch_cycles = 0;
    /// The google-benchmark arguments of a bench run that bench::Session
    /// does not consume (--benchmark_filter=..., --benchmark_min_time=...),
    /// space-joined in argv order; "" for everything else. They choose
    /// which benchmarks run and how long, so they join the fingerprint
    /// and the compare gate; serialized only when non-empty, so older
    /// manifests keep their fingerprint.
    std::string bench_args;
  };

  /// Headline accuracy/budget metrics (EvalResult view).
  struct Metrics {
    bool present = false;  ///< serialized only when true
    double error_pct = 0.0;
    double theoretical_error_pct = 0.0;
    double speedup = 0.0;
    uint64_t num_samples = 0;
    uint64_t num_clusters = 0;
  };

  /// Event-journal health at manifest time (common/journal.h), stamped by
  /// runs that had a journal open. Environmental like wall times — it
  /// never joins the fingerprint or the compare gate, but `stemroot
  /// regress` gates on errors (and optionally drops) so a run whose
  /// journal recorded failures cannot pass silently.
  struct Journal {
    bool present = false;  ///< serialized only when true
    uint64_t emitted = 0;
    uint64_t dropped = 0;
    uint64_t errors = 0;
  };

  /// Memory footprint at manifest time (common/resource.h, DESIGN.md
  /// §15). Two natures under one block: `peak_rss_bytes`/`samples` are
  /// *physical* — environmental like wall times, never part of the
  /// fingerprint or the compare gate, but regress-gated against a rolling
  /// baseline. `logical` holds the deterministic per-category peaks from
  /// resource::Account/AccountPeak — byte-identical at any thread count
  /// for a fixed seed, so compare gates them (categories under the
  /// environmental `cache`/`service` prefixes excluded, same rule as the
  /// counter gate).
  struct Mem {
    bool present = false;  ///< serialized only when true
    uint64_t peak_rss_bytes = 0;  ///< physical high water (0 = unknown)
    uint64_t samples = 0;         ///< sampler ticks folded into the peak
    std::map<std::string, uint64_t> logical;  ///< category -> peak bytes
  };

  /// Out-of-core chunked-trace spill of this run (Pipeline::SpillInfo
  /// view; eval/stream.h, DESIGN.md §16). Present only when the run
  /// spilled (--trace-spill). chunk_invocations joins the fingerprint
  /// like epoch_cycles -- it never changes results (byte-identity is the
  /// chunked-pipeline contract) but does change the wall-time profile, so
  /// perf baselines split on it; the compare gate excludes it, chunked
  /// and in-memory runs of the same config must compare clean.
  struct TraceSpill {
    bool present = false;            ///< serialized only when true
    uint64_t chunk_invocations = 0;  ///< chunk capacity of the spill file
    uint64_t chunks = 0;             ///< chunks written/reused
    uint64_t bytes = 0;              ///< spill file size (environmental)
  };

  std::string tool;
  std::string command;
  bool completed = false;
  BuildInfo build;
  Config config;
  double wall_time_seconds = 0.0;
  std::vector<Stage> stages;
  std::map<std::string, uint64_t> counters;
  Metrics metrics;
  Journal journal;
  Mem mem;
  TraceSpill trace_spill;
  std::string error;  ///< non-empty only for failed runs

  /// Serialize. `pretty` selects the indented multi-line form (manifest
  /// files); the compact form is the single-line ledger encoding.
  std::string ToJson(bool pretty) const;

  /// Parse + full schema validation. Returns false (with a one-line
  /// reason in `error` when non-null) for anything that does not conform.
  static bool FromJson(std::string_view text, RunManifest& out,
                       std::string* error);

  /// Read + parse a manifest file. Throws std::runtime_error on an
  /// unreadable file or invalid manifest.
  static RunManifest Load(const std::string& path);

  /// Write ToJson(pretty=true) to `path`. Throws std::runtime_error on
  /// failure.
  void Save(const std::string& path) const;

  /// Identity of the run configuration for baseline matching: tool,
  /// command, and every Config field *including* threads (wall times are
  /// only comparable at equal parallelism) but excluding the build stamp
  /// (comparing across revisions is the whole point of the ledger).
  std::string Fingerprint() const;

  /// Stage row by name; nullptr when absent.
  const Stage* FindStage(std::string_view name) const;

  /// Fill `stages` (StageReport aggregation: canonical pipeline stages
  /// first, then other span names alphabetically) and `counters` from a
  /// telemetry snapshot.
  void FillFromSnapshot(const telemetry::Snapshot& snapshot);

  /// Stamp `build` from this binary's GetBuildInfo().
  void StampBuild() { build = GetBuildInfo(); }
};

/// Validate a manifest document (`stemroot check manifest`, tests).
/// Equivalent to RunManifest::FromJson with the result discarded.
bool ValidateManifestJson(std::string_view text, std::string* error);

}  // namespace stemroot::eval
