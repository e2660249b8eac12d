/// \file
/// One object for the paper's Fig. 5 pipeline:
///
///   generate -> profile -> cluster+sample -> evaluate
///
/// Every front end (CLI, benches, RunSuite) used to wire these stages by
/// hand, each re-deriving the per-stage seeds; Pipeline owns that wiring
/// once so seeds, stage order, and telemetry spans cannot drift apart:
///
///   eval::Pipeline p = eval::Pipeline::Generate(
///       workloads::SuiteId::kCasio, "bert_infer", {.seed = 42});
///   p.Profile(hw::GpuSpec::Rtx2080());
///   core::SamplingPlan plan = p.Sample(*sampler);
///   eval::EvalResult result = p.Evaluate(*sampler, /*reps=*/10);
///
/// Seed contract (identical to the historical RunSuite wiring, so golden
/// results are unchanged): from one master seed,
///   generation uses DeriveSeed(seed, HashString(workload)),
///   profiling uses DeriveSeed(seed, kProfileStream),
///   sampling/evaluation use DeriveSeed(seed, HashString(sampler.Name()))
///     (rep r of Evaluate adds +r, and Sample equals rep 0).
///
/// Each stage runs inside a telemetry::Span named after the stage
/// ("generate" / "profile" / "sample" / "evaluate"; "cluster" is emitted
/// inside the samplers themselves), so `--telemetry` output always covers
/// the full pipeline.
///
/// Stages may run internally parallel (ProfileTrace, EvaluateRepeated use
/// ParallelFor) but a Pipeline object itself is single-owner: do not share
/// one instance across threads.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/plan.h"
#include "core/sampler.h"
#include "eval/manifest.h"
#include "eval/metrics.h"
#include "hw/hardware_model.h"
#include "trace/chunked.h"
#include "trace/trace.h"
#include "workloads/suite.h"

namespace stemroot::eval {

/// Seed stream for the profiling stage ("PROF"), shared with the
/// historical RunSuite derivation.
inline constexpr uint64_t kProfileStream = 0x50524F46ULL;

struct TraceCacheKey;  // eval/trace_cache.h

class Pipeline {
 public:
  struct Options {
    uint64_t seed = 42;      ///< master seed; see the seed contract above
    double size_scale = 1.0; ///< workload size scale for the generators
    /// Invocations per chunk for the chunked trace view
    /// (--trace-chunk-invocations). 0 = in-memory pipeline with a
    /// single-chunk view; > 0 sizes ChunkSource() chunks and the spill
    /// file. Chunking never changes results: Sample/Evaluate run over
    /// the same in-memory trace either way (byte-identity pinned by
    /// tests), only the trace's storage and streaming granularity move.
    uint64_t trace_chunk_invocations = 0;
    /// Directory for the chunked on-disk spill (--trace-spill). "" = no
    /// spill. When set, GenerateProfiled writes (or verifies and reuses)
    /// the trace entry for its trace-cache key there (EnsureTraceEntry,
    /// the routine behind the trace cache); a corrupt or stale spill file
    /// is rebuilt, never trusted.
    std::string trace_spill_dir;
  };

  /// Aggregate request for the generate(+profile) entry points: callers
  /// name the fields instead of threading positional argument lists, so
  /// adding a knob never silently reshuffles call sites. The hardware
  /// model stays a separate parameter -- it is an independently owned
  /// object, not part of the request's identity.
  struct Spec {
    workloads::SuiteId suite = workloads::SuiteId::kCasio;
    std::string workload;
    Options options;
  };

  /// Stage 1: generate the named workload of a suite.
  static Pipeline Generate(const Spec& spec);
  static Pipeline Generate(workloads::SuiteId suite,
                           const std::string& workload,
                           const Options& options);
  static Pipeline Generate(workloads::SuiteId suite,
                           const std::string& workload) {
    return Generate(suite, workload, Options{});
  }

  /// Stages 1+2 with transparent caching: generate the workload and
  /// profile it on `gpu`, consulting the process-wide trace cache
  /// (eval/trace_cache.h) when one is configured. On a verified hit the
  /// profiled trace is loaded instead of recomputed; the pipeline still
  /// emits (near-zero) "generate"/"profile" spans plus the stand-in
  /// workloads.*/hw.* counters those stages would have produced, so
  /// cold-run and warm-run manifests stay byte-identical in every
  /// deterministic field. On a miss the result is stored best-effort.
  /// With no cache configured this is exactly Generate(...).Profile(gpu).
  /// `gpu_name` is the provenance label for GpuName() (the spec overload
  /// passes its preset name).
  static Pipeline GenerateProfiled(const Spec& spec,
                                   const hw::HardwareModel& gpu,
                                   const std::string& gpu_name = "");
  static Pipeline GenerateProfiled(const Spec& spec, const hw::GpuSpec& gpu);
  static Pipeline GenerateProfiled(workloads::SuiteId suite,
                                   const std::string& workload,
                                   const hw::HardwareModel& gpu,
                                   const Options& options,
                                   const std::string& gpu_name = "");
  static Pipeline GenerateProfiled(workloads::SuiteId suite,
                                   const std::string& workload,
                                   const hw::GpuSpec& spec,
                                   const Options& options);

  /// Start from an existing trace (e.g. loaded from disk). If the trace
  /// already carries profiled durations, Profile() is optional.
  static Pipeline FromTrace(KernelTrace trace, const Options& options);
  static Pipeline FromTrace(KernelTrace trace) {
    return FromTrace(std::move(trace), Options{});
  }

  /// Stage 2: fill per-invocation durations with the hardware model.
  Pipeline& Profile(const hw::HardwareModel& gpu);
  /// Convenience overload constructing the model from a spec.
  Pipeline& Profile(const hw::GpuSpec& spec);

  /// Stage 3: cluster + size + pick samples. Equals rep 0 of Evaluate for
  /// the same sampler. Requires a profiled trace (std::logic_error
  /// otherwise).
  core::SamplingPlan Sample(const core::Sampler& sampler) const;

  /// Stage 4: run the sampler `reps` times (EvaluateRepeated semantics:
  /// harmonic-mean speedup, arithmetic-mean error). Requires a profiled
  /// trace (std::logic_error otherwise).
  EvalResult Evaluate(const core::Sampler& sampler, uint32_t reps) const;

  const KernelTrace& Trace() const { return trace_; }
  const Options& Opts() const { return options_; }
  bool Profiled() const { return profiled_; }

  /// Outcome of the chunked on-disk spill (GenerateProfiled with
  /// trace_spill_dir set). Default-initialized (enabled == false) on
  /// in-memory pipelines.
  struct SpillInfo {
    bool enabled = false;            ///< a spill file exists for this run
    std::string path;                ///< the "SRTC" file
    uint64_t chunk_invocations = 0;  ///< chunk capacity used
    uint64_t chunks = 0;             ///< chunks in the file
    uint64_t bytes = 0;              ///< file size
    bool reused = false;             ///< verified existing file, not rewritten
  };
  const SpillInfo& Spill() const { return spill_; }

  /// A chunk iterator over the profiled trace for streaming consumers
  /// (eval/stream.h): file-backed when this pipeline spilled, an
  /// in-memory slice view otherwise (single chunk when
  /// trace_chunk_invocations == 0). The source borrows this pipeline --
  /// keep the Pipeline alive while iterating. Throws std::runtime_error
  /// if a spill file turned corrupt since GenerateProfiled verified it.
  std::unique_ptr<ChunkSource> MakeChunkSource() const;

  /// Resolved provenance, recorded as the stages run: the suite name from
  /// Generate ("" for FromTrace pipelines), the workload name (from
  /// Generate, or the trace's own name for FromTrace), and the GPU preset
  /// name from the Profile(GpuSpec) overload ("" when profiling went
  /// through a bare HardwareModel or the trace arrived pre-profiled).
  const std::string& SuiteName() const { return suite_name_; }
  const std::string& WorkloadName() const { return workload_; }
  const std::string& GpuName() const { return gpu_name_; }

  /// Record this pipeline's resolved provenance and options into a run
  /// manifest's config section (suite, workload, gpu, seed, scale). The
  /// caller fills the sampler-side fields (method, epsilon, reps, ...) it
  /// resolved itself -- see RunManifest.
  void FillManifest(RunManifest& manifest) const;

 private:
  Pipeline(KernelTrace trace, const Options& options, bool profiled);

  void RequireProfiled(const char* stage) const;
  /// Write-or-verify the chunked spill file for this profiled trace
  /// (no-op when trace_spill_dir is empty).
  void MaybeSpill(const TraceCacheKey& key);

  KernelTrace trace_;
  Options options_;
  bool profiled_ = false;
  std::string suite_name_;
  std::string workload_;
  std::string gpu_name_;
  SpillInfo spill_;
};

}  // namespace stemroot::eval
