/// stream_ooc: out-of-core streaming over on-disk SRTC traces.
///
/// Set-up profiles every HuggingFace model, each scaled to about 150k
/// invocations, and spills each trace to an SRTC file through the
/// pipeline's --trace-spill path. One measured cycle streams every file
/// once with clustering on and kDecodePasses times decode-only, through
/// eval::StreamTrace over a FileChunkSource on one thread; cycles repeat
/// until --seconds have passed. Six traces rather than one keep the
/// figures from hanging on one seed's cluster structure. A ChunkSource
/// decorator times every chunk load, so the trace layer is measured where
/// the stream reads it.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "core/kkt.h"
#include "eval/pipeline.h"
#include "eval/stream.h"
#include "hw/gpu_spec.h"
#include "perfbench.h"
#include "trace/chunked.h"

namespace perfbench {

namespace {

struct StreamInput {
  const char* workload;
  double scale;  ///< brings the trace to about 150k invocations
};
const std::vector<StreamInput> kInputs = {
    {"bert", 0.19}, {"bloom", 0.24},    {"deit", 0.88},
    {"gemma", 0.18}, {"gpt2", 0.14}, {"resnet50", 0.55}};
/// Small chunks make the passes genuinely out-of-core (about 3 MB each).
constexpr uint64_t kChunkInvocations = 32768;
/// Decode-only passes per clustered pass.
constexpr int kDecodePasses = 2;

/// Forwards to a source, times every chunk load as "trace.chunk_load",
/// and, while `latencies` is set, records the load time of full chunks.
class TimedChunkSource : public stemroot::ChunkSource {
 public:
  TimedChunkSource(const stemroot::ChunkSource& inner, LayerTrace& trace)
      : inner_(inner), trace_(trace) {}

  const stemroot::KernelTrace& Header() const override {
    return inner_.Header();
  }
  uint64_t NumInvocations() const override { return inner_.NumInvocations(); }
  size_t NumChunks() const override { return inner_.NumChunks(); }
  uint64_t ChunkCapacity() const override { return inner_.ChunkCapacity(); }
  std::vector<stemroot::KernelInvocation> Chunk(size_t i) const override {
    LayerTrace::Span span(trace_, "trace.chunk_load");
    const double start = Now();
    std::vector<stemroot::KernelInvocation> chunk = inner_.Chunk(i);
    if (latencies != nullptr && chunk.size() == ChunkCapacity())
      latencies->push_back(Now() - start);
    return chunk;
  }

  std::vector<double>* latencies = nullptr;

 private:
  const stemroot::ChunkSource& inner_;
  LayerTrace& trace_;
};

bool SamePass(const stemroot::eval::StreamResult& a,
              const stemroot::eval::StreamResult& b) {
  return a.invocations == b.invocations && a.chunks == b.chunks &&
         a.total_duration_us == b.total_duration_us &&
         a.clusters.size() == b.clusters.size() && a.splits == b.splits &&
         a.merges == b.merges;
}

}  // namespace

Report RunStreamOoc(const Args& args) {
  Report report;
  const std::filesystem::path spill_dir =
      std::filesystem::path(args.work_dir) / "stream";

  std::vector<std::string> spill_paths;
  const double setup_s = MedianSetup([&](bool) {
    std::filesystem::remove_all(spill_dir);
    std::filesystem::create_directories(spill_dir);
    spill_paths.clear();
    for (const StreamInput& input : kInputs) {
      stemroot::eval::Pipeline::Spec spec;
      spec.suite = stemroot::workloads::SuiteId::kHuggingface;
      spec.workload = input.workload;
      spec.options.seed = args.seed;
      spec.options.size_scale = input.scale;
      spec.options.trace_chunk_invocations = kChunkInvocations;
      spec.options.trace_spill_dir = spill_dir.string();
      const stemroot::eval::Pipeline pipeline =
          stemroot::eval::Pipeline::GenerateProfiled(
              spec, stemroot::hw::GpuSpec::Rtx2080());
      if (!pipeline.Spill().enabled || pipeline.Spill().reused)
        throw std::runtime_error("stream_ooc: a trace was not spilled");
      spill_paths.push_back(pipeline.Spill().path);
    }
  });

  LayerTrace trace(args.trace);
  std::vector<std::unique_ptr<stemroot::FileChunkSource>> files;
  std::vector<std::unique_ptr<TimedChunkSource>> sources;
  for (const std::string& path : spill_paths) {
    files.push_back(std::make_unique<stemroot::FileChunkSource>(path));
    sources.push_back(std::make_unique<TimedChunkSource>(*files.back(), trace));
  }
  stemroot::eval::StreamOptions clustered;
  clustered.seed = args.seed;
  stemroot::eval::StreamOptions decode = clustered;
  decode.cluster = false;

  if (args.trace) {
    stemroot::telemetry::Reset();
    stemroot::telemetry::SetEnabled(true);
  }
  const bool rss_reset = ResetPeakRss();

  const size_t n = kInputs.size();
  std::vector<stemroot::eval::StreamResult> first(n);
  std::vector<std::vector<double>> clustered_s(n);
  std::vector<double> chunk_s;
  std::map<std::string, uint64_t> cycle_counters;
  size_t cycles = 0;
  const double start = Now();
  while (cycles == 0 || Now() - start < args.seconds) {
    const stemroot::telemetry::Snapshot before =
        args.trace ? stemroot::telemetry::Capture()
                   : stemroot::telemetry::Snapshot();
    for (size_t i = 0; i < n; ++i) {
      TimedChunkSource& source = *sources[i];
      const double t0 = Now();
      stemroot::eval::StreamResult result;
      {
        LayerTrace::Span span(trace, "eval.stream_clustered");
        result = stemroot::eval::StreamTrace(source, clustered);
      }
      clustered_s[i].push_back(Now() - t0);
      ++report.attempted;
      if (cycles == 0) {
        first[i] = result;
        if (result.invocations != source.NumInvocations())
          report.Fail(std::string(kInputs[i].workload) +
                      ": clustered pass lost invocations");
      } else if (!SamePass(result, first[i])) {
        report.Fail(std::string(kInputs[i].workload) +
                    ": clustered pass differs from the first one");
      }
      source.latencies = &chunk_s;
      for (int d = 0; d < kDecodePasses; ++d) {
        stemroot::eval::StreamResult pass;
        {
          LayerTrace::Span span(trace, "eval.stream_decode");
          pass = stemroot::eval::StreamTrace(source, decode);
        }
        ++report.attempted;
        // A decode-only pass must see exactly what the clustered pass saw.
        if (pass.invocations != first[i].invocations ||
            pass.total_duration_us != first[i].total_duration_us ||
            pass.chunks != first[i].chunks)
          report.Fail(std::string(kInputs[i].workload) +
                      ": decode-only pass disagrees with the clustered pass");
      }
      source.latencies = nullptr;
    }
    if (cycles++ == 0 && args.trace)
      cycle_counters = stemroot::telemetry::CounterDeltas(
          before, stemroot::telemetry::Capture());
  }
  const double wall_s = Now() - start;

  // Per trace, the KKT allocation over the streamed clusters that meets
  // the service's epsilon of 0.01: its Eq. 2 error and the cost reduction
  // it predicts (the stream path builds no plan yet, so nothing is
  // realized). At 0.05 the per-cluster floor often leaves the allocation
  // short of binding, and its error jumps between traces.
  stemroot::core::StemConfig stem = clustered.clustering.root.stem;
  stem.epsilon = 0.01;
  double invocations = 0.0;
  double median_sum = 0.0;
  uint64_t chunks = 0;
  uint64_t splits = 0;
  uint64_t resident_budget = 0;
  std::vector<double> errors;
  std::vector<double> speedups;
  for (size_t i = 0; i < n; ++i) {
    const stemroot::eval::StreamResult& r = first[i];
    invocations += static_cast<double>(r.invocations);
    median_sum += Median(clustered_s[i]);
    chunks += r.chunks;
    splits += r.splits;
    resident_budget = std::max(resident_budget, r.resident_budget_bytes);
    const stemroot::core::KktSolution kkt =
        stemroot::core::SolveKkt(r.clusters, stem);
    errors.push_back(kkt.theoretical_error * 100.0);
    speedups.push_back(r.total_duration_us / kkt.cost_us);
    if (!(kkt.theoretical_error <= stem.epsilon) || !(speedups.back() >= 1.0))
      report.Fail(std::string(kInputs[i].workload) +
                  ": KKT allocation over the streamed clusters is invalid");
    uint64_t samples = 0;
    for (uint64_t m : kkt.sample_sizes) samples += m;
    const std::string prefix =
        std::string("stream.") + kInputs[i].workload + ".";
    report.Det(prefix + "invocations", r.invocations);
    report.Det(prefix + "chunks", r.chunks);
    report.Det(prefix + "total_duration_us", r.total_duration_us);
    report.Det(prefix + "clusters", static_cast<uint64_t>(r.clusters.size()));
    report.Det(prefix + "splits", r.splits);
    report.Det(prefix + "merges", r.merges);
    report.Det(prefix + "resident_budget_bytes", r.resident_budget_bytes);
    report.Det(prefix + "kkt_samples", samples);
  }
  const double error_pct = TrimmedMean(errors);
  const double speedup = HarmonicMean(speedups);
  report.Det("error_pct", error_pct);
  report.Det("sample_speedup_x", speedup);

  std::vector<double> chunk_ms = chunk_s;
  for (double& c : chunk_ms) c *= 1e3;
  report.Metric("setup_s", setup_s, "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("work_per_s", invocations / median_sum, "1/s");
  report.Metric("op_p50_ms", Quantile(chunk_ms, 0.5), "ms");
  report.Metric("op_p90_ms", Quantile(chunk_ms, 0.9), "ms");
  report.Metric("error_pct", error_pct, "%");
  report.Metric("sample_speedup_x", speedup, "x");

  char line[320];
  std::snprintf(line, sizeof(line),
                "stream_ooc: %zu traces, %.0f invocations in %llu chunks; %zu "
                "cycles in %.2fs; clustered %.0f inv/s, decode-only %.0f "
                "inv/s (median full chunk)%s",
                n, invocations, static_cast<unsigned long long>(chunks),
                cycles, wall_s, invocations / median_sum,
                static_cast<double>(kChunkInvocations) / Median(chunk_s),
                rss_reset ? "" : " (peak RSS includes set-up)");
  report.Note(line);

  if (args.trace) {
    stemroot::telemetry::SetEnabled(false);
    // Clustered self time minus what the decode-only passes spend on the
    // same chunks outside the chunk loads: what streaming ROOT costs.
    const double streaming_self_ms =
        trace.SelfMs("eval.stream_clustered") -
        trace.SelfMs("eval.stream_decode") / kDecodePasses;
    const auto counter = [&](const char* name) {
      const auto it = cycle_counters.find(name);
      return it == cycle_counters.end() ? 0.0
                                        : static_cast<double>(it->second);
    };
    const double kmeans_runs = counter("core.kmeans.runs");
    report.Metric("trace.chunk_load_ms", trace.WallMs("trace.chunk_load"),
                  "ms");
    report.Metric("trace.chunks", static_cast<double>(chunks), "count");
    report.Metric("core.streaming_self_ms", streaming_self_ms, "ms");
    report.Metric("core.kmeans.runs", kmeans_runs, "count");
    report.Metric("core.kmeans.iterations",
                  counter("core.kmeans.iterations"), "count");
    report.Metric("core.streaming.split_accept_ratio",
                  kmeans_runs > 0 ? static_cast<double>(splits) / kmeans_runs
                                  : 0.0,
                  "ratio");
    report.Metric("eval.stream.resident_budget_bytes",
                  static_cast<double>(resident_budget), "bytes");
    report.Metric("eval.stream_decode_self_ms",
                  trace.SelfMs("eval.stream_decode"), "ms");
    report.Metric("wall_ms", wall_s * 1e3, "ms");
    report.Metric("unattributed_ms", wall_s * 1e3 - trace.TopLevelMs(), "ms");
    report.Det("counter.core.kmeans.runs", static_cast<uint64_t>(kmeans_runs));
    report.Det("counter.core.kmeans.iterations",
               static_cast<uint64_t>(counter("core.kmeans.iterations")));
  }
  return report;
}

}  // namespace perfbench
