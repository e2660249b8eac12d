/// \file
/// Shared pieces of the repository benchmark driver: run arguments, the
/// report every workload fills, small statistics helpers, process
/// resource probes, and the outside-in layer trace.
///
/// The driver measures the library from the outside: it times the calls
/// it makes into each module's public entry points and reads the
/// library's existing telemetry counters. Nothing inside src/ is
/// instrumented for it.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;     ///< traced run: per-layer metrics instead
  int threads = 0;        ///< library pool size; 0 = hardware concurrency
  std::string work_dir;   ///< scratch directory for files a run writes
  std::string stemroot;   ///< the `stemroot` CLI (service workload)
};

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupReps = 3;

/// What one workload run produced.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Outputs that must not depend on timing, tracing or thread count,
  /// pre-formatted with every digit (compared byte-wise by selfcheck.py).
  std::map<std::string, std::string> deterministic;
  std::vector<std::string> notes;  ///< human-readable lines for stdout

  void Metric(const std::string& name, double value, const std::string& unit);
  /// Count one failed operation with its reason.
  void Fail(const std::string& why);
  void Det(const std::string& name, double value);
  void Det(const std::string& name, uint64_t value);
  void Note(std::string line);
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of this process.
double ProcessCpuSeconds();

/// Nearest-rank quantile (q in [0, 1]): always one of the values, so a
/// percentile never interpolates across the gap between two groups of
/// workloads. 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Nearest-rank quantile where value i counts weights[i] times: with
/// per-workload latencies weighted by invocations, the latency the q-th
/// invocation of the mix saw. Workload mixes are lumpy (half of
/// batch_sweep's workloads are Rodinia runs of a few milliseconds), and an
/// unweighted percentile would sit on the gap between two groups.
double WeightedQuantile(const std::vector<double>& values,
                        const std::vector<double>& weights, double q);
double HarmonicMean(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
/// Mean after dropping floor(n / 5) values from each end: the error
/// aggregate of every workload. Realized sampling errors have a heavy
/// tail in the seed (a prefix that converges early, a trace with two
/// samples), and a plain mean would let one of them swing a run.
double TrimmedMean(std::vector<double> values);

/// Reset this process's peak-RSS watermark to its current RSS, so the
/// measured phase's peak excludes set-up. Returns false when the kernel
/// refuses (the peak then includes set-up).
bool ResetPeakRss();
/// VmHWM of a process ("self" or a pid) in MiB; 0 when unreadable.
double PeakRssMb(const std::string& pid = "self");

/// Time `fn` kSetupReps times; returns the median seconds.
template <typename Fn>
double MedianSetup(Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < kSetupReps; ++i) {
    const double start = Now();
    fn(i == kSetupReps - 1);
    times.push_back(Now() - start);
  }
  return Median(times);
}

/// Outside-in layer trace: spans the driver opens around its calls into
/// the library. Each span name aggregates count, wall time, process CPU
/// time, and the wall time of spans nested inside it on the same thread
/// (so self = wall - children). Spans marked `pooled` run on pool lanes
/// concurrently with each other; their time is host time summed over
/// lanes and stays out of the wall-time tree. Inert when disabled.
class LayerTrace {
 public:
  explicit LayerTrace(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(LayerTrace& trace, std::string_view name, bool pooled = false);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    LayerTrace* trace_ = nullptr;  ///< null when tracing is off
    std::string name_;
    bool pooled_ = false;
    double start_ = 0.0;
    double cpu_start_ = 0.0;
  };

  /// Record an already measured interval (e.g. a latency the client
  /// observed) under `name` as a top-level span.
  void Add(const std::string& name, double wall_s);

  uint64_t Count(const std::string& name) const;
  double WallMs(const std::string& name) const;
  double SelfMs(const std::string& name) const;
  double CpuMs(const std::string& name) const;
  /// Wall time of all top-level (non-nested, non-pooled) spans.
  double TopLevelMs() const;

 private:
  struct Agg {
    uint64_t count = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double child_s = 0.0;
    bool top_level = false;
  };
  const Agg* Find(const std::string& name) const;

  bool enabled_;
  mutable std::mutex mu_;
  std::map<std::string, Agg> aggs_;
};

Report RunBatchSweep(const Args& args);
Report RunStreamOoc(const Args& args);
Report RunDseSim(const Args& args);
Report RunServiceSessions(const Args& args);

}  // namespace perfbench
