/// \file
/// Process-wide pipeline telemetry: RAII wall-time spans, monotonic
/// counters, and value distributions, with JSON/CSV export.
///
/// Design constraints (DESIGN.md "Telemetry and the Pipeline facade"):
///
/// - **Off by default, near-zero when off.** Every entry point checks one
///   relaxed atomic and returns immediately when telemetry is disabled, so
///   instrumented hot paths (the ROOT recursion, the KKT solver, per-plan
///   bookkeeping) cost a load+branch in normal runs. Enable with
///   SetEnabled(true) (the CLI/benches do this when --telemetry is given).
/// - **Determinism.** Counters and distributions are schedule-invariant:
///   every thread records into its own mutex-guarded buffer, and Capture()
///   merges buffers into order-independent aggregates (integer sums for
///   counters; a sorted value multiset for distributions, whose mean is
///   summed in sorted order). Instrumentation must never count
///   schedule-dependent events (chunks, steals, thread ids) -- only facts
///   derived from (seed, index) like the rest of the library. Under that
///   rule the counters/distributions sections of the export are
///   byte-identical at any thread count; only span wall times (and span
///   parentage, which reflects per-thread nesting) may vary.
/// - **TSan cleanliness.** All shared state is mutex-protected; the
///   per-thread buffer mutex is uncontended on the hot path. Capture() and
///   Reset() must not race a parallel region that is still recording
///   (call them between regions, as the CLI and benches do).
/// - **Attribution.** A Sink is a private destination: inside a SinkScope
///   the calling thread's Count/Record/Span land in the sink instead of
///   the global aggregate, and ParallelFor/ParallelMap/ParallelLanes run
///   their pool tasks under the submitting thread's sink, so work on pool
///   threads is credited to whoever submitted it.
///
/// Spans aggregate by (name, parent) where parent is the innermost open
/// span on the same thread ("" at top level -- e.g. inside a worker-thread
/// task). Use Span for pipeline stages, Count/Record for everything else.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace stemroot::telemetry {

struct Tally;   ///< unsorted counters/values/span aggregates (telemetry.cc)
struct Buffer;  ///< one mutex-guarded Tally (telemetry.cc)

/// Turn collection on or off (default off). Flipping the switch does not
/// clear existing data; pair with Reset() for a fresh run.
void SetEnabled(bool enabled);
bool Enabled();

/// Add `delta` to the named monotonic counter (no-op when disabled).
void Count(std::string_view name, uint64_t delta = 1);

/// Record one observation of the named distribution. Non-finite values are
/// dropped (they would poison the deterministic sorted merge).
void Record(std::string_view name, double value);

/// RAII wall-time span. Nest freely; the innermost open span on the same
/// thread becomes the parent. Inert when telemetry is disabled at
/// construction time. Tolerates SetEnabled flipping mid-span: a span that
/// opened while enabled always pops its stack entry, but only records an
/// aggregate if telemetry is still enabled at destruction.
///
/// When the trace-event subsystem (common/trace_events.h) is enabled, a
/// Span additionally emits a begin/end trace-event pair, independent of
/// the telemetry switch -- so `--trace` sees the pipeline stages even
/// without `--telemetry`.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::string parent_;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;  ///< telemetry recording (stack entry pushed)
  bool traced_ = false;  ///< trace-event begin emitted
};

/// Aggregated wall-time statistics of one (name, parent) span identity.
struct SpanStats {
  std::string name;
  std::string parent;
  uint64_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

/// Five-number summary of a distribution (computed over the sorted value
/// multiset; p50/p99 are nearest-rank quantiles).
struct DistSummary {
  uint64_t count = 0;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// A merged, immutable view of everything recorded so far.
class Snapshot {
 public:
  /// Counter name -> cumulative value, sorted by name.
  const std::map<std::string, uint64_t>& Counters() const {
    return counters_;
  }
  /// Distribution name -> sorted observations.
  const std::map<std::string, std::vector<double>>& Distributions() const {
    return values_;
  }
  /// Span aggregates keyed by (name, parent), sorted.
  const std::map<std::pair<std::string, std::string>, SpanStats>& Spans()
      const {
    return spans_;
  }

  uint64_t Counter(std::string_view name) const;  ///< 0 when absent
  DistSummary Dist(std::string_view name) const;  ///< zeros when absent
  /// True when a span with this name was recorded under any parent.
  bool HasSpan(std::string_view name) const;

  /// Full export: {"schema": ..., "counters": {...},
  /// "distributions": {...}, "spans": [...]}.
  std::string ToJson() const;
  /// Flat CSV export: kind,name,parent,count,min,mean,max,p50,p99,total.
  std::string ToCsv() const;
  /// The counters object alone, e.g. {"a":1,"b":2} -- byte-identical
  /// across thread counts (the determinism contract).
  std::string CountersJson() const;
  /// The distributions object alone -- also byte-identical.
  std::string DistributionsJson() const;

 private:
  friend struct Tally;

  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::vector<double>> values_;
  std::map<std::pair<std::string, std::string>, SpanStats> spans_;
};

/// Merge every live thread buffer into the central aggregate and return a
/// copy. Cumulative: repeated captures include everything since the last
/// Reset(). Do not call while a parallel region is recording.
Snapshot Capture();

/// Per-counter increase from `before` to `after` (both cumulative
/// snapshots of one process). Counters absent from `before` count from
/// zero; counters that did not grow are omitted, so the result is exactly
/// the activity of the window.
std::map<std::string, uint64_t> CounterDeltas(const Snapshot& before,
                                              const Snapshot& after);

/// Clear the central aggregate and all live thread buffers. Sinks are
/// left alone: each belongs to whoever created it.
void Reset();

/// A private recording destination with one mutex-guarded buffer. What a
/// thread records inside a SinkScope on it never reaches Capture(); the
/// sink's own Capture() merges it exactly as the global one does, so its
/// counters and distributions are byte-identical at any thread count.
/// A sink must outlive every scope that routes into it.
class Sink {
 public:
  Sink();
  ~Sink();

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Everything recorded into this sink so far (not drained).
  Snapshot Capture() const;

 private:
  friend Buffer& Target();

  std::unique_ptr<Buffer> buffer_;
};

/// RAII: route the calling thread's Count/Record/Span into `sink` until
/// the scope closes, then restore the previous route. nullptr routes to
/// the global aggregate.
class SinkScope {
 public:
  explicit SinkScope(Sink* sink);
  ~SinkScope();

  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;

 private:
  Sink* previous_;
};

/// The calling thread's current sink; nullptr outside any SinkScope.
Sink* CurrentSink();

}  // namespace stemroot::telemetry
