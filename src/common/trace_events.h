/// \file
/// Chrome-trace event recording: a process-wide, bounded per-thread ring
/// buffer of timestamped begin/end/instant/counter events, exported as
/// Chrome trace-event JSON (load the file in Perfetto or chrome://tracing
/// to see the pipeline timeline). `--trace FILE` on the CLI and on every
/// bench turns it on.
///
/// Design constraints (DESIGN.md "Tracing and the error-budget audit"):
///
/// - **Off by default, near-zero when off.** Every entry point checks one
///   relaxed atomic and returns immediately when tracing is disabled --
///   the same cost contract as telemetry (common/telemetry.h). Both
///   subsystems are independent: `telemetry::Span` feeds whichever of the
///   two is enabled.
/// - **Bounded memory.** Each thread records into a fixed-capacity ring
///   (SetRingCapacity, default 65536 events). When the ring wraps, the
///   oldest events are overwritten and counted as dropped; ExportJson
///   repairs the resulting unbalanced begin/end pairs (a drop removes the
///   oldest prefix, so an end whose begin was dropped is skipped, and a
///   begin still open at export time is skipped) and reports both counts
///   in "otherData".
/// - **Wall-clock events are not deterministic.** Timestamps, thread ids,
///   and event interleavings reflect the schedule; traces are a
///   performance-debugging view, never an input to results. Per-thread
///   timestamps are monotonic (steady clock), which `stemroot check
///   trace` verifies.
/// - **TSan cleanliness.** Rings are mutex-guarded per thread (uncontended
///   on the hot path); Export/Reset take every ring's mutex.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stemroot::trace_events {

/// Turn recording on or off (default off). Pair with Reset() for a fresh
/// trace; flipping the switch does not clear recorded events.
void SetEnabled(bool enabled);
bool Enabled();

/// Per-thread ring capacity in events. Applies to rings created after the
/// call; existing rings adopt the new capacity on the next Reset(). Throws
/// std::invalid_argument for 0.
void SetRingCapacity(size_t events);
size_t RingCapacity();

/// Record a duration-begin ("B") / duration-end ("E") event on the
/// calling thread. Pairs must nest per thread; prefer Scope.
void Begin(std::string_view name);
void End(std::string_view name);

/// Record the matching end for a begin that was already emitted, even if
/// tracing has been disabled since. RAII holders (Scope here,
/// telemetry::Span) use this so begin/end pairs stay balanced across a
/// mid-scope SetEnabled(false); everything else should call End.
void EndOpen(std::string_view name);

/// Record an instant ("i", thread-scoped) event.
void Instant(std::string_view name);

/// Record a counter ("C") sample: the named series takes `value` at the
/// current timestamp.
void CounterValue(std::string_view name, double value);

/// RAII begin/end pair. Inert when tracing is disabled at construction;
/// always emits the matching end if it emitted the begin (even if tracing
/// is flipped off mid-scope, so pairs stay balanced).
class Scope {
 public:
  explicit Scope(std::string_view name);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::string name_;
  bool active_ = false;
};

/// Recording totals since the last Reset().
struct Stats {
  uint64_t recorded = 0;  ///< events written (including later-overwritten)
  uint64_t dropped = 0;   ///< events overwritten by ring wrap
  size_t threads = 0;     ///< threads that recorded at least one event
};
Stats GetStats();

/// Export everything recorded so far as a Chrome trace-event JSON object:
/// {"displayTimeUnit":"ms","otherData":{...},"traceEvents":[...]}.
/// Events are grouped per thread in chronological order; begin/end pairs
/// are balanced (see the repair rule above).
std::string ExportJson();

/// ExportJson to a file; throws std::runtime_error when it cannot write.
void WriteTrace(const std::string& path);

/// Clear every ring and the drop counters.
void Reset();

/// Post-validation stats from ValidateTraceJson.
struct TraceInfo {
  size_t events = 0;
  size_t threads = 0;
};

/// Strict validation of an exported trace: full JSON parse (common/json),
/// schema tag "stemroot-trace-v1" in "otherData", a "traceEvents" array
/// whose entries carry name/ph/ts/pid/tid, per-thread balanced and
/// name-matched B/E nesting, non-decreasing per-thread timestamps, and a
/// numeric args.value on every counter event. `stemroot check trace`
/// wraps this. `names` (when non-null) receives every event name in file
/// order.
bool ValidateTraceJson(std::string_view json, std::string* error,
                       std::vector<std::string>* names = nullptr,
                       TraceInfo* info = nullptr);

}  // namespace stemroot::trace_events
