#include "common/telemetry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>

#include "common/csv.h"
#include "common/json.h"
#include "common/str.h"
#include "common/trace_events.h"

namespace stemroot::telemetry {

namespace {

struct SpanAgg {
  uint64_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;

  void Add(double us) {
    if (count == 0) {
      min_us = max_us = us;
    } else {
      min_us = std::min(min_us, us);
      max_us = std::max(max_us, us);
    }
    ++count;
    total_us += us;
  }

  void Merge(const SpanAgg& other) {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    count += other.count;
    total_us += other.total_us;
    min_us = std::min(min_us, other.min_us);
    max_us = std::max(max_us, other.max_us);
  }
};

using SpanKey = std::pair<std::string, std::string>;  // (name, parent)

}  // namespace

struct Tally {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::vector<double>> values;
  std::map<SpanKey, SpanAgg> spans;

  /// Move everything from `other` into this tally and clear `other`.
  void Drain(Tally& other) {
    for (const auto& [name, value] : other.counters) counters[name] += value;
    for (auto& [name, vals] : other.values) {
      std::vector<double>& mine = values[name];
      mine.insert(mine.end(), vals.begin(), vals.end());
    }
    for (const auto& [key, agg] : other.spans) spans[key].Merge(agg);
    other.Clear();
  }

  void Clear() {
    counters.clear();
    values.clear();
    spans.clear();
  }

  /// The one merge into a Snapshot, for Capture() and Sink::Capture().
  /// Distributions merge deterministically as a sorted multiset: the value
  /// *set* is schedule-invariant even though arrival order is not.
  Snapshot Freeze() const {
    Snapshot snap;
    snap.counters_ = counters;
    snap.values_ = values;
    for (auto& [name, vals] : snap.values_)
      std::sort(vals.begin(), vals.end());
    for (const auto& [key, agg] : spans)
      snap.spans_[key] = {key.first, key.second, agg.count, agg.total_us,
                          agg.min_us, agg.max_us};
    return snap;
  }
};

/// One thread's (or one sink's) staging area. A thread buffer's mutex is
/// uncontended on the hot path (only Capture/Reset from another thread
/// ever take it); a sink's is shared by the pool tasks working for it.
struct Buffer {
  std::mutex mu;
  Tally tally;
};

namespace {

/// Central aggregate + the list of live thread buffers. Leaked on purpose:
/// worker threads may outlive static destruction order, and their
/// thread_local handles must always find a live registry.
struct Registry {
  std::atomic<bool> enabled{false};
  std::mutex mu;  ///< guards buffers + the central tally below
  std::vector<std::shared_ptr<Buffer>> buffers;
  Tally central;
};

Registry& Reg() {
  static Registry* registry = new Registry;
  return *registry;
}

/// Thread-exit hook: flush the buffer into the central aggregate and drop
/// it from the live list.
struct TlsHandle {
  std::shared_ptr<Buffer> buf;

  ~TlsHandle() {
    if (!buf) return;
    Registry& reg = Reg();
    std::lock_guard<std::mutex> reg_lock(reg.mu);
    {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      reg.central.Drain(buf->tally);
    }
    std::erase(reg.buffers, buf);
  }
};

Buffer& LocalBuffer() {
  thread_local TlsHandle handle;
  if (!handle.buf) {
    handle.buf = std::make_shared<Buffer>();
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(handle.buf);
  }
  return *handle.buf;
}

/// The sink the calling thread records into (nullptr = its own buffer).
thread_local Sink* tls_sink = nullptr;

/// Innermost open span names of the current thread (for parent lookup).
thread_local std::vector<std::string>* tls_span_stack = nullptr;

std::vector<std::string>& SpanStack() {
  // Leaked per-thread vector: spans can close during thread_local
  // destruction; a plain thread_local vector could already be gone.
  if (tls_span_stack == nullptr)
    tls_span_stack = new std::vector<std::string>;
  return *tls_span_stack;
}

DistSummary Summarize(const std::vector<double>& sorted) {
  DistSummary s;
  s.count = sorted.size();
  if (sorted.empty()) return s;
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  auto quantile = [&sorted](double q) {
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(q * static_cast<double>(sorted.size())));
    return sorted[idx];
  };
  s.p50 = quantile(0.50);
  s.p99 = quantile(0.99);
  return s;
}

void AppendDistJson(std::string& out, const DistSummary& s) {
  out += Format("{\"count\":%llu,\"min\":",
                static_cast<unsigned long long>(s.count));
  out += json::Number(s.min);
  out += ",\"mean\":";
  out += json::Number(s.mean);
  out += ",\"max\":";
  out += json::Number(s.max);
  out += ",\"p50\":";
  out += json::Number(s.p50);
  out += ",\"p99\":";
  out += json::Number(s.p99);
  out += '}';
}

}  // namespace

Buffer& Target() {
  return tls_sink != nullptr ? *tls_sink->buffer_ : LocalBuffer();
}

void SetEnabled(bool enabled) {
  Reg().enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return Reg().enabled.load(std::memory_order_relaxed); }

void Count(std::string_view name, uint64_t delta) {
  if (!Enabled()) return;
  Buffer& buf = Target();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.tally.counters[std::string(name)] += delta;
}

void Record(std::string_view name, double value) {
  if (!Enabled()) return;
  if (!std::isfinite(value)) return;
  Buffer& buf = Target();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.tally.values[std::string(name)].push_back(value);
}

Span::Span(std::string_view name) {
  const bool telemetry_on = Enabled();
  const bool tracing_on = trace_events::Enabled();
  if (!telemetry_on && !tracing_on) return;
  name_ = std::string(name);
  if (tracing_on) {
    traced_ = true;
    trace_events::Begin(name_);
  }
  if (!telemetry_on) return;
  active_ = true;
  std::vector<std::string>& stack = SpanStack();
  if (!stack.empty()) parent_ = stack.back();
  stack.push_back(name_);
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  // Balanced even if tracing was flipped off mid-span.
  if (traced_) trace_events::EndOpen(name_);
  if (!active_) return;
  const double us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start_)
          .count();
  // The stack entry was pushed at construction, so it must be popped no
  // matter what SetEnabled did since -- otherwise an outer span would
  // inherit a stale parent. Recording the aggregate, however, honors the
  // *current* switch: a span closing after SetEnabled(false) leaves no
  // trace in the next Capture().
  std::vector<std::string>& stack = SpanStack();
  if (!stack.empty() && stack.back() == name_) stack.pop_back();
  if (!Enabled()) return;
  Buffer& buf = Target();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.tally.spans[SpanKey(name_, parent_)].Add(us);
}

uint64_t Snapshot::Counter(std::string_view name) const {
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0 : it->second;
}

DistSummary Snapshot::Dist(std::string_view name) const {
  const auto it = values_.find(std::string(name));
  return it == values_.end() ? DistSummary{} : Summarize(it->second);
}

bool Snapshot::HasSpan(std::string_view name) const {
  for (const auto& [key, stats] : spans_)
    if (key.first == name) return true;
  return false;
}

std::string Snapshot::CountersJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ',';
    first = false;
    json::AppendString(out, name);
    out += Format(":%llu", static_cast<unsigned long long>(value));
  }
  out += '}';
  return out;
}

std::string Snapshot::DistributionsJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vals] : values_) {
    if (!first) out += ',';
    first = false;
    json::AppendString(out, name);
    out += ':';
    AppendDistJson(out, Summarize(vals));
  }
  out += '}';
  return out;
}

std::string Snapshot::ToJson() const {
  std::string out = "{\"schema\":\"stemroot-telemetry-v1\",\"counters\":";
  out += CountersJson();
  out += ",\"distributions\":";
  out += DistributionsJson();
  out += ",\"spans\":[";
  bool first = true;
  for (const auto& [key, stats] : spans_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::AppendString(out, stats.name);
    out += ",\"parent\":";
    json::AppendString(out, stats.parent);
    out += Format(",\"count\":%llu,\"total_us\":%.3f,\"min_us\":%.3f,"
                  "\"max_us\":%.3f}",
                  static_cast<unsigned long long>(stats.count),
                  stats.total_us, stats.min_us, stats.max_us);
  }
  out += "]}";
  return out;
}

std::string Snapshot::ToCsv() const {
  // Names are usually code-controlled identifiers, but nothing stops a
  // caller from embedding a comma or quote -- RFC 4180 quoting keeps the
  // export parseable regardless.
  std::string out = "kind,name,parent,count,min,mean,max,p50,p99,total\n";
  for (const auto& [name, value] : counters_) {
    out += "counter," + CsvWriter::Quote(name) + ",," +
           Format("%llu", static_cast<unsigned long long>(value)) +
           ",,,,,,\n";
  }
  for (const auto& [name, vals] : values_) {
    const DistSummary s = Summarize(vals);
    // FormatDouble, not %.17g: snprintf would write the global locale's
    // decimal point into the CSV cells.
    out += "distribution," + CsvWriter::Quote(name) + ",," +
           Format("%llu", static_cast<unsigned long long>(s.count)) + "," +
           FormatDouble(s.min) + "," + FormatDouble(s.mean) + "," +
           FormatDouble(s.max) + "," + FormatDouble(s.p50) + "," +
           FormatDouble(s.p99) + ",\n";
  }
  for (const auto& [key, stats] : spans_) {
    out += "span," + CsvWriter::Quote(stats.name) + "," +
           CsvWriter::Quote(stats.parent) + "," +
           Format("%llu", static_cast<unsigned long long>(stats.count)) +
           "," + FormatDoubleFixed(stats.min_us, 3) + ",," +
           FormatDoubleFixed(stats.max_us, 3) + ",,," +
           FormatDoubleFixed(stats.total_us, 3) + "\n";
  }
  return out;
}

Snapshot Capture() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const std::shared_ptr<Buffer>& buf : reg.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    reg.central.Drain(buf->tally);
  }
  return reg.central.Freeze();
}

std::map<std::string, uint64_t> CounterDeltas(const Snapshot& before,
                                              const Snapshot& after) {
  std::map<std::string, uint64_t> deltas;
  for (const auto& [name, value] : after.Counters()) {
    const uint64_t prior = before.Counter(name);
    if (value > prior) deltas[name] = value - prior;
  }
  return deltas;
}

void Reset() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (const std::shared_ptr<Buffer>& buf : reg.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->tally.Clear();
  }
  reg.central.Clear();
}

Sink::Sink() : buffer_(std::make_unique<Buffer>()) {}

Sink::~Sink() = default;

Snapshot Sink::Capture() const {
  std::lock_guard<std::mutex> lock(buffer_->mu);
  return buffer_->tally.Freeze();
}

SinkScope::SinkScope(Sink* sink) : previous_(tls_sink) { tls_sink = sink; }

SinkScope::~SinkScope() { tls_sink = previous_; }

Sink* CurrentSink() { return tls_sink; }

}  // namespace stemroot::telemetry
