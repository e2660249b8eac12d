#include "perfbench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <malloc.h>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string Digits(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Open spans of the calling thread, innermost last (wall-tree only).
thread_local std::vector<std::string> t_open_spans;

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics[name] = {value, unit};
}

void Report::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Report::Det(const std::string& name, double value) {
  deterministic[name] = Digits(value);
}

void Report::Det(const std::string& name, uint64_t value) {
  deterministic[name] = std::to_string(value);
}

void Report::Note(std::string line) { notes.push_back(std::move(line)); }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double WeightedQuantile(const std::vector<double>& values,
                        const std::vector<double>& weights, double q) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  double total = 0.0;
  for (double w : weights) total += w;
  double seen = 0.0;
  for (size_t i : order) {
    seen += weights[i];
    if (seen >= q * total) return values[i];
  }
  return values.empty() ? 0.0 : values[order.back()];
}

double HarmonicMean(const std::vector<double>& values) {
  double inv = 0.0;
  for (double v : values) inv += 1.0 / v;
  return values.empty() ? 0.0 : static_cast<double>(values.size()) / inv;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double TrimmedMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 5;
  return Mean(std::vector<double>(values.begin() + trim, values.end() - trim));
}

bool ResetPeakRss() {
  // Hand set-up's freed heap back first, then write "5" to clear_refs,
  // which resets VmHWM to the current RSS (Linux 4.0+).
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

LayerTrace::Span::Span(LayerTrace& trace, std::string_view name, bool pooled)
    : name_(name), pooled_(pooled) {
  if (!trace.enabled_) return;
  trace_ = &trace;
  if (!pooled_) t_open_spans.push_back(name_);
  cpu_start_ = ProcessCpuSeconds();
  start_ = Now();
}

LayerTrace::Span::~Span() {
  if (trace_ == nullptr) return;
  const double wall = Now() - start_;
  const double cpu = ProcessCpuSeconds() - cpu_start_;
  std::string parent;
  if (!pooled_) {
    t_open_spans.pop_back();
    if (!t_open_spans.empty()) parent = t_open_spans.back();
  }
  std::lock_guard<std::mutex> lock(trace_->mu_);
  Agg& agg = trace_->aggs_[name_];
  ++agg.count;
  agg.wall_s += wall;
  agg.cpu_s += cpu;
  if (pooled_) return;
  if (parent.empty())
    agg.top_level = true;
  else
    trace_->aggs_[parent].child_s += wall;
}

void LayerTrace::Add(const std::string& name, double wall_s) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  Agg& agg = aggs_[name];
  ++agg.count;
  agg.wall_s += wall_s;
  agg.top_level = true;
}

const LayerTrace::Agg* LayerTrace::Find(const std::string& name) const {
  const auto it = aggs_.find(name);
  return it == aggs_.end() ? nullptr : &it->second;
}

uint64_t LayerTrace::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Agg* agg = Find(name);
  return agg == nullptr ? 0 : agg->count;
}

double LayerTrace::WallMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Agg* agg = Find(name);
  return agg == nullptr ? 0.0 : agg->wall_s * 1e3;
}

double LayerTrace::SelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Agg* agg = Find(name);
  return agg == nullptr ? 0.0 : (agg->wall_s - agg->child_s) * 1e3;
}

double LayerTrace::CpuMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Agg* agg = Find(name);
  return agg == nullptr ? 0.0 : agg->cpu_s * 1e3;
}

double LayerTrace::TopLevelMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& [name, agg] : aggs_)
    if (agg.top_level) total += agg.wall_s;
  return total * 1e3;
}

}  // namespace perfbench
