/// perfbench_driver: runs one benchmark workload and prints its report.
///
///   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///                    --work-dir DIR [--threads N] [--stemroot PATH]
///
/// Output (stdout): free-form note lines, then one `deterministic {...}`
/// line (outputs that must not depend on timing, tracing or threads),
/// then one `result {...}` line that perfbench/run.py turns into the
/// benchmark's final JSON line. Exit 0 when the run completed (even if
/// correctness gates failed: those are reported as failed operations),
/// 1 on a usage or set-up error.

#include <cstdio>
#include <stdexcept>
#include <exception>
#include <map>
#include <string>

#include "common/json.h"
#include "common/parallel.h"
#include "perfbench.h"

namespace {

using perfbench::Args;
using perfbench::Report;

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--threads") args.threads = std::stoi(value);
    else if (flag == "--work-dir") args.work_dir = value;
    else if (flag == "--stemroot") args.stemroot = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  if (args.workload.empty() || args.work_dir.empty())
    throw std::invalid_argument("--workload and --work-dir are required");
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

std::string ObjectOf(const std::map<std::string, std::string>& raw) {
  std::string out = "{";
  for (const auto& [key, value] : raw) {
    if (out.size() > 1) out += ",";
    stemroot::json::AppendString(out, key);
    out += ":" + value;
  }
  return out + "}";
}

void Print(const Report& report) {
  for (const std::string& line : report.notes)
    std::printf("%s\n", line.c_str());
  std::map<std::string, std::string> det;
  for (const auto& [key, value] : report.deterministic) {
    std::string quoted;
    stemroot::json::AppendString(quoted, value);
    det[key] = quoted;
  }
  std::printf("deterministic %s\n", ObjectOf(det).c_str());

  std::map<std::string, std::string> metrics;
  for (const auto& [name, value_unit] : report.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value_unit.first);
    std::string entry = std::string("{\"value\":") + buf + ",\"unit\":";
    stemroot::json::AppendString(entry, value_unit.second);
    metrics[name] = entry + "}";
  }
  std::string failures = "[";
  for (const std::string& why : report.failures) {
    if (failures.size() > 1) failures += ",";
    stemroot::json::AppendString(failures, why);
  }
  failures += "]";
  std::printf("result {\"attempted\":%llu,\"failed\":%llu,\"failures\":%s,"
              "\"metrics\":%s}\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              failures.c_str(), ObjectOf(metrics).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = ParseArgs(argc, argv);
    stemroot::SetNumThreads(args.threads);
    std::printf("workload %s seed %llu seconds %g trace %d threads %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, stemroot::NumThreads());
    const std::map<std::string, Report (*)(const Args&)> workloads = {
        {"batch_sweep", perfbench::RunBatchSweep},
        {"stream_ooc", perfbench::RunStreamOoc},
        {"dse_sim", perfbench::RunDseSim},
        {"service_sessions", perfbench::RunServiceSessions}};
    const auto it = workloads.find(args.workload);
    if (it == workloads.end())
      throw std::invalid_argument("unknown workload " + args.workload);
    Print(it->second(args));
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
