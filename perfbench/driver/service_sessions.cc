/// service_sessions: a closed loop of kClients connections against a real
/// `stemroot serve` child process.
///
/// Set-up starts a server on a fresh trace-cache directory, opens and
/// closes one session per CASIO workload so the cache holds every
/// profiled trace, shuts that server down, and starts the measured server
/// on the warm cache (so its latency histograms and peak RSS cover only
/// the measured phase). Each client then runs sessions back to back:
/// open (timeline order, epsilon 0.01) -> {feed 4096, query} until
/// converged -> eval -> close with a manifest. Session k serves CASIO
/// workload k mod 11; sessions 0..10 always run, so every workload is
/// covered once whatever the machine's speed.
///
/// The latency metrics are per session (open to close): per-request
/// percentiles would sit on the cliff between sub-millisecond queries and
/// tens-of-milliseconds feeds, which make up equal shares of the requests.
/// Each workload's median session latency is weighted by the invocations
/// its sessions feed, so the cut-off's partial cycle does not shift them.

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "eval/manifest.h"
#include "perfbench.h"
#include "workloads/casio.h"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr int kFeedCount = 4096;
constexpr const char* kVerbs[] = {"open", "feed", "query", "eval", "close"};

/// One persistent line-protocol connection.
class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + Errno());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + socket_path);
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      const std::string why = Errno();
      close(fd_);
      fd_ = -1;
      throw std::runtime_error("connect " + socket_path + ": " + why);
    }
  }
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request line and return the parsed response.
  stemroot::json::Value Request(const std::string& line) {
    const std::string out = line + "\n";
    for (size_t sent = 0; sent < out.size();) {
      const ssize_t n = send(fd_, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send: " + Errno());
      sent += static_cast<size_t>(n);
    }
    size_t eol;
    while ((eol = buffer_.find('\n')) == std::string::npos) {
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("server hung up");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const std::string response = buffer_.substr(0, eol);
    buffer_.erase(0, eol + 1);
    stemroot::json::Value value;
    std::string error;
    if (!stemroot::json::Parse(response, value, &error))
      throw std::runtime_error("bad response: " + error);
    return value;
  }

 private:
  static std::string Errno() { return std::strerror(errno); }
  int fd_ = -1;
  std::string buffer_;
};

double Num(const stemroot::json::Value& v, const char* key) {
  const stemroot::json::Value* f = v.Find(key);
  return f != nullptr && f->IsNumber() ? f->number : 0.0;
}

bool Flag(const stemroot::json::Value& v, const char* key) {
  const stemroot::json::Value* f = v.Find(key);
  return f != nullptr && f->kind == stemroot::json::Value::Kind::kBool &&
         f->number != 0.0;
}

bool Ok(const stemroot::json::Value& v) { return Flag(v, "ok"); }

/// A `stemroot serve` child process; shut down and reaped on destruction.
class Server {
 public:
  Server(const std::string& stemroot, const std::string& socket_path,
         const std::string& cache_dir, const std::string& log_path)
      : socket_path_(socket_path) {
    std::filesystem::remove(socket_path);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
      if (log >= 0) {
        dup2(log, STDOUT_FILENO);
        dup2(log, STDERR_FILENO);
      }
      execl(stemroot.c_str(), stemroot.c_str(), "serve", "--socket",
            socket_path.c_str(), "--cache", cache_dir.c_str(),
            "--max-sessions", "16", static_cast<char*>(nullptr));
      _exit(127);
    }
    const double deadline = Now() + 60.0;
    while (true) {
      try {
        Connection probe(socket_path_);
        if (Ok(probe.Request(R"({"op":"health"})"))) break;
      } catch (const std::exception&) {
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("stemroot serve exited during start-up; "
                                 "see " + log_path);
      }
      if (Now() > deadline) {
        Stop();
        throw std::runtime_error("stemroot serve did not come up");
      }
      usleep(5000);
    }
  }
  ~Server() { Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::string Pid() const { return std::to_string(pid_); }

  /// Ask for a clean shutdown; kill the child if it does not exit.
  void Stop() {
    if (pid_ <= 0) return;
    try {
      Connection c(socket_path_);
      c.Request(R"({"op":"shutdown"})");
    } catch (const std::exception&) {
    }
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      usleep(10000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

std::string OpenRequest(const std::string& workload, uint64_t seed) {
  return R"({"op":"open","method":"stem","suite":"casio","workload":")" +
         workload + R"(","epsilon":0.01,"order":"timeline","seed":)" +
         std::to_string(seed) + "}";
}

/// Everything one session observed.
struct SessionOutcome {
  std::string workload;
  double seconds = 0.0;  ///< open to close, as the client saw it
  bool failed = false;   ///< some request of the session failed
  uint64_t feeds = 0;
  uint64_t fed = 0;
  double error_pct = 0.0;
  double theoretical_error_pct = 0.0;
  double speedup = 0.0;
  uint64_t num_clusters = 0;
  uint64_t num_samples = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
};

/// Client-side request log shared by the client threads.
struct RequestLog {
  std::mutex mu;
  std::map<std::string, std::vector<double>> by_verb;
  uint64_t attempted = 0;
  std::vector<std::string> failures;

  void Record(const std::string& verb, double seconds, bool ok,
              const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    by_verb[verb].push_back(seconds);
    if (!ok) failures.push_back(verb + ": " + why);
  }
  /// Fail an operation that was already recorded as a request.
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    failures.push_back(why);
  }
};

/// Send one request, time it, and log it. Returns the response, or an
/// empty value when the request failed.
stemroot::json::Value Timed(Connection& conn, RequestLog& log,
                            const std::string& verb, const std::string& line,
                            LayerTrace& trace) {
  const double t0 = Now();
  stemroot::json::Value response;
  std::string why;
  try {
    response = conn.Request(line);
    if (!Ok(response)) {
      const stemroot::json::Value* error = response.Find("error");
      why = error != nullptr && error->IsString() ? error->string : "not ok";
    }
  } catch (const std::exception& e) {
    why = e.what();
  }
  const double elapsed = Now() - t0;
  log.Record(verb, elapsed, why.empty(), why);
  trace.Add("service." + verb, elapsed);
  if (!why.empty()) return stemroot::json::Value();
  return response;
}

SessionOutcome RunSession(Connection& conn, RequestLog& log,
                          const std::string& workload, uint64_t seed,
                          const std::string& manifest_path,
                          LayerTrace& trace) {
  SessionOutcome out;
  out.workload = workload;
  out.failed = true;
  const double start = Now();
  const auto open = Timed(conn, log, "open", OpenRequest(workload, seed),
                          trace);
  if (!Ok(open)) return out;
  const std::string id = std::to_string(static_cast<uint64_t>(Num(open, "id")));
  while (true) {
    const auto feed = Timed(conn, log, "feed",
                            R"({"op":"feed","id":)" + id + R"(,"count":)" +
                                std::to_string(kFeedCount) + "}",
                            trace);
    if (!Ok(feed)) return out;
    ++out.feeds;
    out.fed += static_cast<uint64_t>(Num(feed, "fed"));
    const auto query = Timed(conn, log, "query",
                             R"({"op":"query","id":)" + id + "}", trace);
    if (!Ok(query)) return out;
    if (Flag(query, "converged") || Flag(query, "early_stop") ||
        Num(query, "invocations_seen") >= Num(query, "invocations_total"))
      break;
  }
  const auto eval =
      Timed(conn, log, "eval", R"({"op":"eval","id":)" + id + "}", trace);
  if (!Ok(eval)) return out;
  out.error_pct = Num(eval, "error_pct");
  out.theoretical_error_pct = Num(eval, "theoretical_error_pct");
  out.speedup = Num(eval, "speedup");
  out.num_clusters = static_cast<uint64_t>(Num(eval, "num_clusters"));
  out.num_samples = static_cast<uint64_t>(Num(eval, "num_samples"));
  std::string close_line = R"({"op":"close","id":)" + id + R"(,"manifest":)";
  stemroot::json::AppendString(close_line, manifest_path);
  close_line += "}";
  const auto closed = Timed(conn, log, "close", close_line, trace);
  if (!Ok(closed)) return out;
  out.seconds = Now() - start;
  // The closed session's manifest must validate and agree with eval.
  try {
    const stemroot::eval::RunManifest manifest =
        stemroot::eval::RunManifest::Load(manifest_path);
    if (!manifest.completed || !manifest.metrics.present ||
        manifest.metrics.error_pct != out.error_pct)
      throw std::runtime_error("manifest disagrees with eval");
    const auto count = [&](const char* name) -> uint64_t {
      const auto it = manifest.counters.find(name);
      return it == manifest.counters.end() ? 0 : it->second;
    };
    out.cache_hits = count("cache.hit");
    out.cache_lookups = count("cache.hit") + count("cache.miss");
    std::filesystem::remove(manifest_path);
    out.failed = false;
  } catch (const std::exception& e) {
    log.Fail("close: " + workload + " manifest: " + e.what());
  }
  return out;
}

}  // namespace

Report RunServiceSessions(const Args& args) {
  if (args.stemroot.empty())
    throw std::invalid_argument("service_sessions needs --stemroot");
  Report report;
  const std::vector<std::string>& workloads = stemroot::workloads::CasioNames();
  const std::filesystem::path dir =
      std::filesystem::path(args.work_dir) / "service";
  const std::string socket_path =
      (dir / ("serve-" + std::to_string(getpid()) + ".sock")).string();
  const std::string cache_dir = (dir / "cache").string();
  const std::string log_path = (dir / "serve.log").string();
  const std::string manifest_dir = (dir / "manifests").string();

  std::unique_ptr<Server> server;
  const double setup_s = MedianSetup([&](bool last) {
    server.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(manifest_dir);
    {
      Server warm(args.stemroot, socket_path, cache_dir, log_path);
      Connection conn(socket_path);
      for (const std::string& w : workloads) {
        const auto open = conn.Request(OpenRequest(w, args.seed));
        if (!Ok(open)) throw std::runtime_error("warm-up open failed: " + w);
        const std::string id =
            std::to_string(static_cast<uint64_t>(Num(open, "id")));
        if (!Ok(conn.Request(R"({"op":"close","id":)" + id + "}")))
          throw std::runtime_error("warm-up close failed: " + w);
      }
    }
    server = std::make_unique<Server>(args.stemroot, socket_path, cache_dir,
                                      log_path);
    if (!last) server.reset();
  });

  LayerTrace trace(args.trace);
  RequestLog log;
  std::vector<SessionOutcome> outcomes;
  std::mutex outcomes_mu;
  std::atomic<uint64_t> next_session{0};
  std::vector<std::string> client_errors;
  const double start = Now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Connection conn(socket_path);
        while (true) {
          const uint64_t k = next_session.fetch_add(1);
          if (k >= workloads.size() && Now() - start >= args.seconds) break;
          const std::string manifest =
              manifest_dir + "/session-" + std::to_string(k) + ".json";
          SessionOutcome outcome =
              RunSession(conn, log, workloads[k % workloads.size()],
                         args.seed, manifest, trace);
          std::lock_guard<std::mutex> lock(outcomes_mu);
          outcomes.resize(std::max<size_t>(outcomes.size(), k + 1));
          outcomes[k] = std::move(outcome);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(outcomes_mu);
        client_errors.push_back("client " + std::to_string(c) + ": " +
                                e.what());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_s = Now() - start;

  // The server joins every connection before it exits, so this one must
  // close before the shutdown below.
  const stemroot::json::Value stats =
      Connection(socket_path).Request(R"({"op":"stats"})");
  const double server_peak_mb = PeakRssMb(server->Pid());
  server.reset();

  report.attempted = log.attempted;
  for (const std::string& why : log.failures) report.Fail(why);
  for (const std::string& why : client_errors) report.Fail(why);

  // Deterministic outputs: the first session of each workload.
  std::vector<double> errors;
  std::vector<double> speedups;
  uint64_t fed = 0;
  uint64_t feeds = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  std::map<std::string, std::vector<double>> session_ms;
  for (size_t k = 0; k < outcomes.size(); ++k) {
    const SessionOutcome& s = outcomes[k];
    // A failed session counts as missing any latency limit.
    session_ms[s.workload].push_back(s.failed ? args.seconds * 1e3
                                              : s.seconds * 1e3);
    fed += s.fed;
    feeds += s.feeds;
    cache_hits += s.cache_hits;
    cache_lookups += s.cache_lookups;
    if (k >= workloads.size()) {
      const SessionOutcome& ref = outcomes[k % workloads.size()];
      if (s.fed != ref.fed || s.error_pct != ref.error_pct) {
        ++report.attempted;
        report.Fail(s.workload + ": session differs from its first run");
      }
      continue;
    }
    // Gate: the realized error stays inside the plan's Eq. 2 budget.
    ++report.attempted;
    if (!(s.speedup >= 1.0) ||
        (s.theoretical_error_pct > 0.0 &&
         s.error_pct > s.theoretical_error_pct))
      report.Fail(s.workload + ": session error outside its Eq. 2 budget");
    errors.push_back(s.error_pct);
    speedups.push_back(s.speedup);
    const std::string prefix = "svc." + s.workload + ".";
    report.Det(prefix + "fed", s.fed);
    report.Det(prefix + "feeds", s.feeds);
    report.Det(prefix + "error_pct", s.error_pct);
    report.Det(prefix + "speedup", s.speedup);
    report.Det(prefix + "clusters", s.num_clusters);
    report.Det(prefix + "samples", s.num_samples);
  }
  const double error_pct = TrimmedMean(errors);
  const double speedup = HarmonicMean(speedups);
  report.Det("error_pct", error_pct);
  report.Det("sample_speedup_x", speedup);

  std::vector<double> latencies;
  std::vector<double> weights;
  for (size_t k = 0; k < workloads.size() && k < outcomes.size(); ++k) {
    latencies.push_back(Median(session_ms[outcomes[k].workload]));
    weights.push_back(
        static_cast<double>(std::max<uint64_t>(outcomes[k].fed, 1)));
  }
  std::vector<double> request_ms;
  for (const auto& [verb, latencies] : log.by_verb)
    for (double l : latencies) request_ms.push_back(l * 1e3);
  report.Metric("setup_s", setup_s, "s");
  report.Metric("peak_rss_mb", server_peak_mb, "MB");
  report.Metric("work_per_s", static_cast<double>(fed) / wall_s, "1/s");
  report.Metric("op_p50_ms", WeightedQuantile(latencies, weights, 0.5), "ms");
  report.Metric("op_p90_ms", WeightedQuantile(latencies, weights, 0.9), "ms");
  report.Metric("error_pct", error_pct, "%");
  report.Metric("sample_speedup_x", speedup, "x");

  char line[320];
  std::snprintf(line, sizeof(line),
                "service_sessions: %zu sessions, %llu requests in %.2fs "
                "(%.3f sessions/s; request p50 %.2fms p99 %.2fms); STEM "
                "error trimmed mean %.4f%%, mean %.4f%%",
                outcomes.size(),
                static_cast<unsigned long long>(log.attempted), wall_s,
                static_cast<double>(outcomes.size()) / wall_s,
                Quantile(request_ms, 0.5), Quantile(request_ms, 0.99),
                error_pct, Mean(errors));
  report.Note(line);

  if (args.trace) {
    const stemroot::json::Value* verbs = stats.Find("verbs");
    double client_total_ms = 0.0;
    double server_total_ms = 0.0;
    for (const char* verb : kVerbs) {
      const std::string name = std::string("service.") + verb;
      std::vector<double> v = log.by_verb[verb];
      for (double& l : v) l *= 1e3;
      client_total_ms += trace.WallMs(name);
      report.Metric(name + "_p50_ms", Quantile(v, 0.5), "ms");
      const stemroot::json::Value* sv =
          verbs != nullptr ? verbs->Find(verb) : nullptr;
      if (sv == nullptr) continue;
      report.Metric("service.server_" + std::string(verb) + "_p50_ms",
                    Num(*sv, "p50_us") / 1e3, "ms");
      server_total_ms += Num(*sv, "mean_us") * Num(*sv, "requests") / 1e3;
    }
    report.Metric("service.request_p99_ms", Quantile(request_ms, 0.99),
                  "ms");
    report.Metric("service.transport_wait_ms",
                  client_total_ms - server_total_ms, "ms");
    report.Metric("service.feeds_per_session",
                  static_cast<double>(feeds) /
                      static_cast<double>(outcomes.size()),
                  "count");
    report.Metric("service.sessions_per_s",
                  static_cast<double>(outcomes.size()) / wall_s, "1/s");
    report.Metric("cache.hit_ratio",
                  cache_lookups > 0 ? static_cast<double>(cache_hits) /
                                          static_cast<double>(cache_lookups)
                                    : 0.0,
                  "ratio");
    report.Metric("wall_ms", wall_s * 1e3, "ms");
    // Client threads overlap, so each thread's share of the wall is the
    // wall time minus its own requests.
    report.Metric("unattributed_ms",
                  wall_s * 1e3 - client_total_ms / kClients, "ms");
  }
  return report;
}

}  // namespace perfbench
