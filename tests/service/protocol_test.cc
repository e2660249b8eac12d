#include "service/protocol.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.h"
#include "eval/manifest.h"
#include "service/server.h"

namespace stemroot::service {
namespace {

/// Parse a broker response (every response must be valid JSON).
json::Value Parsed(const BrokerResult& result) {
  json::Value value;
  std::string error;
  EXPECT_TRUE(json::Parse(result.response, value, &error)) << error;
  return value;
}

bool Ok(const json::Value& response) {
  const json::Value* ok = response.Find("ok");
  return ok != nullptr && ok->number != 0.0;
}

double Num(const json::Value& response, std::string_view key) {
  const json::Value* v = response.Find(key);
  EXPECT_NE(v, nullptr) << key;
  return v == nullptr ? 0.0 : v->number;
}

class ProtocolTest : public ::testing::Test {
 protected:
  Service service_;
  SessionBroker broker_{service_};

  BrokerResult Handle(const std::string& line) {
    return broker_.HandleLine(line);
  }

  /// Open a tiny session and return its id.
  SessionId Open() {
    const BrokerResult result = Handle(
        R"({"op":"open","suite":"casio","workload":"bert_infer",)"
        R"("scale":0.05,"seed":99,"reps":2,"order":"shuffled"})");
    EXPECT_TRUE(result.ok) << result.response;
    return static_cast<SessionId>(Num(Parsed(result), "id"));
  }
};

TEST_F(ProtocolTest, RejectsMalformedLines) {
  EXPECT_FALSE(Handle("not json").ok);
  EXPECT_FALSE(Handle("[1,2,3]").ok);
  EXPECT_FALSE(Handle(R"({"no_op":true})").ok);
  EXPECT_FALSE(Handle(R"({"op":"florble"})").ok);
  const json::Value response = Parsed(Handle(R"({"op":"florble"})"));
  EXPECT_FALSE(Ok(response));
  EXPECT_NE(response.Find("error"), nullptr);
}

TEST_F(ProtocolTest, OpenValidatesRequests) {
  // Protocol sessions are source-fed: suite+workload are mandatory.
  EXPECT_FALSE(Handle(R"({"op":"open"})").ok);
  EXPECT_FALSE(Handle(R"({"op":"open","suite":"casio"})").ok);
  EXPECT_FALSE(
      Handle(R"({"op":"open","suite":"casio","workload":"bert_infer",)"
             R"("order":"sideways"})")
          .ok);
  EXPECT_FALSE(
      Handle(R"({"op":"open","suite":"casio","workload":"bert_infer",)"
             R"("epsilon":"tight"})")
          .ok);
  EXPECT_FALSE(
      Handle(R"({"op":"open","suite":"nope","workload":"bert_infer"})").ok);
  EXPECT_EQ(service_.NumOpenSessions(), 0u);
}

TEST_F(ProtocolTest, SessionRoundTrip) {
  const SessionId id = Open();
  EXPECT_EQ(service_.NumOpenSessions(), 1u);
  const std::string sid = std::to_string(id);

  // feed advances the session and reports convergence state.
  const json::Value fed = Parsed(
      Handle(R"({"op":"feed","id":)" + sid + R"(,"count":64})"));
  EXPECT_TRUE(Ok(fed));
  EXPECT_EQ(Num(fed, "fed"), 64.0);
  EXPECT_EQ(Num(fed, "seen"), 64.0);

  const json::Value status = Parsed(
      Handle(R"({"op":"query","id":)" + sid + R"(,"clusters":true})"));
  EXPECT_TRUE(Ok(status));
  EXPECT_EQ(Num(status, "invocations_seen"), 64.0);
  EXPECT_GT(Num(status, "invocations_total"), 64.0);
  EXPECT_GT(Num(status, "predicted_error"), 0.0);
  const json::Value* clusters = status.Find("clusters");
  ASSERT_NE(clusters, nullptr);
  ASSERT_TRUE(clusters->IsArray());
  EXPECT_FALSE(clusters->array->empty());
  EXPECT_NE(clusters->array->front().Find("kernel"), nullptr);

  const json::Value plan =
      Parsed(Handle(R"({"op":"plan","id":)" + sid + "}"));
  EXPECT_TRUE(Ok(plan));
  EXPECT_GT(Num(plan, "num_samples"), 0.0);

  const json::Value eval =
      Parsed(Handle(R"({"op":"eval","id":)" + sid + "}"));
  EXPECT_TRUE(Ok(eval));
  EXPECT_GT(Num(eval, "speedup"), 0.0);

  const json::Value stats = Parsed(Handle(R"({"op":"stats"})"));
  EXPECT_TRUE(Ok(stats));
  EXPECT_EQ(Num(stats, "open_sessions"), 1.0);

  const std::filesystem::path manifest_path =
      std::filesystem::temp_directory_path() /
      ("sr_protocol_manifest_" + sid + ".json");
  std::string close = R"({"op":"close","id":)" + sid + R"(,"manifest":)";
  json::AppendString(close, manifest_path.string());
  close += "}";
  const json::Value closed = Parsed(Handle(close));
  EXPECT_TRUE(Ok(closed));
  EXPECT_EQ(service_.NumOpenSessions(), 0u);

  // The written manifest round-trips as a stemroot-manifest-v1 document.
  const eval::RunManifest manifest =
      eval::RunManifest::Load(manifest_path.string());
  EXPECT_EQ(manifest.command, "session");
  EXPECT_TRUE(manifest.completed);
  EXPECT_EQ(manifest.config.workload, "bert_infer");
  EXPECT_EQ(manifest.counters.at("service.feed_invocations"), 64u);
  std::filesystem::remove(manifest_path);

  // The closed id is dead, and the broker reports that as an error
  // response rather than a dropped connection.
  EXPECT_FALSE(Handle(R"({"op":"query","id":)" + sid + "}").ok);
}

TEST_F(ProtocolTest, FeedValidatesArguments) {
  const SessionId id = Open();
  const std::string sid = std::to_string(id);
  EXPECT_FALSE(Handle(R"({"op":"feed"})").ok);
  EXPECT_FALSE(Handle(R"({"op":"feed","id":)" + sid + "}").ok);
  EXPECT_FALSE(
      Handle(R"({"op":"feed","id":)" + sid + R"(,"count":-3})").ok);
  EXPECT_FALSE(Handle(R"({"op":"feed","id":999,"count":4})").ok);
  Handle(R"({"op":"close","id":)" + sid + "}");
}

TEST_F(ProtocolTest, ParamsForwardToTheSampler) {
  const BrokerResult result = Handle(
      R"({"op":"open","method":"random","suite":"casio",)"
      R"("workload":"bert_infer","scale":0.05,)"
      R"("params":{"probability":0.25}})");
  ASSERT_TRUE(result.ok) << result.response;
  const std::string sid =
      std::to_string(static_cast<SessionId>(Num(Parsed(result), "id")));
  Handle(R"({"op":"feed","id":)" + sid + R"(,"count":200})");
  const json::Value plan =
      Parsed(Handle(R"({"op":"plan","id":)" + sid + "}"));
  EXPECT_TRUE(Ok(plan));
  // The plan's method is the sampler's resolved name, which embeds the
  // probability the params carried over the wire.
  EXPECT_EQ(plan.Find("method")->string, "Random(25%)");
  Handle(R"({"op":"close","id":)" + sid + "}");
}

TEST(ProtocolMetricsTest, StatsReportsVerbLatenciesAndJournal) {
  ServiceOptions options;
  options.enable_metrics = true;
  Service service(options);
  SessionBroker broker(service);
  const auto Handle = [&broker](const std::string& line) {
    return broker.HandleLine(line);
  };

  const BrokerResult opened = Handle(
      R"({"op":"open","suite":"casio","workload":"bert_infer",)"
      R"("scale":0.05,"seed":99,"reps":2,"order":"shuffled"})");
  ASSERT_TRUE(opened.ok) << opened.response;
  const std::string sid =
      std::to_string(static_cast<SessionId>(Num(Parsed(opened), "id")));
  Handle(R"({"op":"feed","id":)" + sid + R"(,"count":32})");
  Handle(R"({"op":"query","id":)" + sid + "}");

  const json::Value stats = Parsed(Handle(R"({"op":"stats"})"));
  EXPECT_TRUE(Ok(stats));
  EXPECT_EQ(Num(stats, "open_sessions"), 1.0);
  EXPECT_GE(Num(stats, "uptime_seconds"), 0.0);
  EXPECT_EQ(Num(stats, "sessions_opened"), 1.0);
  EXPECT_EQ(Num(stats, "sessions_closed"), 0.0);
  EXPECT_EQ(Num(stats, "feed_invocations"), 32.0);
  EXPECT_GE(Num(stats, "requests"), 3.0);  // open + feed + query

  // Per-verb breakdown: the verbs object carries a latency summary for
  // every verb; the ones exercised here show traffic.
  const json::Value* verbs = stats.Find("verbs");
  ASSERT_NE(verbs, nullptr);
  ASSERT_TRUE(verbs->IsObject());
  const json::Value* feed = verbs->Find("feed");
  ASSERT_NE(feed, nullptr);
  EXPECT_EQ(Num(*feed, "requests"), 1.0);
  EXPECT_EQ(Num(*feed, "errors"), 0.0);
  EXPECT_GT(Num(*feed, "mean_us"), 0.0);
  EXPECT_GT(Num(*feed, "p50_us"), 0.0);
  EXPECT_GE(Num(*feed, "p99_us"), Num(*feed, "p50_us"));
  EXPECT_GT(Num(*feed, "max_us"), 0.0);
  const json::Value* close_verb = verbs->Find("close");
  ASSERT_NE(close_verb, nullptr);
  EXPECT_EQ(Num(*close_verb, "requests"), 0.0);

  // Journal counters are always present (zeros with no journal open).
  const json::Value* journal = stats.Find("journal");
  ASSERT_NE(journal, nullptr);
  ASSERT_TRUE(journal->IsObject());
  EXPECT_NE(journal->Find("emitted"), nullptr);
  EXPECT_NE(journal->Find("dropped"), nullptr);
  EXPECT_NE(journal->Find("errors"), nullptr);

  // Errors count into the verb's error column but still measure latency.
  EXPECT_FALSE(Handle(R"({"op":"feed","id":999,"count":4})").ok);
  const json::Value after = Parsed(Handle(R"({"op":"stats"})"));
  const json::Value* feed_after = after.Find("verbs")->Find("feed");
  EXPECT_EQ(Num(*feed_after, "requests"), 2.0);
  EXPECT_EQ(Num(*feed_after, "errors"), 1.0);

  Handle(R"({"op":"close","id":)" + sid + "}");
}

TEST_F(ProtocolTest, HealthReportsReadiness) {
  const json::Value health = Parsed(Handle(R"({"op":"health"})"));
  EXPECT_TRUE(Ok(health));
  ASSERT_NE(health.Find("status"), nullptr);
  EXPECT_EQ(health.Find("status")->string, "ok");
  EXPECT_EQ(Num(health, "ready"), 1.0);
  EXPECT_EQ(Num(health, "accepting"), 1.0);
  EXPECT_GE(Num(health, "uptime_seconds"), 0.0);
  EXPECT_EQ(Num(health, "open_sessions"), 0.0);
  EXPECT_GT(Num(health, "max_sessions"), 0.0);
  ASSERT_NE(health.Find("git_hash"), nullptr);
  EXPECT_TRUE(health.Find("git_hash")->IsString());
  // Health is not a session verb: it must not count request traffic.
  const json::Value stats = Parsed(Handle(R"({"op":"stats"})"));
  EXPECT_EQ(Num(stats, "requests"), 0.0);
}

TEST_F(ProtocolTest, ShutdownFlagsTheLoop) {
  const BrokerResult result = Handle(R"({"op":"shutdown"})");
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.shutdown);
  // Only shutdown sets the flag.
  EXPECT_FALSE(Handle(R"({"op":"stats"})").shutdown);
}

/// A `stemroot serve` loop on a private socket, for transport tests.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sr_server_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    options_.socket_path = (dir_ / "s.sock").string();
    options_.journal_path = (dir_ / "journal.jsonl").string();
    options_.metrics_path = (dir_ / "metrics.prom").string();
    options_.resource_sample_ms = 0;
    server_ = std::thread([this] {
      try {
        RunServer(options_);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "server: " << e.what();
      }
    });
  }

  void TearDown() override {
    if (server_.joinable()) {
      try {
        RequestOnce(options_.socket_path, R"({"op":"shutdown"})");
      } catch (const std::exception& e) {
        ADD_FAILURE() << "shutdown: " << e.what();
      }
      server_.join();
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Connect, retrying while the server thread is still binding.
  int Connect() const {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    for (int attempt = 0; attempt < 500; ++attempt) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0)
        return fd;
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "server never accepted on " << options_.socket_path;
    return -1;
  }

  /// Everything the server sends until it hangs up.
  static std::string ReadAll(int fd) {
    std::string out;
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0)
      out.append(chunk, static_cast<size_t>(n));
    return out;
  }

  std::filesystem::path dir_;
  ServerOptions options_;
  std::thread server_;
};

TEST_F(ServerTest, PipelinedRequestsInOneWriteAllGetAnswers) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  const std::string two = "{\"op\":\"health\"}\n{\"op\":\"health\"}\n";
  ASSERT_EQ(::send(fd, two.data(), two.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(two.size()));
  ::shutdown(fd, SHUT_WR);
  std::istringstream responses(ReadAll(fd));
  ::close(fd);
  std::string line;
  int answered = 0;
  while (std::getline(responses, line)) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    ++answered;
  }
  EXPECT_EQ(answered, 2);
}

// A client that streams bytes without ever sending a newline must get a
// typed error and lose its connection once the line passes the cap,
// instead of growing the server's buffer; the server keeps serving.
TEST_F(ServerTest, RejectsALineThatNeverEnds) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  const std::string chunk(64 * 1024, 'x');
  size_t sent = 0;
  while (sent < kMaxRequestLineBytes + 2 * chunk.size()) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // the server hung up mid-stream
    sent += static_cast<size_t>(n);
  }
  EXPECT_GT(sent, kMaxRequestLineBytes);
  const std::string response = ReadAll(fd);
  ::close(fd);
  EXPECT_EQ(response, OversizedLineError().response + "\n");
  EXPECT_NE(response.find("\"code\":\"line_too_long\""), std::string::npos);

  EXPECT_NE(RequestOnce(options_.socket_path, R"({"op":"health"})")
                .find("\"ok\":true"),
            std::string::npos);
  // The refused line reached no verb, so only requests_rejected counts it.
  EXPECT_NE(RequestOnce(options_.socket_path, R"({"op":"stats"})")
                .find("\"requests_rejected\":1"),
            std::string::npos);
  RequestOnce(options_.socket_path, R"({"op":"shutdown"})");
  server_.join();

  std::ifstream journal(options_.journal_path);
  std::stringstream text;
  text << journal.rdbuf();
  EXPECT_NE(text.str().find("request.rejected"), std::string::npos);
  EXPECT_NE(text.str().find("line_too_long"), std::string::npos);

  std::ifstream metrics(options_.metrics_path);
  std::stringstream exposition;
  exposition << metrics.rdbuf();
  EXPECT_NE(exposition.str().find(
                "stemroot_service_requests_rejected_total 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace stemroot::service
