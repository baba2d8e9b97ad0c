// In-process end-to-end tests of the `mcrt serve` daemon: differential
// byte-identity against the bulk engine, cache hits with counter
// verification, cancel-one-request-mid-flight (the daemon must keep
// serving), disconnect cleanup, per-request timeouts and protocol errors.
#include "server/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "../common/test_circuits.h"
#include "base/fault_injector.h"
#include "base/socket.h"
#include "blif/blif.h"
#include "pipeline/bulk_runner.h"
#include "server/client.h"

namespace mcrt {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A daemon on a Unix socket in a temp dir, run() pumping on its own
/// thread, stopped and joined on destruction.
class TestServer {
 public:
  explicit TestServer(ServerOptions options) : server_(configure(options)) {
    std::string error;
    started_ = server_.start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) {
      thread_ = std::thread([this] {
        server_.run();
        done_.store(true, std::memory_order_release);
      });
    }
  }

  ~TestServer() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }

  /// Waits for run() to return on its own (remote shutdown tests).
  bool join_within(std::chrono::seconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (!done_.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (thread_.joinable()) thread_.join();
    return true;
  }

  [[nodiscard]] RetimingServer& server() { return server_; }
  [[nodiscard]] SocketEndpoint endpoint() const {
    return server_.bound_endpoint();
  }

  ServeClient connect() {
    ServeClient client;
    std::string error;
    EXPECT_TRUE(client.connect(endpoint(), &error)) << error;
    return client;
  }

 private:
  ServerOptions configure(ServerOptions options) {
    if (options.endpoint.unix_path.empty() && options.endpoint.tcp_port == 0) {
      static std::atomic<int> counter{0};
      options.endpoint.unix_path =
          (fs::path(::testing::TempDir()) /
           ("mcrt_srv_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)) + ".sock"))
              .string();
    }
    if (options.jobs == 0) options.jobs = 2;
    return options;
  }

  RetimingServer server_;
  std::thread thread_;
  std::atomic<bool> done_{false};
  bool started_ = false;
};

JobRequest inline_job(const std::string& id, const std::string& script,
                      const Netlist& netlist) {
  JobRequest request;
  request.id = id;
  request.name = id;
  request.script = script;
  request.blif = write_blif_string(netlist);
  request.options.canonical = true;
  return request;
}

constexpr const char* kScript = "sweep; strash; retime(d=10)";

TEST(ServerTest, DifferentialAgainstBulkIsByteIdentical) {
  // The acceptance differential: path-based requests through the daemon
  // must produce per-job canonical JSON, canonical report and output BLIF
  // byte-identical to `mcrt bulk --canonical` on the same corpus.
  const fs::path in_dir = fresh_dir("srv_diff_in");
  const fs::path bulk_dir = fresh_dir("srv_diff_bulk");
  const fs::path serve_dir = fresh_dir("srv_diff_serve");
  const Netlist circuits[] = {testing::chain_circuit(4, 2),
                              testing::fig1_circuit(),
                              testing::chain_circuit(6, 3)};
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < 3; ++i) {
    const fs::path path = in_dir / ("c" + std::to_string(i) + ".blif");
    ASSERT_TRUE(write_blif_file(circuits[i], path.string()));
    inputs.push_back(path.string());
  }

  // Bulk side.
  BulkOptions bulk_options;
  bulk_options.jobs = 2;
  bulk_options.manager.check_invariants = true;
  std::vector<BulkJob> jobs;
  for (const std::string& input : inputs) {
    jobs.push_back(make_file_job(
        input, (bulk_dir / fs::path(input).filename()).string()));
  }
  const BulkReport bulk_report = BulkRunner(kScript, bulk_options).run(jobs);
  ASSERT_EQ(bulk_report.succeeded(), 3u);

  // Server side.
  TestServer daemon{ServerOptions{}};
  ServeClient client = daemon.connect();
  for (std::size_t i = 0; i < 3; ++i) {
    JobRequest request;
    request.id = "j" + std::to_string(i);
    request.script = kScript;
    request.path = inputs[i];
    request.output = (serve_dir / fs::path(inputs[i]).filename()).string();
    request.options.canonical = true;
    ASSERT_TRUE(client.submit(request));
  }
  std::vector<ClientJobResult> results;
  std::string error;
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  ASSERT_EQ(results.size(), 3u);

  BulkJsonOptions canonical;
  canonical.canonical = true;
  std::vector<std::string> bulk_jsons;
  std::vector<std::string> serve_jsons;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].status, "ok") << results[i].error;
    const std::string bulk_json =
        bulk_job_result_to_json(bulk_report.results[i], canonical);
    EXPECT_EQ(results[i].job_json, bulk_json) << i;
    bulk_jsons.push_back(bulk_json);
    serve_jsons.push_back(results[i].job_json);
    // Output files byte-identical.
    EXPECT_EQ(slurp(serve_dir / fs::path(inputs[i]).filename()),
              slurp(bulk_dir / fs::path(inputs[i]).filename()))
        << i;
  }
  // Whole canonical reports byte-identical (the client's --report path and
  // BulkReport::to_json share compose_canonical_report_json).
  EXPECT_EQ(compose_canonical_report_json(kScript, serve_jsons, 3),
            bulk_report.to_json(canonical));
}

TEST(ServerTest, CacheHitServesIdenticalBytesAndCounts) {
  TestServer daemon{ServerOptions{}};
  ServeClient client = daemon.connect();
  const Netlist circuit = testing::chain_circuit(5, 2);

  JobRequest first = inline_job("j1", kScript, circuit);
  first.options.return_blif = true;
  ASSERT_TRUE(client.submit(first));
  std::vector<ClientJobResult> results;
  std::string error;
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  ASSERT_EQ(results[0].status, "ok") << results[0].error;
  EXPECT_FALSE(results[0].cached);

  // Same circuit + same script under a different request identity: served
  // from the cache, canonical record and BLIF bytes identical.
  JobRequest second = inline_job("j2", kScript, circuit);
  second.name = "j1";  // same name so the canonical records compare equal
  second.options.return_blif = true;
  ASSERT_TRUE(client.submit(second));
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[1].cached);
  EXPECT_EQ(results[1].status, "ok");
  EXPECT_EQ(results[1].job_json, results[0].job_json);
  EXPECT_EQ(results[1].blif, results[0].blif);

  // A different script must miss.
  JobRequest third = inline_job("j3", "sweep", circuit);
  ASSERT_TRUE(client.submit(third));
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  EXPECT_FALSE(results[2].cached);

  const auto stats = client.query_stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->at("server").at("requests").as_int(), 3);
  EXPECT_EQ(stats->at("server").at("ok").as_int(), 3);
  EXPECT_EQ(stats->at("server").at("cache_served").as_int(), 1);
  EXPECT_EQ(stats->at("cache").at("hits").as_int(), 1);
  EXPECT_EQ(stats->at("cache").at("misses").as_int(), 2);
  EXPECT_EQ(stats->at("cache").at("entries").as_int(), 2);
}

TEST(ServerTest, CacheHitWritesRequestedOutputFile) {
  const fs::path out_dir = fresh_dir("srv_cache_out");
  TestServer daemon{ServerOptions{}};
  ServeClient client = daemon.connect();
  const Netlist circuit = testing::fig1_circuit();

  JobRequest first = inline_job("a", "sweep; strash", circuit);
  first.output = (out_dir / "first.blif").string();
  ASSERT_TRUE(client.submit(first));
  std::vector<ClientJobResult> results;
  std::string error;
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  ASSERT_EQ(results[0].status, "ok") << results[0].error;

  JobRequest second = inline_job("b", "sweep; strash", circuit);
  second.output = (out_dir / "second.blif").string();
  ASSERT_TRUE(client.submit(second));
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  EXPECT_TRUE(results[1].cached);
  EXPECT_EQ(results[1].status, "ok");
  const std::string first_bytes = slurp(out_dir / "first.blif");
  ASSERT_FALSE(first_bytes.empty());
  EXPECT_EQ(slurp(out_dir / "second.blif"), first_bytes);
}

TEST(ServerTest, CancelOneRequestMidFlightKeepsServing) {
  // The acceptance kill-one-request test: one request stalls forever (an
  // injected fault at its job site), gets cancelled explicitly, and the
  // daemon must deliver every other result and keep serving afterwards.
  FaultInjector faults;
  std::string spec_error;
  ASSERT_TRUE(faults.configure("job:victim=stall", &spec_error)) << spec_error;
  ServerOptions options;
  options.faults = &faults;
  TestServer daemon(options);
  ServeClient client = daemon.connect();

  JobRequest victim = inline_job("victim", kScript, testing::fig1_circuit());
  ASSERT_TRUE(client.submit(victim));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.submit(inline_job("ok" + std::to_string(i), kScript,
                                         testing::chain_circuit(4 + i, 2))));
  }
  ASSERT_TRUE(client.cancel("victim"));

  std::vector<ClientJobResult> results;
  std::string error;
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, "cancelled");
  EXPECT_FALSE(results[0].success);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(results[i].status, "ok") << results[i].error;
  }

  // The daemon is still fully alive: another request on the same
  // connection and a fresh connection both complete.
  ASSERT_TRUE(client.submit(inline_job("after", kScript,
                                       testing::chain_circuit(8, 2))));
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  EXPECT_EQ(results[4].status, "ok");

  ServeClient second = daemon.connect();
  ASSERT_TRUE(second.submit(inline_job("fresh", "sweep",
                                       testing::fig1_circuit())));
  ASSERT_TRUE(second.collect(&results, &error)) << error;
  EXPECT_EQ(results[0].status, "ok");

  const auto stats = second.query_stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->at("server").at("cancelled").as_int(), 1);
  EXPECT_EQ(stats->at("server").at("ok").as_int(), 5);
}

TEST(ServerTest, DisconnectCancelsInFlightRequests) {
  FaultInjector faults;
  std::string spec_error;
  ASSERT_TRUE(faults.configure("job:ghost=stall", &spec_error)) << spec_error;
  ServerOptions options;
  options.faults = &faults;
  TestServer daemon(options);

  {
    ServeClient doomed = daemon.connect();
    ASSERT_TRUE(doomed.submit(inline_job("ghost", kScript,
                                         testing::fig1_circuit())));
    // Give the job a moment to start, then vanish without collecting.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    doomed.close();
  }

  // The server notices the dead connection, cancels the stalled job and
  // keeps serving; poll the counters until the cancel lands.
  ServeClient client = daemon.connect();
  std::string error;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  bool cancelled_seen = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto stats = client.query_stats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    if (stats->at("server").at("cancelled").as_int() >= 1) {
      cancelled_seen = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(cancelled_seen);

  std::vector<ClientJobResult> results;
  ASSERT_TRUE(client.submit(inline_job("alive", "sweep",
                                       testing::chain_circuit(3, 1))));
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  EXPECT_EQ(results[0].status, "ok");
}

TEST(ServerTest, PerRequestTimeoutLandsAsTimeoutStatus) {
  FaultInjector faults;
  std::string spec_error;
  ASSERT_TRUE(faults.configure("job:slow=stall", &spec_error)) << spec_error;
  ServerOptions options;
  options.faults = &faults;
  TestServer daemon(options);
  ServeClient client = daemon.connect();

  JobRequest slow = inline_job("slow", kScript, testing::fig1_circuit());
  slow.options.timeout_seconds = 0.2;
  ASSERT_TRUE(client.submit(slow));
  std::vector<ClientJobResult> results;
  std::string error;
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  EXPECT_EQ(results[0].status, "timeout");
  EXPECT_FALSE(results[0].success);

  const auto stats = client.query_stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->at("server").at("timeout").as_int(), 1);
}

TEST(ServerTest, ProtocolErrorsDoNotKillTheSession) {
  TestServer daemon{ServerOptions{}};
  std::string error;
  SocketStream raw = connect_socket(daemon.endpoint(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  // Greeting first.
  auto line = raw.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"hello\""), std::string::npos);

  // Garbage line: one error frame, connection stays up.
  ASSERT_TRUE(raw.write_line("this is not json"));
  line = raw.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"error\""), std::string::npos);

  // A job missing its circuit: error frame again.
  ASSERT_TRUE(raw.write_line(R"({"id": "x", "script": "sweep"})"));
  line = raw.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"error\""), std::string::npos);

  // And the session still answers a well-formed request.
  ASSERT_TRUE(raw.write_line(R"({"hello": true})"));
  line = raw.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"frame\":\"hello\""), std::string::npos);
}

TEST(ServerTest, RemoteShutdownStopsTheDaemon) {
  TestServer daemon{ServerOptions{}};
  ServeClient client = daemon.connect();
  ASSERT_TRUE(client.send_shutdown());
  EXPECT_TRUE(daemon.join_within(std::chrono::seconds(10)));
  // The endpoint is gone now.
  std::string error;
  ServeClient late;
  EXPECT_FALSE(late.connect(daemon.endpoint(), &error));
}

TEST(ServerTest, ShutdownCanBeDisabled) {
  ServerOptions options;
  options.allow_remote_shutdown = false;
  TestServer daemon(options);
  std::string error;
  SocketStream raw = connect_socket(daemon.endpoint(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  ASSERT_TRUE(raw.read_line().has_value());  // greeting
  ASSERT_TRUE(raw.write_line(R"({"shutdown": true})"));
  const auto line = raw.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"error\""), std::string::npos);
  // Daemon still alive.
  ServeClient client = daemon.connect();
  std::vector<ClientJobResult> results;
  ASSERT_TRUE(client.submit(inline_job("still", "sweep",
                                       testing::fig1_circuit())));
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  EXPECT_EQ(results[0].status, "ok");
}

TEST(ServerTest, ManyConcurrentClients) {
  ServerOptions options;
  options.jobs = 4;
  TestServer daemon(options);
  constexpr int kClients = 8;
  constexpr int kJobsPerClient = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client;
      std::string error;
      if (!client.connect(daemon.endpoint(), &error)) return;
      for (int j = 0; j < kJobsPerClient; ++j) {
        const std::string id =
            "c" + std::to_string(c) + "_" + std::to_string(j);
        if (!client.submit(inline_job(id, kScript,
                                      testing::chain_circuit(3 + j, 2)))) {
          return;
        }
      }
      std::vector<ClientJobResult> results;
      if (!client.collect(&results, &error)) return;
      for (const ClientJobResult& result : results) {
        if (result.status == "ok") ok.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kClients * kJobsPerClient);
  // All clients ran the same four circuits, so only four distinct keys
  // exist. (Concurrent first-requests for one key can each miss, so the
  // exact hit count is racy — but with 32 requests over 4 keys there must
  // be hits.)
  const CacheStats cache = daemon.server().cache_stats();
  EXPECT_EQ(cache.entries, static_cast<std::size_t>(kJobsPerClient));
  EXPECT_GE(cache.hits, 1u);
}

TEST(RetryPolicyTest, BackoffDoublesJittersAndHonorsHintAndCap) {
  RetryPolicy policy;
  policy.base_delay_ms = 100;
  policy.max_delay_ms = 1000;
  policy.jitter_seed = 42;

  // Deterministic on (seed, attempt): the chaos harness replays schedules.
  EXPECT_EQ(policy.delay_ms(1), policy.delay_ms(1));
  EXPECT_EQ(policy.delay_ms(3), policy.delay_ms(3));

  // Exponential envelope: base * 2^(attempt-1) plus at most +50% jitter.
  EXPECT_GE(policy.delay_ms(1), 100);
  EXPECT_LE(policy.delay_ms(1), 150);
  EXPECT_GE(policy.delay_ms(2), 200);
  EXPECT_LE(policy.delay_ms(2), 300);

  // The cap bounds every attempt, jitter included.
  for (int attempt = 1; attempt <= 12; ++attempt) {
    EXPECT_LE(policy.delay_ms(attempt), 1000) << attempt;
  }

  // The server's retry-after hint floors the backoff.
  EXPECT_GE(policy.delay_ms(1, 600), 600);

  // Different seeds move the jitter somewhere across the attempts.
  RetryPolicy other = policy;
  other.jitter_seed = 43;
  EXPECT_TRUE(policy.delay_ms(1) != other.delay_ms(1) ||
              policy.delay_ms(2) != other.delay_ms(2) ||
              policy.delay_ms(3) != other.delay_ms(3));
}

TEST(ServerTest, AdmissionBoundSendsBusyAndRetrySucceeds) {
  // One stalled job saturates max_inflight=1; the next submission must
  // bounce with a structured busy frame (not a dropped connection), and
  // the client's retry loop must land it once the slot frees.
  FaultInjector faults;
  std::string spec_error;
  ASSERT_TRUE(faults.configure("job:hog=stall", &spec_error)) << spec_error;
  ServerOptions options;
  options.faults = &faults;
  options.max_inflight = 1;
  options.retry_after_ms = 120;
  TestServer daemon(options);

  ServeClient hogger = daemon.connect();
  ASSERT_TRUE(
      hogger.submit(inline_job("hog", kScript, testing::fig1_circuit())));

  // Wait until the hog actually holds the admission slot.
  ServeClient client = daemon.connect();
  std::string error;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool admitted = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto stats = client.query_stats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    if (stats->at("admission").at("inflight").as_int() >= 1) {
      admitted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(admitted);

  JobRequest bounced = inline_job("b", kScript, testing::chain_circuit(4, 2));
  ASSERT_TRUE(client.submit(bounced));
  std::vector<ClientJobResult> results;
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].busy);
  EXPECT_TRUE(results[0].retryable());
  EXPECT_EQ(results[0].status, "busy");
  EXPECT_EQ(results[0].retry_after_ms, 120);
  EXPECT_EQ(results[0].error, "overloaded");

  // Free the slot, then drive the same retry loop `mcrt client` uses:
  // backoff floored by the server hint, re-submit until admitted.
  ASSERT_TRUE(hogger.cancel("hog"));
  std::vector<ClientJobResult> hog_results;
  ASSERT_TRUE(hogger.collect(&hog_results, &error)) << error;
  EXPECT_EQ(hog_results[0].status, "cancelled");

  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.base_delay_ms = 5;
  policy.max_delay_ms = 200;
  bool served = false;
  for (int attempt = 1; attempt < policy.max_attempts && !served; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        policy.delay_ms(attempt, results[0].retry_after_ms)));
    ASSERT_TRUE(client.submit(bounced));
    ASSERT_TRUE(client.collect(&results, &error)) << error;
    ASSERT_EQ(results.size(), 1u);
    if (!results[0].retryable()) served = true;
  }
  ASSERT_TRUE(served);
  EXPECT_EQ(results[0].status, "ok") << results[0].error;

  const auto stats = client.query_stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_GE(stats->at("server").at("busy").as_int(), 1);
  EXPECT_GE(stats->at("admission").at("rejected_overload").as_int(), 1);
}

TEST(ServerTest, HealthDrainAndDrainingRejections) {
  ServerOptions options;
  options.max_inflight = 4;
  TestServer daemon(options);
  ServeClient client = daemon.connect();
  std::string error;

  auto health = client.query_health(&error);
  ASSERT_TRUE(health.has_value()) << error;
  EXPECT_EQ(health->at("state").as_string(), "ok");
  EXPECT_EQ(health->at("max_inflight").as_int(), 4);
  EXPECT_GE(health->at("jobs").as_int(), 1);

  // Work completes before the drain...
  std::vector<ClientJobResult> results;
  ASSERT_TRUE(
      client.submit(inline_job("pre", "sweep", testing::fig1_circuit())));
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  EXPECT_EQ(results[0].status, "ok") << results[0].error;

  auto ack = client.send_drain(&error);
  ASSERT_TRUE(ack.has_value()) << error;
  EXPECT_EQ(ack->at("frame").as_string(), "drain-ack");
  EXPECT_EQ(ack->at("inflight").as_int(), 0);

  health = client.query_health(&error);
  ASSERT_TRUE(health.has_value()) << error;
  EXPECT_EQ(health->at("state").as_string(), "draining");

  // ...and new work is turned away with a structured busy frame while the
  // control plane (health, stats) keeps answering for the ops side.
  ASSERT_TRUE(
      client.submit(inline_job("post", "sweep", testing::fig1_circuit())));
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[1].busy);
  EXPECT_EQ(results[1].error, "draining");

  const auto stats = client.query_stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_GE(stats->at("admission").at("rejected_draining").as_int(), 1);
  EXPECT_TRUE(stats->at("admission").at("draining").as_bool());
}

TEST(ServerTest, DrainAfterCollectedResultSeesNothingInFlight) {
  // A job's admission slot is released before its result frame goes out,
  // so a client that has collected its result and then drains must read
  // inflight 0 every time, not just usually. Draining cannot be undone, so
  // each round gets a fresh daemon (a short accept poll keeps its stop
  // quick).
  for (int round = 0; round < 200; ++round) {
    ServerOptions options;
    options.max_inflight = 4;
    options.accept_timeout_ms = 5;
    TestServer daemon(options);
    ServeClient client = daemon.connect();
    std::string error;
    std::vector<ClientJobResult> results;
    ASSERT_TRUE(
        client.submit(inline_job("pre", "sweep", testing::fig1_circuit())));
    ASSERT_TRUE(client.collect(&results, &error)) << error;
    ASSERT_EQ(results[0].status, "ok") << results[0].error;
    const auto ack = client.send_drain(&error);
    ASSERT_TRUE(ack.has_value()) << error;
    ASSERT_EQ(ack->at("inflight").as_int(), 0) << "round " << round;
  }
}

TEST(ServerTest, CoalescesIdenticalInFlightRequests) {
  // The leader ("lead") stalls inside execution while holding the
  // coalescing lead for its (netlist, flow) key; an identical request from
  // a second connection must rendezvous on that execution instead of
  // burning a second one. Cancelling the leader wakes the follower, which
  // takes over the lead and completes on its own.
  FaultInjector faults;
  std::string spec_error;
  ASSERT_TRUE(faults.configure("job:lead=stall", &spec_error)) << spec_error;
  ServerOptions options;
  options.faults = &faults;
  TestServer daemon(options);

  ServeClient leader = daemon.connect();
  ASSERT_TRUE(
      leader.submit(inline_job("lead", kScript, testing::fig1_circuit())));
  // Give the leader a moment to reach the stall (holding the lead).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ServeClient follower = daemon.connect();
  ASSERT_TRUE(
      follower.submit(inline_job("follow", kScript, testing::fig1_circuit())));

  ServeClient watcher = daemon.connect();
  std::string error;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool coalesced = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto stats = watcher.query_stats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    if (stats->at("server").at("coalesced").as_int() >= 1) {
      coalesced = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(coalesced);

  ASSERT_TRUE(leader.cancel("lead"));
  std::vector<ClientJobResult> lead_results;
  ASSERT_TRUE(leader.collect(&lead_results, &error)) << error;
  EXPECT_EQ(lead_results[0].status, "cancelled");

  std::vector<ClientJobResult> follow_results;
  ASSERT_TRUE(follower.collect(&follow_results, &error)) << error;
  EXPECT_EQ(follow_results[0].status, "ok") << follow_results[0].error;
}

TEST(ServerTest, DiskTierServesAcrossRestart) {
  // The crash-safety payoff: results persisted by one daemon are served
  // byte-identically by the next daemon on the same directory, after the
  // memory tier died with the first process.
  const fs::path disk_dir = fresh_dir("srv_disk_restart");
  const Netlist circuit = testing::chain_circuit(6, 3);
  std::string first_json;
  std::string first_blif;
  {
    ServerOptions options;
    options.disk_cache_dir = disk_dir.string();
    TestServer daemon(options);
    ServeClient client = daemon.connect();
    JobRequest request = inline_job("cold", kScript, circuit);
    request.options.return_blif = true;
    ASSERT_TRUE(client.submit(request));
    std::vector<ClientJobResult> results;
    std::string error;
    ASSERT_TRUE(client.collect(&results, &error)) << error;
    ASSERT_EQ(results[0].status, "ok") << results[0].error;
    EXPECT_FALSE(results[0].cached);
    first_json = results[0].job_json;
    first_blif = results[0].blif;
    ASSERT_FALSE(first_blif.empty());
  }

  bool entry_found = false;
  for (const auto& file : fs::directory_iterator(disk_dir)) {
    if (file.path().extension() == ".entry") entry_found = true;
  }
  ASSERT_TRUE(entry_found);

  ServerOptions options;
  options.disk_cache_dir = disk_dir.string();
  TestServer daemon(options);
  ServeClient client = daemon.connect();
  JobRequest request = inline_job("warm", kScript, circuit);
  request.name = "cold";  // same identity so the canonical records compare
  request.options.return_blif = true;
  ASSERT_TRUE(client.submit(request));
  std::vector<ClientJobResult> results;
  std::string error;
  ASSERT_TRUE(client.collect(&results, &error)) << error;
  ASSERT_EQ(results[0].status, "ok") << results[0].error;
  EXPECT_TRUE(results[0].cached);
  EXPECT_EQ(results[0].job_json, first_json);
  EXPECT_EQ(results[0].blif, first_blif);

  const auto stats = client.query_stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->at("disk").at("hits").as_int(), 1);
  EXPECT_EQ(stats->at("cache").at("hits").as_int(), 0);  // memory was cold
  EXPECT_GE(stats->at("disk").at("entries").as_int(), 1);
}

}  // namespace
}  // namespace mcrt
