// Daemon end-to-end over a real Unix-domain socket: cache soundness
// (a hit bit-agrees with a cold in-process solve), typed admission
// rejects under queue and memory pressure (never OOM, never a hang),
// malformed-frame survival, and clean shutdown.
#include "server/daemon.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "sched/list_scheduler.hpp"
#include "server/client.hpp"
#include "util/socket.hpp"
#include "workload/scenario.hpp"

namespace optsched::server {
namespace {

constexpr const char* kSpecA =
    "family=random nodes=6 ccr=1 machine=clique:2 seed=11";
constexpr const char* kSpecB =
    "family=random nodes=6 ccr=1 machine=clique:2 seed=12";
constexpr const char* kSpecC =
    "family=random nodes=6 ccr=1 machine=clique:2 seed=13";

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Fresh socket path per daemon (bound length-checked by UnixListener).
std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/optsched_daemon_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// `outcome` with its run-class counters (elapsed time and the like)
/// reset to their defaults.
SolveOutcome without_run_counters(SolveOutcome outcome) {
  const api::SolveStats defaults;
  api::SolveStats::visit(
      [](const util::Counter& c, auto& v, const auto& d) {
        if (c.cls == util::CounterClass::kRun) v = d;
      },
      outcome.stats, defaults);
  return outcome;
}

DaemonConfig base_config() {
  DaemonConfig config;
  config.socket_path = fresh_socket_path();
  config.workers = 2;
  config.queue_cap = 8;
  config.cache_bytes = 1u << 20;
  config.memory_budget = 256u << 20;
  config.default_job_memory = 32u << 20;
  return config;
}

SolveCommand solve_command(const std::string& spec,
                           const std::string& engine = "astar") {
  SolveCommand command;
  command.spec = spec;
  command.engine = engine;
  return command;
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ProtocolError& e) {
    return e.code;
  }
  ADD_FAILURE() << "expected a ProtocolError";
  return ErrorCode::kBadRequest;
}

// --- gated engine for deterministic admission-control tests ------------
// Holds every solve until release() so tests can fill the running slots
// and the queue to exact depths.

std::mutex g_gate_mu;
std::condition_variable g_gate_cv;
bool g_gate_open = true;
int g_gate_running = 0;
/// Node weights of every instance the gated engine started, in start
/// order — identifies which spec ran when.
std::vector<std::vector<double>> g_gate_started;

std::vector<double> node_weights(const dag::TaskGraph& graph) {
  std::vector<double> weights;
  for (dag::NodeId n = 0; n < graph.num_nodes(); ++n)
    weights.push_back(graph.weight(n));
  return weights;
}

class GatedSolver : public api::Solver {
 public:
  api::SolveResult solve(const api::SolveRequest& request) const override {
    {
      std::unique_lock<std::mutex> lock(g_gate_mu);
      g_gate_started.push_back(node_weights(*request.graph));
      ++g_gate_running;
      g_gate_cv.notify_all();
      g_gate_cv.wait(lock, [] { return g_gate_open; });
      --g_gate_running;
    }
    api::SolveResult out{sched::upper_bound_schedule(*request.graph,
                                                     *request.machine,
                                                     request.comm)};
    out.makespan = out.schedule.makespan();
    out.reason = core::Termination::kHeuristic;
    return out;
  }
};

/// RAII: close the gate on construction, open it (and wake everyone) on
/// destruction so a failing test can never hang daemon teardown.
class GateClosed {
 public:
  GateClosed() {
    const std::lock_guard<std::mutex> lock(g_gate_mu);
    g_gate_open = false;
  }
  ~GateClosed() { release(); }
  void release() {
    const std::lock_guard<std::mutex> lock(g_gate_mu);
    g_gate_open = true;
    g_gate_cv.notify_all();
  }
  /// Block until `n` gated solves sit inside the engine.
  void await_running(int n) {
    std::unique_lock<std::mutex> lock(g_gate_mu);
    ASSERT_TRUE(g_gate_cv.wait_for(lock, std::chrono::seconds(10),
                                   [n] { return g_gate_running >= n; }))
        << "gated engine never reached " << n << " concurrent solves";
  }
};

void register_gated_engine() {
  auto& registry = api::SolverRegistry::instance();
  if (!registry.contains("gated")) {
    registry.add({"gated",
                  "admission-control test double (blocks until released)",
                  {},
                  {},
                  [] { return std::make_unique<GatedSolver>(); }});
  }
}

/// Poll status() until `queue_depth` reaches `depth`, for up to 10 s.
void await_queue_depth(const Daemon& daemon, std::size_t depth) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.status().queue_depth < depth) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "queue never reached depth " << depth;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

SolveCommand gated_command(std::uint64_t seed) {
  SolveCommand command = solve_command(
      "family=random nodes=6 ccr=1 machine=clique:2 seed=" +
          std::to_string(seed),
      "gated");
  command.no_cache = true;
  return command;
}

// -----------------------------------------------------------------------

TEST(Daemon, StatusBeforeStartReportsIdle) {
  DaemonConfig config = base_config();
  config.workers = 3;
  config.queue_cap = 5;
  const Daemon daemon(config);
  const StatusReply status = daemon.status();
  EXPECT_EQ(status.accepted, 0u);
  EXPECT_EQ(status.completed, 0u);
  EXPECT_EQ(status.rejected, 0u);
  EXPECT_EQ(status.cache_hits_served, 0u);
  EXPECT_EQ(status.queue_depth, 0u);
  EXPECT_EQ(status.in_flight, 0u);
  EXPECT_EQ(status.memory_reserved, 0u);
  EXPECT_EQ(status.queue_cap, 5u);
  EXPECT_EQ(status.workers, 3u);
  EXPECT_EQ(status.memory_budget, config.memory_budget);
}

TEST(Daemon, CacheHitBitAgreesWithColdSolve) {
  Daemon daemon(base_config());
  daemon.start();
  Client client(daemon.config().socket_path);

  const SolveReply cold = client.solve_raw(solve_command(kSpecA));
  EXPECT_FALSE(cold.cache_hit);
  const SolveReply warm = client.solve_raw(solve_command(kSpecA));
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.outcome, cold.outcome);  // verbatim replay

  // The soundness oracle: rebuild both and compare against an
  // in-process reference solve, bit for bit.
  const workload::Instance instance =
      workload::ScenarioSpec::parse(kSpecA).materialize();
  const api::SolveResult remote = rebuild_result(instance, warm);
  api::SolveRequest request(instance.graph, instance.machine, instance.comm);
  const api::SolveResult reference = api::solve("astar", request);
  EXPECT_TRUE(bits_equal(remote.makespan, reference.makespan));
  for (dag::NodeId n = 0; n < instance.graph.num_nodes(); ++n) {
    const auto& got = remote.schedule.placement(n);
    const auto& want = reference.schedule.placement(n);
    EXPECT_EQ(got.proc, want.proc) << "node " << n;
    EXPECT_TRUE(bits_equal(got.start, want.start)) << "node " << n;
    EXPECT_TRUE(bits_equal(got.finish, want.finish)) << "node " << n;
  }

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, CacheHitCarriesEveryCounterOfTheColdSolve) {
  Daemon daemon(base_config());
  daemon.start();
  Client client(daemon.config().socket_path);

  const SolveReply cold = client.solve_raw(solve_command(kSpecA));
  const SolveReply hit = client.solve_raw(solve_command(kSpecA));
  ASSERT_TRUE(hit.cache_hit);

  // Every non-run counter of the hit equals the cold reply's and an
  // in-process solve's: the reply drops none of them.
  const workload::Instance instance =
      workload::ScenarioSpec::parse(kSpecA).materialize();
  api::SolveRequest request(instance.graph, instance.machine, instance.comm);
  const api::SolveStats reference = api::solve("astar", request).stats;
  const api::SolveStats from_hit = rebuild_result(instance, hit).stats;
  const api::SolveStats from_cold = rebuild_result(instance, cold).stats;
  const api::SolveStats defaults;
  std::size_t moved = 0;
  api::SolveStats::visit(
      [&](const util::Counter& c, const auto& got, const auto& cold_value,
          const auto& want, const auto& default_value) {
        if (c.cls == util::CounterClass::kRun) return;
        EXPECT_TRUE(util::counter_equal(got, cold_value)) << c.name;
        EXPECT_TRUE(util::counter_equal(got, want)) << c.name;
        if (!util::counter_equal(want, default_value)) ++moved;
      },
      from_hit, from_cold, reference, defaults);
  EXPECT_GE(moved, 10u);
  EXPECT_STREQ(from_hit.search.queue_kind, "bucket");

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, NoCacheFlagForcesFreshSolves) {
  Daemon daemon(base_config());
  daemon.start();
  Client client(daemon.config().socket_path);

  SolveCommand command = solve_command(kSpecB);
  command.no_cache = true;
  EXPECT_FALSE(client.solve_raw(command).cache_hit);
  EXPECT_FALSE(client.solve_raw(command).cache_hit);  // still cold
  // And no_cache solves do not populate the cache either.
  EXPECT_FALSE(client.solve_raw(solve_command(kSpecB)).cache_hit);

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, EquivalentEngineSpecsShareOneCacheEntry) {
  Daemon daemon(base_config());
  daemon.start();
  Client client(daemon.config().socket_path);

  EXPECT_FALSE(
      client.solve_raw(solve_command(kSpecA, "aeps:epsilon=0.20")).cache_hit);
  // Same engine configuration, different spelling: must hit.
  EXPECT_TRUE(
      client.solve_raw(solve_command(kSpecA, "aeps:epsilon=0.2")).cache_hit);

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, TypedRejectsForBadSpecAndUnknownEngine) {
  Daemon daemon(base_config());
  daemon.start();
  Client client(daemon.config().socket_path);

  EXPECT_EQ(code_of([&] {
              client.solve_raw(solve_command("family=nonsense foo=1"));
            }),
            ErrorCode::kBadSpec);
  EXPECT_EQ(code_of([&] {
              client.solve_raw(solve_command(kSpecA, "no-such-engine"));
            }),
            ErrorCode::kUnknownEngine);
  // The connection survives typed rejects.
  EXPECT_FALSE(client.solve_raw(solve_command(kSpecC)).cache_hit);

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, MalformedFramesGetTypedErrorsAndDaemonSurvives) {
  DaemonConfig config = base_config();
  config.max_frame_bytes = 4096;
  Daemon daemon(std::move(config));
  daemon.start();

  {
    // Raw socket: garbage lines must produce ok=false frames on the
    // same connection, which stays usable afterwards.
    util::UnixStream raw =
        util::UnixStream::connect(daemon.config().socket_path);
    std::string reply;
    for (const char* frame :
         {"not json", "{\"verb\":\"solve\"", "{\"verb\":\"frobnicate\"}",
          "[1,2,3]", "{\"verb\":\"solve\",\"spec\":42}"}) {
      raw.write_line(frame);
      ASSERT_TRUE(raw.read_line(reply)) << "no reply for: " << frame;
      EXPECT_THROW(parse_reply(reply), ProtocolError) << "frame: " << frame;
    }
    // Same connection, now a valid command.
    Command status;
    status.verb = Verb::kStatus;
    raw.write_line(encode_command(status));
    ASSERT_TRUE(raw.read_line(reply));
    EXPECT_NO_THROW(parse_status_reply(reply));
  }

  {
    // An oversized frame kills only the offending connection.
    util::UnixStream raw =
        util::UnixStream::connect(daemon.config().socket_path);
    raw.write_line(std::string(8192, 'x'));
    std::string reply;
    // Best-effort error reply, then EOF; either way no hang.
    while (raw.read_line(reply)) {
    }
  }

  // The daemon itself is alive and solving.
  Client client(daemon.config().socket_path);
  EXPECT_FALSE(client.solve_raw(solve_command(kSpecC)).cache_hit);

  daemon.stop();
  daemon.wait();
}

/// Regression (socket-layer short-write/EINTR sweep): a client that dies
/// mid-frame — partial line written, no newline, abrupt close — must
/// read as EOF on the daemon side, not as a short read retried forever
/// or a crash; and a client that closes before reading its reply must
/// cost the daemon nothing more than an EPIPE on that one connection.
TEST(Daemon, ClientKilledMidFrameDoesNotWedgeTheDaemon) {
  Daemon daemon(base_config());
  daemon.start();

  {
    // Half a solve command, never terminated, then the client vanishes.
    util::UnixStream raw =
        util::UnixStream::connect(daemon.config().socket_path);
    const std::string partial = "{\"verb\":\"solve\",\"spec\":\"family=ra";
    ASSERT_EQ(::write(raw.fd(), partial.data(), partial.size()),
              static_cast<ssize_t>(partial.size()));
  }

  {
    // A complete command whose sender closes without reading the reply:
    // the daemon's reply write hits a dead peer (EPIPE, not SIGPIPE).
    util::UnixStream raw =
        util::UnixStream::connect(daemon.config().socket_path);
    Command command;
    command.verb = Verb::kSolve;
    command.solve = solve_command(kSpecA);
    raw.write_line(encode_command(command));
  }

  // Meanwhile the daemon still serves well-behaved clients, repeatedly.
  Client client(daemon.config().socket_path);
  for (int i = 0; i < 3; ++i)
    EXPECT_NO_THROW(client.solve_raw(solve_command(kSpecB)));

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, QueueCapRejectsOverloadedTyped) {
  register_gated_engine();
  DaemonConfig config = base_config();
  config.workers = 1;
  config.queue_cap = 1;
  Daemon daemon(std::move(config));
  daemon.start();

  GateClosed gate;
  SolveCommand blocked = solve_command(kSpecA, "gated");
  blocked.no_cache = true;

  // First job occupies the single worker...
  std::thread first([&] {
    Client client(daemon.config().socket_path);
    EXPECT_NO_THROW(client.solve_raw(blocked));
  });
  gate.await_running(1);

  // ...second fills the queue (admitted, waiting for the worker)...
  SolveCommand queued = solve_command(kSpecB, "gated");
  queued.no_cache = true;
  std::thread second([&] {
    Client client(daemon.config().socket_path);
    EXPECT_NO_THROW(client.solve_raw(queued));
  });
  {
    Client poll(daemon.config().socket_path);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (poll.status().queue_depth < 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "second job never reached the queue";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // ...third must be rejected with the typed overload code, immediately.
  SolveCommand rejected = solve_command(kSpecC, "gated");
  rejected.no_cache = true;
  Client client(daemon.config().socket_path);
  EXPECT_EQ(code_of([&] { client.solve_raw(rejected); }),
            ErrorCode::kOverloaded);
  EXPECT_GE(client.status().rejected, 1u);

  gate.release();
  first.join();
  second.join();
  daemon.stop();
  daemon.wait();
}

/// Solves admitted while the only running slot is taken start in the
/// order they arrived.
TEST(Daemon, AdmissionIsFifo) {
  register_gated_engine();
  DaemonConfig config = base_config();
  config.workers = 1;
  config.queue_cap = 3;
  Daemon daemon(std::move(config));
  daemon.start();

  const std::vector<std::uint64_t> seeds = {31, 32, 33, 34};
  std::vector<std::vector<double>> expected;
  for (const std::uint64_t seed : seeds)
    expected.push_back(node_weights(
        workload::ScenarioSpec::parse(gated_command(seed).spec)
            .materialize()
            .graph));
  for (std::size_t i = 1; i < expected.size(); ++i)
    ASSERT_NE(expected[i], expected[i - 1]) << "seeds must be told apart";
  {
    const std::lock_guard<std::mutex> lock(g_gate_mu);
    g_gate_started.clear();
  }

  GateClosed gate;
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    clients.emplace_back([&, i] {
      Client client(daemon.config().socket_path);
      EXPECT_NO_THROW(client.solve_raw(gated_command(seeds[i])));
    });
    // The first solve takes the slot; each later one must be queued
    // before the next client connects, so arrival order is known.
    if (i == 0)
      gate.await_running(1);
    else
      await_queue_depth(daemon, i);
  }
  gate.release();
  for (auto& client : clients) client.join();

  {
    const std::lock_guard<std::mutex> lock(g_gate_mu);
    EXPECT_EQ(g_gate_started, expected);
  }
  daemon.stop();
  daemon.wait();
}

/// stop() must answer a queued solve at once, even while the running one
/// is still inside its engine.
TEST(Daemon, QueuedJobGetsShuttingDownWhileAJobRuns) {
  register_gated_engine();
  DaemonConfig config = base_config();
  config.workers = 1;
  Daemon daemon(std::move(config));
  daemon.start();

  GateClosed gate;
  std::thread running([&] {
    Client client(daemon.config().socket_path);
    try {
      client.solve_raw(gated_command(41));
    } catch (const util::Error&) {
      // Cut off by the teardown or answered kShuttingDown: both fine.
    }
  });
  gate.await_running(1);

  std::mutex mu;
  std::condition_variable cv;
  std::optional<ErrorCode> queued_code;
  std::thread queued([&] {
    Client client(daemon.config().socket_path);
    ErrorCode code = ErrorCode::kBadRequest;
    try {
      client.solve_raw(gated_command(42));
    } catch (const ProtocolError& e) {
      code = e.code;
    } catch (const util::Error&) {
      code = ErrorCode::kTransport;
    }
    const std::lock_guard<std::mutex> lock(mu);
    queued_code = code;
    cv.notify_all();
  });
  await_queue_depth(daemon, 1);

  std::thread stopper([&] {
    daemon.stop();
    daemon.wait();
  });
  {
    // The gate stays closed throughout: the running solve cannot finish.
    std::unique_lock<std::mutex> lock(mu);
    const bool answered = cv.wait_for(lock, std::chrono::seconds(10),
                                      [&] { return queued_code.has_value(); });
    EXPECT_TRUE(answered) << "queued solve not answered while a job runs";
    EXPECT_EQ(queued_code, std::optional<ErrorCode>(ErrorCode::kShuttingDown));
  }
  gate.release();
  queued.join();
  running.join();
  stopper.join();
}

TEST(Daemon, MemoryGovernorRejectsTyped) {
  register_gated_engine();
  DaemonConfig config = base_config();
  config.workers = 2;
  config.memory_budget = 64u << 20;
  config.default_job_memory = 24u << 20;
  Daemon daemon(std::move(config));
  daemon.start();

  // A job whose own cap exceeds the whole budget: kMemory, instantly.
  Client client(daemon.config().socket_path);
  SolveCommand greedy = solve_command(kSpecA);
  greedy.no_cache = true;
  greedy.limits.max_memory_bytes = 128u << 20;
  EXPECT_EQ(code_of([&] { client.solve_raw(greedy); }), ErrorCode::kMemory);

  // Jobs that fit alone but not together: the second is refused rather
  // than overcommitting the budget (48 + 48 > 64 MiB).
  GateClosed gate;
  SolveCommand big = solve_command(kSpecB, "gated");
  big.no_cache = true;
  big.limits.max_memory_bytes = 48u << 20;
  std::thread first([&] {
    Client inner(daemon.config().socket_path);
    EXPECT_NO_THROW(inner.solve_raw(big));
  });
  gate.await_running(1);
  SolveCommand second_big = solve_command(kSpecC, "gated");
  second_big.no_cache = true;
  second_big.limits.max_memory_bytes = 48u << 20;
  EXPECT_EQ(code_of([&] { client.solve_raw(second_big); }),
            ErrorCode::kOverloaded);

  gate.release();
  first.join();
  daemon.stop();
  daemon.wait();
}

TEST(Daemon, ConcurrentClientsAllGetConsistentAnswers) {
  DaemonConfig config = base_config();
  config.workers = 4;
  Daemon daemon(std::move(config));
  daemon.start();

  // 4 threads x 8 solves over 4 distinct specs: every reply for a spec
  // must carry the identical outcome (first run caches, rest hit), up to
  // the run-class counters in which two concurrent cold solves differ.
  constexpr int kThreads = 4;
  const std::string specs[] = {
      "family=random nodes=6 ccr=1 machine=clique:2 seed=21",
      "family=random nodes=6 ccr=1 machine=clique:2 seed=22",
      "family=random nodes=6 ccr=1 machine=clique:2 seed=23",
      "family=random nodes=6 ccr=1 machine=clique:2 seed=24"};
  std::mutex mu;
  std::map<std::string, SolveOutcome> seen;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      Client client(daemon.config().socket_path);
      for (int i = 0; i < 8; ++i)
        for (const auto& spec : specs) {
          const SolveReply reply = client.solve_raw(solve_command(spec));
          const std::lock_guard<std::mutex> lock(mu);
          const auto [it, inserted] =
              seen.emplace(spec, without_run_counters(reply.outcome));
          if (!inserted &&
              !(it->second == without_run_counters(reply.outcome)))
            failures.fetch_add(1);
        }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const StatusReply status = Client(daemon.config().socket_path).status();
  EXPECT_GE(status.cache_hits_served, 1u);
  EXPECT_EQ(status.queue_depth, 0u);

  daemon.stop();
  daemon.wait();
}

TEST(Daemon, ShutdownVerbDrainsAndUnbindsTheSocket) {
  Daemon daemon(base_config());
  std::thread runner([&] { daemon.run(); });
  // start() inside run() races with our connect; retry briefly.
  std::unique_ptr<Client> client;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!client) {
    try {
      client = std::make_unique<Client>(daemon.config().socket_path);
    } catch (const util::Error&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_FALSE(client->solve_raw(solve_command(kSpecA)).cache_hit);
  client->shutdown();  // acknowledged before the daemon drains
  runner.join();       // run() returns: everything torn down

  // The socket is gone: fresh connections must fail.
  EXPECT_THROW(Client{daemon.config().socket_path}, util::Error);
}

}  // namespace
}  // namespace optsched::server
