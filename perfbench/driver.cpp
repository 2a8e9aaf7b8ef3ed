// Benchmark driver: runs one workload for one seed and prints its metrics
// as one JSON object on the last line of stdout. run.py builds this
// binary and wraps its output; see README.md for the workloads, metrics
// and the contract between the two.
//
//   perfbench_driver --workload search-heavy --seed 1 --seconds 30
//                    --trace 0 --refs perfbench/refs.json
//                    --cli <optsched_cli> --out-dir <dir>
//   perfbench_driver --write-refs perfbench/refs.json
//
// Every layer is measured from outside: the driver times its own calls
// into each layer's public functions and reads the counters that
// api::SolveResult::stats returns. Each run is a setup phase (repeated
// kSetups times over the run; setup_s is the median), an untimed
// reference step for seeds whose references are not committed, and a
// timed phase that repeats the workload's fixed round of requests for
// about --seconds. A traced run alternates untraced and traced rounds,
// so the tracing overhead is measured inside the run, then runs the
// probes that only the per-layer report needs.
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "core/problem.hpp"
#include "inputs.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validator.hpp"
#include "server/client.hpp"
#include "trace.hpp"
#include "util/jsonl.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace api = optsched::api;
namespace core = optsched::core;
namespace sched = optsched::sched;
namespace server = optsched::server;
namespace util = optsched::util;
using util::Json;

constexpr std::uint64_t kDefaultSeed = 1;  // the seed with committed refs
constexpr std::size_t kSetups = 15;
constexpr unsigned kDistProcs = 3;         // coordinator + 3 = 4 cores
constexpr unsigned kDaemonWorkers = 2;
constexpr unsigned kServeClients = 4;
constexpr int kServeCpus = 2;             // CPUs the serve-mix processes share
constexpr std::size_t kProbeChains = 3;    // resolve-churn cold probes
constexpr int kProbeRepeats = 9;           // fixed-cost probes

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  std::string refs = "perfbench/refs.json";
  std::string cli;
  std::string out_dir = ".";
  std::string write_refs;
};

// Sums, maxima, and per-call samples of the traced rounds and probes.
struct Counters {
  std::map<std::string, double> sum;
  std::map<std::string, std::vector<double>> samples;

  void add(const std::string& key, double v) { sum[key] += v; }
  void max(const std::string& key, double v) {
    sum[key] = std::max(sum[key], v);
  }
  double get(const std::string& key) const {
    const auto it = sum.find(key);
    return it == sum.end() ? 0.0 : it->second;
  }
  std::vector<double> list(const std::string& key) const {
    const auto it = samples.find(key);
    return it == samples.end() ? std::vector<double>{} : it->second;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Peak resident memory (VmHWM) of a process ("self" or a pid), in MB.
double vm_hwm_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 20, '\n');
  }
  return 0.0;
}

// Start a fresh peak-RSS window: return freed heap pages to the kernel so
// that every round starts from the same resident set, then reset VmHWM
// to the current RSS (Linux clear_refs).
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// Summed peak RSS of the child processes alive while it runs: the dist
// worker fleet of one solve. RUSAGE_CHILDREN would give only the largest
// single worker, which moves by tens of MB with the work split, while
// the fleet's total follows the number of states stored. VmHWM only
// grows, so polling every few ms misses at most the last moments of a
// worker's growth.
class ChildPeakSampler {
 public:
  ChildPeakSampler() : thread_([this] { loop(); }) {}
  ChildPeakSampler(const ChildPeakSampler&) = delete;
  ChildPeakSampler& operator=(const ChildPeakSampler&) = delete;
  ~ChildPeakSampler() { stop(); }

  // Stop sampling; returns the sum of every child's peak, in MB.
  double stop() {
    if (thread_.joinable()) {
      done_ = true;
      thread_.join();
    }
    double sum = 0.0;
    for (const auto& [pid, mb] : peak_) sum += mb;
    return sum;
  }

 private:
  void loop() {
    while (!done_) {
      sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void sample() {
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      std::ifstream children(task.path() / "children");
      std::string pid;
      while (children >> pid) peak_[pid] = std::max(peak_[pid], vm_hwm_mb(pid));
    }
  }

  std::atomic<bool> done_{false};
  std::map<std::string, double> peak_;  // touched only by thread_
  std::thread thread_;
};

// Fold a dist solve's wire counters into the parallel.* sums.
void add_dist(Counters& c, const api::SolveResult& r, double ref_expanded) {
  const api::SolveStats& s = r.stats;
  c.add("ref_expanded", ref_expanded);
  c.add("dist_expanded", static_cast<double>(s.search.expanded));
  c.add("states_serialized", static_cast<double>(s.states_serialized));
  c.add("batches_sent", static_cast<double>(s.batches_sent));
  c.add("states_deduped_at_send", static_cast<double>(s.states_deduped_at_send));
  c.add("flushes", static_cast<double>(s.flushes));
  c.add("termination_rounds", static_cast<double>(s.termination_rounds));
  c.add("bytes_sent", static_cast<double>(s.bytes_sent));
  c.max("dist_peak_search_mb", static_cast<double>(s.search.peak_memory_bytes) / 1e6);
}

// Fold one solve's engine counters into the core.* sums.
void add_search(Counters& c, const api::SolveResult& r) {
  const core::SearchStats& s = r.stats.search;
  c.add("solves", 1);
  c.add("search_ms", s.elapsed_seconds * 1e3);
  c.add("expanded", static_cast<double>(s.expanded));
  c.add("generated", static_cast<double>(s.generated));
  c.add("dups", static_cast<double>(s.duplicates_dropped));
  c.add("pruned", static_cast<double>(s.pruned_upper_bound));
  c.add("loads_full", static_cast<double>(s.loads_full));
  c.add("loads_incremental", static_cast<double>(s.loads_incremental));
  c.add("replayed", static_cast<double>(s.assignments_replayed));
  c.add("bucket", std::strcmp(s.queue_kind, "bucket") == 0 ? 1 : 0);
  c.max("peak_search_mb", static_cast<double>(s.peak_memory_bytes) / 1e6);
  c.max("arena_hot_mb", static_cast<double>(s.arena_hot_bytes) / 1e6);
}

class Run {
 public:
  explicit Run(Args a) : args(std::move(a)), tracer(false) {}

  Args args;
  Json refs;
  Tracer tracer;
  Counters layer;  // filled by the first traced round and the probes

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  double setup_s = 0.0;
  double materialize_ms = 0.0;
  std::vector<double> round_s;         // untraced rounds
  std::vector<double> traced_round_s;  // traced rounds (traced runs only)
  std::vector<double> latency_ms;      // untraced requests
  std::vector<double> round_p50_ms;    // latency quantiles of each
  std::vector<double> round_p90_ms;    // untraced round
  std::vector<double> rss_mb;          // peak RSS of each untraced round
  // Resident memory a round used outside this process (dist workers, the
  // daemon), set by the round itself.
  double round_extra_rss_mb = 0.0;
  std::map<std::string, double> detail;

  bool traced() const { return tracer.enabled(); }
  // Per-layer counters come from the first traced round only (every round
  // repeats the same requests), so they read as per-round figures.
  bool counting() const { return traced() && traced_round_s.empty(); }

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }

  // Validate `r` and compare it with the reference; records a failure on
  // any mismatch. Runs outside every latency window.
  void check(const api::SolveResult& r, double ref_makespan,
             double ref_expanded, const std::string& what) {
    const util::Timer timer;
    bool valid = false;
    {
      auto span = tracer.span("sched.validate");
      valid = sched::ScheduleValidator().valid(r.schedule);
    }
    if (counting()) layer.samples["validate_ms"].push_back(timer.millis());
    std::string why;
    if (!valid) why = "invalid schedule";
    else if (!r.proved_optimal || r.reason != core::Termination::kOptimal)
      why = "not proved optimal";
    else if (std::fabs(r.makespan - ref_makespan) > 1e-6)
      why = "makespan " + util::format_number(r.makespan) + " != reference " +
            util::format_number(ref_makespan);
    else if (ref_expanded >= 0 &&
             static_cast<double>(r.stats.search.expanded) != ref_expanded)
      why = "expanded " + std::to_string(r.stats.search.expanded) +
            " != reference " + util::format_number(ref_expanded);
    if (!why.empty()) fail(what + ": " + why);
  }

  // setup_s and materialize_ms are medians over kSetups runs of `setup`.
  // The first runs here, before the timed phase; timed_phase spreads the
  // others between its rounds, so that like the round timings they
  // sample the whole run and not the host's speed of one half second.
  // `teardown` runs after each setup, outside the timing.
  void setup_phase(std::function<double()> setup,
                   std::function<void()> teardown = [] {}) {
    setup_ = std::move(setup);
    teardown_ = std::move(teardown);
    setup_once();
  }

  // Repeat `round`, which returns the wall seconds of its timed part,
  // while another round like the last one still ends within --seconds,
  // and at least until three untraced rounds ran, so that per-round
  // medians exist. A traced run alternates untraced and traced rounds,
  // starting untraced, and needs one of each. Latency quantiles, wall
  // time and peak RSS are taken per round and reported as the median
  // round: a slow spell of the host, or a dist round that peaks 30%
  // above the others, then moves the figure only if it covers most
  // rounds.
  void timed_phase(const std::function<double()>& round) {
    const double start = now_ms();
    for (int k = 0;; ++k) {
      const double round_start = now_ms();
      const bool traced_round = args.trace && k % 2 == 1;
      tracer.set_enabled(traced_round);
      reset_peak_rss();
      const std::size_t first = latency_ms.size();
      const double wall_s = round();
      if (traced_round) {
        traced_round_s.push_back(wall_s);
      } else {
        round_s.push_back(wall_s);
        rss_mb.push_back(vm_hwm_mb("self") + round_extra_rss_mb);
        const std::vector<double> lat(latency_ms.begin() + first,
                                      latency_ms.end());
        round_p50_ms.push_back(quantile(lat, 0.5));
        round_p90_ms.push_back(quantile(lat, 0.9));
      }
      const double end = now_ms();
      if (end + (end - round_start) - start > args.seconds * 1e3 &&
          (args.trace ? !traced_round_s.empty() : round_s.size() >= 3))
        break;
      const double progress = (end - start) / (args.seconds * 1e3);
      while (setup_secs_.size() < 1 + (kSetups - 1) * std::min(progress, 1.0))
        setup_once();
    }
    while (setup_secs_.size() < kSetups) setup_once();
    setup_s = median(setup_secs_);
    materialize_ms = median(setup_mats_);
    detail["setup_samples"] = kSetups;
    tracer.set_enabled(args.trace);
  }

  void latency(double ms) {
    ++attempted;
    if (!traced()) latency_ms.push_back(ms);
  }

 private:
  void setup_once() {
    const double t0 = now_ms();
    setup_mats_.push_back(setup_());
    setup_secs_.push_back((now_ms() - t0) / 1e3);
    teardown_();
  }

  std::function<double()> setup_;
  std::function<void()> teardown_;
  std::vector<double> setup_secs_, setup_mats_;
};

const Json& ref_entry(const Run& run, const char* section,
                      const std::string& key) {
  const Json& s = run.refs.at(section);
  if (!s.has(key))
    throw util::Error(std::string("no committed reference in ") + section +
                      " for '" + key + "'; regenerate with --write-refs");
  return s.at(key);
}

api::SolveResult solve(const std::string& engine, const Instance& inst,
                       const api::Options& options = {},
                       const core::SearchProblem* problem = nullptr) {
  api::SolveRequest req(inst.graph, inst.machine, inst.comm);
  req.options = options;
  req.problem = problem;
  return api::solve(engine, req);
}

const api::Options& dist_options() {
  static const api::Options o = {{"mode", "dist"},
                                 {"procs", std::to_string(kDistProcs)}};
  return o;
}

// --------------------------------------------------------------------------
// search-heavy and dist-heavy: one solve per heavy-tier item per round.

double heavy_round(Run& run, const std::vector<HeavyItem>& items, bool dist) {
  const double start = now_ms();
  double fleet_mb = 0.0;  // largest dist worker fleet of the round
  for (const HeavyItem& item : items) {
    run.tracer.begin_request();
    auto request_span = run.tracer.span("bench.request");
    const Json& ref = ref_entry(run, "heavy", item.key);
    const Instance& in = item.instance;
    const api::Options options = dist ? dist_options() : api::Options{};
    const char* engine = dist ? "parallel" : "astar";
    double ms = 0.0;
    std::optional<api::SolveResult> result;
    if (run.traced()) {
      // The traced round builds the SearchProblem itself so that build
      // and search time separate; the engine then skips its own build.
      const double t0 = now_ms();
      std::optional<core::SearchProblem> problem;
      {
        auto span = run.tracer.span("core.problem_build");
        problem.emplace(in.graph, in.machine, in.comm);
      }
      const double t1 = now_ms();
      {
        auto span = run.tracer.span(dist ? "parallel.dist_solve"
                                         : "core.search");
        result.emplace(solve(engine, in, options, &*problem));
      }
      ms = now_ms() - t0;
      if (run.counting()) {
        run.layer.samples["build_ms"].push_back(t1 - t0);
        run.layer.add("build_ms", t1 - t0);
        run.layer.add("solve_call_ms", ms - (t1 - t0));
        add_search(run.layer, *result);
        if (dist) add_dist(run.layer, *result, ref.at("expanded").as_number());
      }
    } else {
      std::optional<ChildPeakSampler> fleet;
      if (dist) fleet.emplace();
      const double t0 = now_ms();
      result.emplace(solve(engine, in, options));
      ms = now_ms() - t0;
      if (fleet) fleet_mb = std::max(fleet_mb, fleet->stop());
    }
    run.latency(ms);
    // Dist expansion counts depend on message timing; only the serial
    // engine must reproduce the reference count exactly.
    run.check(*result, ref.at("makespan").as_number(),
              dist ? -1.0 : ref.at("expanded").as_number(), item.key);
  }
  const double wall_s = (now_ms() - start) / 1e3;
  run.round_extra_rss_mb = fleet_mb;
  return wall_s;
}

void heavy_workload(Run& run, bool dist) {
  const auto& tier = dist ? dist_tier() : heavy_tier();
  std::vector<HeavyItem> items;
  double warmup_mat = 0.0;
  const Instance warmup = materialize(warmup_spec(), warmup_mat);
  run.setup_phase([&] {
    double mat = 0.0;
    items = heavy_inputs(tier, run.args.seed, mat);
    // Warm-up: one small solve through the same engine (for dist this
    // spawns and reaps a worker fleet once).
    solve(dist ? "parallel" : "astar", warmup,
          dist ? dist_options() : api::Options{});
    return mat;
  });
  run.timed_phase([&] { return heavy_round(run, items, dist); });

  if (dist && run.args.trace) {
    // Fixed cost of a dist solve: spawn, handshake, and teardown on an
    // instance whose search is trivial.
    double mat = 0.0;
    const Instance trivial = materialize(trivial_spec(), mat);
    for (int i = 0; i < kProbeRepeats; ++i) {
      const double t0 = now_ms();
      solve("parallel", trivial, dist_options());
      run.layer.samples["fixed_cost_ms"].push_back(now_ms() - t0);
    }
  }
}

// --------------------------------------------------------------------------
// serve-mix: a fresh daemon per round, four closed-loop clients.

// A resident `optsched_cli serve` child process.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& cli, const std::string& socket)
      : socket_(socket) {
    ::unlink(socket.c_str());
    int fds[2];
    if (::pipe(fds) != 0) throw util::Error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::string workers = std::to_string(kDaemonWorkers);
    std::vector<std::string> argv_s = {cli,        "serve",   "--socket",
                                       socket,     "--workers", workers};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      ::close(out_);
      throw util::Error("cannot spawn " + cli + ": " + std::strerror(rc));
    }
    // Wait for the readiness line the CLI prints once it accepts.
    std::string line;
    char c = 0;
    while (line.find("listening on") == std::string::npos) {
      if (::read(out_, &c, 1) != 1) {
        reap();
        throw util::Error("daemon exited before listening");
      }
      line.push_back(c);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      reap();
    }
  }

  double hwm_mb() const { return vm_hwm_mb(std::to_string(pid_)); }

  void stop() {
    server::Client(socket_).shutdown();
    reap();
  }

 private:
  void reap() {
    char buf[256];
    while (::read(out_, buf, sizeof buf) > 0) {
    }
    ::close(out_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::unlink(socket_.c_str());
  }

  std::string socket_;
  pid_t pid_ = -1;
  int out_ = -1;
};

struct ServeRecord {
  double rtt_ms = 0.0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  double rebuild_ms = 0.0;
  double validate_ms = 0.0;
  bool hit = false;
  bool rejected = false;
};

// Confine this process, and so the daemon it spawns, to the first
// kServeCpus CPUs it may run on. Spread over four vCPUs, the request
// pipeline (client thread, daemon connection thread, pool worker and
// back) leaves a vCPU idle at every hand-off, and waking an idle vCPU
// goes through the host: while the host was busy, whole serve-mix runs
// came out 2-2.7x slower although single-threaded workloads moved by
// under 5%. On two CPUs the hand-offs mostly stay on a busy CPU: in
// alternating runs on a shared 4-vCPU VM the round took 5-15% longer
// while the host was quiet, and 1.4x (not 2.7x) longer while it was busy.
void confine_to_serve_cpus() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < kServeCpus; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &set);
      ++n;
    }
  ::sched_setaffinity(0, sizeof set, &set);
}

void serve_workload(Run& run) {
  confine_to_serve_cpus();
  const std::string socket =
      run.args.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  ServeStream stream;
  std::vector<Instance> instances;
  std::unique_ptr<DaemonProcess> daemon;
  run.setup_phase(
      [&] {
        double mat = 0.0;
        stream = serve_inputs(run.args.seed);
        instances.clear();
        for (const std::string& spec : stream.specs)
          instances.push_back(materialize(spec, mat));
        daemon = std::make_unique<DaemonProcess>(run.args.cli, socket);
        server::Client client(socket);
        client.status();
        server::SolveCommand warm;
        warm.spec = warmup_spec();
        warm.no_cache = true;
        client.solve_raw(warm);
        return mat;
      },
      [&] {
        daemon->stop();
        daemon.reset();
      });

  // References: committed for the default seed, else one untimed
  // in-process serial A* solve per distinct line.
  std::vector<double> ref(stream.specs.size());
  for (std::size_t i = 0; i < stream.specs.size(); ++i)
    ref[i] = run.args.seed == kDefaultSeed
                 ? ref_entry(run, "serve", stream.specs[i]).as_number()
                 : solve("astar", instances[i]).makespan;

  std::vector<ServeRecord> records;  // the counting round
  std::mutex mu;  // guards run.fail / run.tracer merge from client threads
  run.timed_phase([&] {
    const bool traced = run.traced();
    const bool counting = run.counting();
    DaemonProcess d(run.args.cli, socket);
    std::vector<server::Client> clients;
    for (unsigned t = 0; t < kServeClients; ++t) clients.emplace_back(socket);
    std::vector<ServeRecord> round(stream.requests.size());
    std::atomic<std::size_t> next{0};
    const double t0 = now_ms();
    std::vector<std::jthread> threads;
    for (server::Client& client : clients) {
      threads.emplace_back([&, c = &client] {
        Tracer tracer(traced);
        try {
          for (std::size_t i; (i = next.fetch_add(1)) < stream.requests.size();) {
            const std::size_t spec = stream.requests[i];
            ServeRecord& rec = round[i];
            tracer.begin_request();
            auto request_span = tracer.span("bench.request");
            server::SolveCommand cmd;
            cmd.spec = stream.specs[spec];
            server::SolveReply reply;
            try {
              const double sent = now_ms();
              {
                auto span = tracer.span("server.solve_raw");
                reply = c->solve_raw(cmd);
              }
              rec.rtt_ms = now_ms() - sent;
            } catch (const server::ProtocolError& e) {
              rec.rejected = true;
              std::lock_guard lock(mu);
              run.fail(cmd.spec + ": rejected: " + e.what());
              continue;
            }
            rec.hit = reply.cache_hit;
            rec.queue_ms = reply.queue_wait_ms;
            rec.solve_ms = reply.solve_ms;
            const double t1 = now_ms();
            std::optional<api::SolveResult> result;
            {
              auto span = tracer.span("server.rebuild");
              result.emplace(server::rebuild_result(instances[spec], reply));
            }
            rec.rebuild_ms = now_ms() - t1;
            const bool proved = reply.outcome.proved_optimal;
            const double t2 = now_ms();
            bool valid = false;
            {
              auto span = tracer.span("sched.validate");
              valid = sched::ScheduleValidator().valid(result->schedule);
            }
            rec.validate_ms = now_ms() - t2;
            const bool same =
                std::fabs(result->makespan - ref[spec]) <= 1e-6;
            if (!proved || !valid || !same) {
              std::lock_guard lock(mu);
              run.fail(cmd.spec + (!valid ? ": invalid schedule"
                                   : !proved ? ": not proved optimal"
                                             : ": makespan mismatch"));
            }
          }
        } catch (const std::exception& e) {
          std::lock_guard lock(mu);
          run.fail(std::string("client: ") + e.what());
        }
        std::lock_guard lock(mu);
        run.tracer.absorb(tracer);
      });
    }
    for (std::jthread& t : threads) t.join();
    const double wall_s = (now_ms() - t0) / 1e3;
    for (const ServeRecord& rec : round) {
      if (!rec.rejected) run.latency(rec.rtt_ms);
      else ++run.attempted;
      if (counting) records.push_back(rec);
    }
    run.round_extra_rss_mb = d.hwm_mb();
    d.stop();
    return wall_s;
  });
  run.detail["repeat_share"] = ratio(static_cast<double>(stream.repeats),
                                     static_cast<double>(stream.requests.size()));
  if (!run.args.trace) return;

  // Per-layer views of the counting round.
  std::vector<double> hit_ms, miss_ms, queue_ms, solve_ms, overhead_ms,
      rebuild_ms;
  double hits = 0, rejects = 0;
  for (const ServeRecord& r : records) {
    if (r.rejected) {
      ++rejects;
      continue;
    }
    (r.hit ? hit_ms : miss_ms).push_back(r.rtt_ms);
    hits += r.hit ? 1 : 0;
    if (!r.hit) {
      queue_ms.push_back(r.queue_ms);
      solve_ms.push_back(r.solve_ms);
    }
    overhead_ms.push_back(r.rtt_ms - r.queue_ms - r.solve_ms);
    rebuild_ms.push_back(r.rebuild_ms);
    run.layer.samples["validate_ms"].push_back(r.validate_ms);
  }
  Counters& c = run.layer;
  c.samples["hit_ms"] = hit_ms;
  c.samples["miss_ms"] = miss_ms;
  c.samples["queue_ms"] = queue_ms;
  c.samples["server_solve_ms"] = solve_ms;
  c.samples["overhead_ms"] = overhead_ms;
  c.samples["rebuild_ms"] = rebuild_ms;
  c.add("hits", hits);
  c.add("served", static_cast<double>(records.size()));
  c.add("rejects", rejects);

  // Probes: status round trip with no solve, and the build/search split
  // of the distinct lines, solved in-process as the daemon solves misses.
  {
    DaemonProcess d(run.args.cli, socket);
    server::Client client(socket);
    for (int i = 0; i < 5 * kProbeRepeats; ++i) {
      const double t0 = now_ms();
      client.status();
      c.samples["status_rtt_ms"].push_back(now_ms() - t0);
    }
    d.stop();
  }
  for (const Instance& in : instances) {
    const double t0 = now_ms();
    const core::SearchProblem problem(in.graph, in.machine, in.comm);
    const double t1 = now_ms();
    const api::SolveResult r = solve("astar", in, {}, &problem);
    c.samples["build_ms"].push_back(t1 - t0);
    c.add("build_ms", t1 - t0);
    c.add("solve_call_ms", now_ms() - t1);
    add_search(c, r);
  }
}

// --------------------------------------------------------------------------
// resolve-churn: one SolveSession per chain, warm resolve per delta.

void churn_workload(Run& run) {
  std::vector<ChainItem> chains;
  double warmup_mat = 0.0;
  const Instance warmup = materialize(warmup_spec(), warmup_mat);
  run.setup_phase([&] {
    double mat = 0.0;
    chains = churn_inputs(run.args.seed, mat);
    api::SolveSession session("astar");
    session.solve(api::SolveRequest(warmup.graph, warmup.machine, warmup.comm));
    return mat;
  });

  run.timed_phase([&] {
    const double start = now_ms();
    for (const ChainItem& chain : chains) {
      const Json& ref = ref_entry(run, "churn", chain.key);
      const Instance& in = chain.instance;
      api::SolveSession session("astar");
      {
        run.tracer.begin_request();
        auto request_span = run.tracer.span("bench.request");
        std::optional<api::SolveResult> r;
        {
          auto span = run.tracer.span("api.solve");
          r.emplace(session.solve(api::SolveRequest(in.graph, in.machine, in.comm)));
        }
        run.check(*r, ref.as_array()[0].at("makespan").as_number(),
                  ref.as_array()[0].at("expanded").as_number(),
                  chain.key + " step 0");
      }
      for (std::size_t k = 0; k < chain.deltas.size(); ++k) {
        run.tracer.begin_request();
        auto request_span = run.tracer.span("bench.request");
        const double t0 = now_ms();
        std::optional<api::SolveResult> r;
        {
          auto span = run.tracer.span("api.resolve");
          r.emplace(session.resolve(chain.deltas[k]));
        }
        const double ms = now_ms() - t0;
        run.latency(ms);
        if (run.counting()) {
          add_search(run.layer, *r);
          run.layer.samples["resolve_ms"].push_back(ms);
          run.layer.add("states_retained",
                        static_cast<double>(r->stats.states_retained));
        }
        const Json& step = ref.as_array().at(k + 1);
        run.check(*r, step.at("makespan").as_number(),
                  step.at("expanded").as_number(),
                  chain.key + " step " + std::to_string(k + 1));
      }
    }
    return (now_ms() - start) / 1e3;
  });
  if (!run.args.trace) return;

  // Probes on the first chains: the session's internal steps called
  // directly (apply_delta, repair_schedule), and a cold build + solve of
  // every step instance for the warm/cold expansion ratio.
  Counters& c = run.layer;
  for (std::size_t i = 0; i < std::min(kProbeChains, chains.size()); ++i) {
    const ChainItem& chain = chains[i];
    const Instance& in = chain.instance;
    api::SolveSession session("astar");
    session.solve(api::SolveRequest(in.graph, in.machine, in.comm));
    for (const core::InstanceDelta& delta : chain.deltas) {
      const double t0 = now_ms();
      const core::DeltaEffect effect =
          core::apply_delta(session.graph(), session.machine(), delta);
      const double t1 = now_ms();
      sched::repair_schedule(effect.graph, effect.machine,
                             session.last().schedule, effect.proc_map, in.comm);
      const double t2 = now_ms();
      const core::SearchProblem problem(effect.graph, effect.machine, in.comm);
      const double t3 = now_ms();
      api::SolveRequest req(effect.graph, effect.machine, in.comm);
      req.problem = &problem;
      const api::SolveResult cold = api::solve("astar", req);
      const double t4 = now_ms();
      const api::SolveResult warm = session.resolve(delta);
      c.samples["apply_delta_ms"].push_back(t1 - t0);
      c.samples["repair_ms"].push_back(t2 - t1);
      c.samples["build_ms"].push_back(t3 - t2);
      c.add("build_ms", t3 - t2);
      c.add("solve_call_ms", t4 - t3);
      c.add("probe_cold_expanded", static_cast<double>(cold.stats.search.expanded));
      c.add("probe_warm_expanded", static_cast<double>(warm.stats.search.expanded));
      if (cold.makespan != warm.makespan)
        run.fail(chain.key + ": warm/cold makespan disagree in probe");
    }
  }
}

// --------------------------------------------------------------------------
// Reports.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base = "";  ///< what a ratio or quantile is taken over
};

// "<n> <what>", the base printed next to a ratio or quantile.
std::string base(double n, const char* what) {
  char text[96];
  std::snprintf(text, sizeof text, "%.6g %s", n, what);
  return text;
}

std::vector<Metric> end_to_end(const Run& run) {
  return {
      {"setup_s", run.setup_s, "s"},
      {"wall_s", median(run.round_s), "s"},
      {"latency_p50_ms", median(run.round_p50_ms), "ms"},
      {"latency_p90_ms", median(run.round_p90_ms), "ms"},
      {"peak_rss_mb", median(run.rss_mb), "MB"},
  };
}

std::vector<Metric> per_layer(const Run& run) {
  const Counters& c = run.layer;
  const double expanded = c.get("expanded");
  const double search_ms = c.get("search_ms");
  const double build = c.get("build_ms");
  // Successors built: stored, dropped as duplicates, or bound-pruned.
  const double successors = c.get("generated") + c.get("dups") + c.get("pruned");
  const double rounds = static_cast<double>(run.traced_round_s.size());
  const std::map<std::string, SpanTotals> spans = span_totals(run.tracer.spans());
  const auto self_ms = [&](const std::string& layer) {
    double ms = 0.0;
    for (const auto& [name, t] : spans)
      if (name.rfind(layer + ".", 0) == 0) ms += t.self_ms;
    return ratio(ms, rounds);
  };
  const double traced_wall = median(run.traced_round_s);
  const double untraced_wall = median(run.round_s);
  const auto it = run.detail.find("repeat_share");
  const double loads = c.get("loads_full") + c.get("loads_incremental");
  const double served = c.get("served");
  const double misses = static_cast<double>(c.list("miss_ms").size());
  const auto n = [&](const char* key, const char* what) {
    return base(static_cast<double>(c.list(key).size()), what);
  };
  return {
      {"workload.materialize_ms", run.materialize_ms, "ms"},
      {"core.problem_build_ms_p50", median(c.list("build_ms")), "ms", n("build_ms", "builds")},
      {"core.problem_build_ms_sum", build, "ms"},
      {"core.problem_build_share", ratio(build, build + c.get("solve_call_ms")), "ratio",
       base(build + c.get("solve_call_ms"), "ms build + solve call")},
      {"core.search_ms", search_ms, "ms"},
      {"core.expanded", expanded, "count"},
      {"core.generated", c.get("generated"), "count"},
      {"core.expand_ns", ratio(search_ms * 1e6, expanded), "ns", base(expanded, "expansions")},
      {"core.full_load_ratio", ratio(c.get("loads_full"), loads), "ratio",
       base(loads, "context loads")},
      {"core.replay_per_expansion", ratio(c.get("replayed"), expanded), "ratio",
       base(expanded, "expansions")},
      {"core.dup_ratio", ratio(c.get("dups"), successors), "ratio",
       base(successors, "successors built")},
      {"core.prune_ratio", ratio(c.get("pruned"), successors), "ratio",
       base(successors, "successors built")},
      {"core.peak_search_mb", c.get("peak_search_mb"), "MB"},
      {"core.arena_hot_mb", c.get("arena_hot_mb"), "MB"},
      {"core.bucket_share", ratio(c.get("bucket"), c.get("solves")), "ratio",
       base(c.get("solves"), "solves")},
      {"core.apply_delta_ms", median(c.list("apply_delta_ms")), "ms", n("apply_delta_ms", "calls")},
      {"sched.repair_ms", median(c.list("repair_ms")), "ms", n("repair_ms", "calls")},
      {"sched.validate_ms", median(c.list("validate_ms")), "ms", n("validate_ms", "calls")},
      {"api.resolve_ms", median(c.list("resolve_ms")), "ms", n("resolve_ms", "resolves")},
      {"api.states_retained", c.get("states_retained"), "count"},
      {"api.warm_expanded_ratio",
       ratio(c.get("probe_warm_expanded"), c.get("probe_cold_expanded")), "ratio",
       base(c.get("probe_cold_expanded"), "cold expansions")},
      {"parallel.fixed_cost_ms", median(c.list("fixed_cost_ms")), "ms", n("fixed_cost_ms", "solves")},
      {"parallel.expanded_overhead", ratio(c.get("dist_expanded"), c.get("ref_expanded")), "ratio",
       base(c.get("ref_expanded"), "serial expansions")},
      {"parallel.states_serialized", c.get("states_serialized"), "count"},
      {"parallel.batches_sent", c.get("batches_sent"), "count"},
      {"parallel.states_deduped_at_send", c.get("states_deduped_at_send"), "count"},
      {"parallel.flushes", c.get("flushes"), "count"},
      {"parallel.termination_rounds", c.get("termination_rounds"), "count"},
      {"parallel.bytes_sent_mb", c.get("bytes_sent") / 1e6, "MB"},
      {"parallel.bytes_per_state", ratio(c.get("bytes_sent"), c.get("states_serialized")), "B",
       base(c.get("states_serialized"), "states serialized")},
      {"parallel.peak_search_mb", c.get("dist_peak_search_mb"), "MB"},
      {"server.queue_wait_ms_p50", quantile(c.list("queue_ms"), 0.5), "ms", base(misses, "misses")},
      {"server.queue_wait_ms_p90", quantile(c.list("queue_ms"), 0.9), "ms", base(misses, "misses")},
      {"server.solve_ms_p50", quantile(c.list("server_solve_ms"), 0.5), "ms", base(misses, "misses")},
      {"server.solve_ms_p90", quantile(c.list("server_solve_ms"), 0.9), "ms", base(misses, "misses")},
      {"server.overhead_ms", median(c.list("overhead_ms")), "ms", base(served, "requests")},
      {"server.hit_latency_p50_ms", median(c.list("hit_ms")), "ms", n("hit_ms", "hits")},
      {"server.miss_latency_p50_ms", median(c.list("miss_ms")), "ms", base(misses, "misses")},
      {"server.cache_hit_ratio", ratio(c.get("hits"), served), "ratio", base(served, "requests")},
      {"server.repeat_share", it == run.detail.end() ? 0.0 : it->second, "ratio",
       base(served, "requests")},
      {"server.status_rtt_ms", median(c.list("status_rtt_ms")), "ms", n("status_rtt_ms", "calls")},
      {"server.rebuild_ms", median(c.list("rebuild_ms")), "ms", n("rebuild_ms", "calls")},
      {"server.rejects", c.get("rejects"), "count"},
      {"bench.self_ms", self_ms("bench"), "ms"},
      {"core.self_ms", self_ms("core"), "ms"},
      {"sched.self_ms", self_ms("sched"), "ms"},
      {"api.self_ms", self_ms("api"), "ms"},
      {"parallel.self_ms", self_ms("parallel"), "ms"},
      {"server.self_ms", self_ms("server"), "ms"},
      {"trace.wall_s", traced_wall, "s"},
      {"trace.overhead_s", traced_wall - untraced_wall, "s",
       base(untraced_wall, "s untraced round")},
  };
}

void write_trace_files(const Run& run, const std::vector<Metric>& metrics) {
  const std::string stem = run.args.out_dir + "/" + run.args.workload +
                           "-seed" + std::to_string(run.args.seed);
  std::ofstream spans(stem + ".spans.jsonl");
  write_spans_jsonl(run.tracer.spans(), spans);

  std::ostringstream table;
  table << "per-layer report: " << run.args.workload << " seed "
        << run.args.seed << ", " << run.traced_round_s.size()
        << " traced and " << run.round_s.size() << " untraced rounds\n\n";
  char line[256];
  std::snprintf(line, sizeof line, "%-24s %8s %12s %12s\n", "span", "calls",
                "total_ms", "self_ms");
  table << line;
  for (const auto& [name, t] : span_totals(run.tracer.spans())) {
    std::snprintf(line, sizeof line, "%-24s %8llu %12.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.calls),
                  t.total_ms, t.self_ms);
    table << line;
  }
  table << "\n";
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof line, "%-32s %16.6g %-6s %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.base.empty() ? "" : ("of " + m.base).c_str());
    table << line;
  }
  std::ofstream(stem + ".layers.txt") << table.str();
  std::cerr << table.str();
}

Json metrics_json(const std::vector<Metric>& metrics) {
  Json out(Json::Object{});
  for (const Metric& m : metrics) {
    Json entry(Json::Object{});
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    out[m.name] = entry;
  }
  return out;
}

// --------------------------------------------------------------------------
// Reference generation (--write-refs): serial A* on every base item, the
// default-seed chains warm and cold, and the default-seed serve stream.

void write_refs(const std::string& path) {
  Json heavy(Json::Object{});
  for (const std::string& spec : heavy_tier()) {
    double mat = 0.0;
    const api::SolveResult r = solve("astar", materialize(spec, mat));
    Json e(Json::Object{});
    e["makespan"] = r.makespan;
    e["expanded"] = r.stats.search.expanded;
    heavy[spec] = e;
  }
  Json churn(Json::Object{});
  double mat = 0.0;
  for (const ChainItem& chain : churn_inputs(kDefaultSeed, mat)) {
    const Instance& in = chain.instance;
    api::SolveSession session("astar");
    Json steps(Json::Array{});
    const auto record = [&](const api::SolveResult& warm) {
      api::SolveRequest req(session.graph(), session.machine(), in.comm);
      const api::SolveResult cold = api::solve("astar", req);
      OPTSCHED_REQUIRE(cold.proved_optimal && cold.makespan == warm.makespan,
                       chain.key + ": warm result disagrees with cold solve");
      Json e(Json::Object{});
      e["makespan"] = cold.makespan;
      e["expanded"] = warm.stats.search.expanded;
      steps.push_back(e);
    };
    record(session.solve(api::SolveRequest(in.graph, in.machine, in.comm)));
    for (const core::InstanceDelta& d : chain.deltas)
      record(session.resolve(d));
    churn[chain.key] = steps;
  }
  Json serve(Json::Object{});
  const ServeStream stream = serve_inputs(kDefaultSeed);
  for (const std::string& spec : stream.specs)
    serve[spec] = solve("astar", materialize(spec, mat)).makespan;

  std::ofstream out(path);
  out << "{\n\"churn\": " << churn.dump() << ",\n\"heavy\": " << heavy.dump()
      << ",\n\"serve\": " << serve.dump() << "\n}\n";
  OPTSCHED_REQUIRE(out.good(), "cannot write " + path);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw util::Error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--refs") a.refs = value;
    else if (key == "--cli") a.cli = value;
    else if (key == "--out-dir") a.out_dir = value;
    else if (key == "--write-refs") a.write_refs = value;
    else throw util::Error("unknown argument " + key);
  }
  return a;
}

int run_main(int argc, char** argv) {
  Run run(parse_args(argc, argv));
  if (!run.args.write_refs.empty()) {
    write_refs(run.args.write_refs);
    return 0;
  }
  std::ifstream refs_file(run.args.refs);
  OPTSCHED_REQUIRE(refs_file.good(), "cannot read " + run.args.refs);
  std::stringstream text;
  text << refs_file.rdbuf();
  run.refs = Json::parse(text.str());
  run.tracer.set_enabled(run.args.trace);

  const std::string& w = run.args.workload;
  if (w == "search-heavy") heavy_workload(run, false);
  else if (w == "dist-heavy") heavy_workload(run, true);
  else if (w == "serve-mix") {
    OPTSCHED_REQUIRE(!run.args.cli.empty(), "serve-mix needs --cli");
    serve_workload(run);
  } else if (w == "resolve-churn") churn_workload(run);
  else throw util::Error("unknown workload '" + w + "'");

  const std::vector<Metric> metrics =
      run.args.trace ? per_layer(run) : end_to_end(run);
  if (run.args.trace) write_trace_files(run, metrics);
  for (const std::string& f : run.failures) std::cerr << "FAILED " << f << "\n";

  Json detail(Json::Object{});
  for (const auto& [k, v] : run.detail) detail[k] = v;
  detail["rounds"] = static_cast<std::uint64_t>(run.round_s.size());
  detail["traced_rounds"] = static_cast<std::uint64_t>(run.traced_round_s.size());
  detail["latency_samples"] = static_cast<std::uint64_t>(run.latency_ms.size());
  detail["failed_frac"] = ratio(static_cast<double>(run.failed),
                                static_cast<double>(run.attempted));
  Json out(Json::Object{});
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  out["compiler"] = PERFBENCH_COMPILER;
  out["workload"] = w;
  out["seed"] = run.args.seed;
  out["trace"] = run.args.trace;
  out["correct"] = run.failed == 0;
  out["attempted"] = run.attempted;
  out["failed"] = run.failed;
  out["metrics"] = metrics_json(metrics);
  out["detail"] = detail;
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold (this is its default starting value):
  // left adaptive, it rises each time a large block is freed, so later
  // rounds carve big arrays out of a fragmented heap instead of fresh
  // mappings, and a round's peak RSS would grow with the rounds before it.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
