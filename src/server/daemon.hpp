// The resident solver daemon ("solver-as-a-service").
//
// `optsched_cli serve --socket <path>` constructs a Daemon and calls
// run(): it binds a Unix-domain listener, accepts connections, and
// serves newline-delimited JSON commands (server/protocol.hpp). Each
// connection gets a thread that reads its commands and runs its solves;
// solve commands flow
//
//   parse -> canonicalize (spec + engine) -> result-cache lookup
//         -> [hit]  reply verbatim from the cache
//         -> [miss] admission gate -> solve -> release permit -> reply
//                   (and insert into the cache when deterministic)
//
// The admission gate (queue depth cap, memory governor, `workers` solves
// at a time in FIFO order) turns overload into typed reject frames
// instead of unbounded queues or OOM — see admission.hpp. The cache is
// keyed on (canonical scenario line, canonical engine spec) and only
// stores outcomes that are pure functions of that key: results whose
// termination proves a complete deterministic run (optimal /
// bounded-optimal / heuristic) from engines without the `parallel`
// capability (a parallel engine may legitimately return a *different*
// optimal schedule per run, which would break the bit-agreement
// contract). See DESIGN.md §7 for the full soundness argument.
//
// A shutdown command (or stop() from another thread) drains the daemon:
// the listener closes, in-flight solves are cancelled through the
// shared CancellationToken, solves waiting at the gate get typed
// kShuttingDown replies, connections stop reading and write the replies
// they owe, and every connection thread is joined before run() returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "core/controls.hpp"
#include "server/admission.hpp"
#include "server/result_cache.hpp"
#include "util/socket.hpp"

namespace optsched::server {

struct DaemonConfig {
  std::string socket_path;
  /// Solves running at once; further admitted solves wait FIFO.
  unsigned workers = 2;
  std::size_t queue_cap = 64;  ///< admitted solves allowed to wait
  /// Result-cache byte budget (0 disables caching).
  std::size_t cache_bytes = 64u << 20;
  /// Global memory governor across in-flight searches (0 disables).
  std::size_t memory_budget = 1u << 30;
  /// Per-job search-memory cap applied when a solve command does not
  /// set max_memory_mb itself; must be <= memory_budget when both on.
  std::size_t default_job_memory = 128u << 20;
  /// Per-job deadline applied when a solve command does not set
  /// budget_ms itself (0 = unlimited).
  double default_budget_ms = 0.0;
  /// Hard per-frame byte cap; longer lines kill the offending
  /// connection with a typed error, never daemon memory.
  std::size_t max_frame_bytes = 1u << 20;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  /// Bind the socket and launch the accept loop. Throws
  /// util::Error when the socket cannot be bound (e.g. a live daemon
  /// already listens there). Returns once the daemon is accepting, so
  /// tests and scripts can connect immediately after.
  void start();

  /// Block until a shutdown command arrives (or stop() is called), then
  /// tear everything down: listener, in-flight solves, connections.
  void wait();

  /// start() + wait() — the CLI entry point.
  void run();

  /// Request shutdown from any thread. Idempotent, non-blocking.
  void stop();

  /// Counters and limits; valid at any time, before start() too.
  StatusReply status() const;
  const DaemonConfig& config() const { return config_; }

 private:
  struct Connection {
    util::UnixStream stream;
    std::thread thread;
    /// Set by the connection thread at exit (under mu_) so the accept
    /// loop can reap the entry and wait() can tell it has drained.
    bool done = false;
  };

  void accept_loop();
  void serve_connection(Connection& connection);
  /// Handle one solve command; returns the reply frame to write.
  std::string handle_solve(const SolveCommand& command);
  bool cacheable(const std::string& engine_name,
                 const api::SolveResult& result) const;

  const DaemonConfig config_;
  util::UnixListener listener_;
  AdmissionGate gate_;
  ResultCache cache_;
  core::CancellationToken cancel_;  ///< shared by every in-flight solve

  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> cache_hits_served_{0};
  std::thread accept_thread_;
  bool started_ = false;

  std::mutex mu_;  ///< guards connections_, their done flags, stop_cv_
  std::condition_variable stop_cv_;
  std::list<Connection> connections_;
};

}  // namespace optsched::server
