// Coordinator and worker of the distributed HDA* harness — see
// dist_transport.hpp for the architecture and dist_protocol.hpp for the
// wire format.
//
// Concurrency layout, coordinator side: one thread, which owns all search
// logic — incumbent, budgets, termination — so none of it needs locks, and
// serves every worker socket from one poll() loop (next_frame()). Writes
// never block: enqueue() hands the socket what it takes now
// (UnixStream::write_some) and keeps the rest for POLLOUT. That is what
// makes the relay deadlock-free: a worker blocked writing to the
// coordinator is not reading, so a coordinator blocked writing to that
// worker would wait forever. Never blocking on a write, the coordinator
// keeps draining every worker, so each worker's write completes and it
// goes back to reading its own socket.
//
// Worker side is single-threaded and runs the shared search kernel
// (core/search_kernel.hpp): expand the best local state, ship
// remote-owned children in batches, drain frames every few expansions;
// park in poll() when the frontier is empty or dominated.
//
// Wire path: the hot frames travel in the binary framing of
// parallel/wire.hpp — delta-encoded batches the coordinator relays
// verbatim (it reads only the destination varint), binary status/bound,
// a per-destination send-side duplicate filter, a size/age outbox flush,
// gathered writev-style socket writes, and exponential idle-status
// backoff. The rare frames stay JSON. See DESIGN.md §11.
#include "parallel/dist_transport.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/expansion.hpp"
#include "core/frontier.hpp"
#include "core/search_kernel.hpp"
#include "parallel/dist_protocol.hpp"
#include "parallel/replay.hpp"
#include "parallel/wire.hpp"
#include "util/assert.hpp"
#include "util/flat_set.hpp"
#include "util/jsonl.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace optsched::par {

namespace {

using core::Expander;
using core::KernelGuard;
using core::SearchProblem;
using core::State;
using core::StateArena;
using core::StateIndex;
using core::StepAction;
using dag::NodeId;
using machine::ProcId;
using util::Json;
using util::UnixStream;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Worker/fd handshake variable; see spawn_worker() and the constructor
/// hook at the bottom.
constexpr const char* kWorkerEnv = "OPTSCHED_DIST_WORKER";

/// Frame cap for dist sockets. Init frames carry the whole instance and
/// batch frames up to kFlushStates delta-encoded assignment sequences —
/// far below this, but well above the 1 MiB daemon default.
constexpr std::size_t kFrameCap = std::size_t{1} << 26;

/// Expansions between unsolicited status frames (liveness + budget
/// feedback; the Mattern counters ride along).
constexpr std::uint32_t kStatusPeriod = 128;

/// Idle-status exponential backoff: first repeat idle status
/// waits this long, doubling up to the cap. The cap stays far below the
/// worker's 100 ms park timeout so the final status of a search is
/// never delayed meaningfully, while a worker being flooded with
/// duplicate imports collapses thousands of rcvd-only statuses into a
/// handful.
constexpr std::uint64_t kIdleBackoffStartUs = 500;
constexpr std::uint64_t kIdleBackoffCapUs = 8000;

std::uint64_t get_u64(const Json& j, const char* key) {
  j.at(key);  // required field: throw on absence rather than defaulting
  return j.get_u64(key, 0);
}

// ---- worker --------------------------------------------------------------

/// One worker process: owns the states whose abstract keys map to its
/// rank (AbstractOwner) and searches them on the shared kernel
/// (core/search_kernel.hpp). DistWorker is the kernel policy; the socket
/// work rides its hooks — frames are drained every kDrainPeriod
/// expansions and while parked on an empty frontier.
class DistWorker {
 public:
  DistWorker(int fd, std::uint32_t rank) : stream_(fd), rank_(rank) {}

  int run() {
    try {
      Json hello;
      hello["t"] = "hello";
      hello["v"] = kWireVersion;
      hello["rank"] = rank_;
      send_json(hello);

      std::string line;
      if (!stream_.read_line(line, kFrameCap)) return 1;  // coordinator gone
      handle_init(Json::parse(line));

      // Fault-injection hook for the dist fault-matrix tests: a worker
      // whose rank matches dies without a word, exactly like a crash.
      if (const char* die = std::getenv("OPTSCHED_DIST_TEST_DIE"))
        if (static_cast<std::uint32_t>(std::atoi(die)) == rank_)
          ::raise(SIGKILL);

      search();
      send_bye();
      return 0;
    } catch (const std::exception& e) {
      try {
        Json err;
        err["t"] = "err";
        err["msg"] = std::string(e.what());
        stream_.write_line(err.dump());
      } catch (...) {
      }
      return 1;
    }
  }

  // ---- kernel policy interface -------------------------------------------

  bool keep_searching() const { return !stop_; }

  bool pop(StateIndex& out) {
    // Fast-drop a fully dominated frontier (everything >= incumbent).
    if (!open_->empty() && beaten(open_->min_f())) open_->clear();
    if (open_->empty()) return false;
    const core::OpenEntry e = open_->pop();
    popped_f_ = e.f;
    out = e.index;
    return true;
  }

  /// Empty frontier: ship every outbox before the idle report (a
  /// quiescent stop must never strand outbox states), report idle, park
  /// until a frame arrives, and take it in. Always continues the loop —
  /// either an import refills OPEN or a stop frame ends keep_searching().
  bool on_empty() {
    flush_all();
    int park_ms = 100;
    const bool owed =
        last_status_idle_ != 1 || last_status_rcvd_ != rcvd_batches_;
    if (owed) {
      // Exponential backoff on repeat idle statuses: the first report
      // after going idle is immediate; a flood of duplicate imports only
      // bumps rcvd, and those reports coalesce under a growing delay.
      const auto waited = static_cast<std::uint64_t>(idle_backoff_.micros());
      if (waited >= idle_backoff_us_) {
        send_status(/*idle=*/true);
        idle_backoff_us_ = idle_backoff_us_ == 0
                               ? kIdleBackoffStartUs
                               : std::min(idle_backoff_us_ * 2,
                                          kIdleBackoffCapUs);
        idle_backoff_.reset();
      } else {
        // Wake in time to send the delayed report even if no frame
        // arrives — termination must not wait out the full park.
        park_ms = static_cast<int>((idle_backoff_us_ - waited) / 1000 + 1);
      }
    }
    pump_writes();
    wait_for_frame(park_ms);
    drain_frames();
    return true;
  }

  /// Goals never enter OPEN (they are offered when generated or
  /// imported), so the only filter is the live incumbent, tested against
  /// the popped entry's f.
  StepAction classify(StateIndex) const {
    return beaten(popped_f_) ? StepAction::kSkip : StepAction::kExpand;
  }

  void on_goal(StateIndex) {}  // unreachable: classify never says kGoal

  void expand(StateIndex idx) {
    idle_backoff_us_ = 0;  // real work: next idle report is immediate
    DeferredSeen seen{this};
    const double bound = core::prune_bound(
        config_.prune, problem_->upper_bound(), incumbent_);
    // The expanded state's abstract key, read once from the expansion
    // context — loaded by the time the first child is emitted.
    std::optional<std::uint64_t> key;
    expander_->expand(arena_, seen, idx, bound,
                      [&](StateIndex child_idx, const State& child) {
                        if (!key) key = context_key();
                        accept_child(child_idx, child, *key);
                      });
  }

  void after_expand() {
    max_open_ = std::max(max_open_, open_->size());
    const std::uint64_t n = expander_->stats().expanded;
    if (n % kStatusPeriod == 0) send_status(/*idle=*/false);
    pump_writes();
    if (n % kDrainPeriod == 0) {
      // Age-based flush: pending exports never sit much longer than
      // kFlushAgeUs, so a neighbour starved for work is fed promptly even
      // when no outbox reaches the size threshold.
      if (pending_states_ > 0 &&
          clock_.micros() - pending_since_ >= kFlushAgeUs) {
        flush_all();  // one synchronized cut: cheaper than per-owner
        pump_writes();  // staggering, which costs a gather write each
      }
      drain_frames();
    }
  }

  std::uint64_t expanded_count() const { return expander_->stats().expanded; }

  std::size_t memory_now() const {
    std::size_t filters = 0;
    for (const auto& f : send_filter_) filters += f.memory_bytes();
    return arena_.memory_bytes() + importer_->memory_bytes() +
           open_->memory_bytes() +
           seen_.memory_bytes() + filters;
  }

  void maybe_progress(KernelGuard&) {}  // the coordinator reports progress

 private:
  /// Expansions between frame drains: bounds and stop frames land within
  /// a few microseconds of work, without a poll() per pop.
  static constexpr std::uint64_t kDrainPeriod = 16;

  /// Outbox flush thresholds: a destination's batch ships once it holds
  /// kFlushStates states, and every nonempty batch ships once its oldest
  /// state has waited kFlushAgeUs microseconds.
  static constexpr std::uint32_t kFlushStates = 256;
  static constexpr std::int64_t kFlushAgeUs = 2000;

  /// Every kFeatureStride-th node in priority-rank order is a feature node
  /// of the owner rule (AbstractOwner). A larger stride keeps more
  /// children local but leaves fewer abstract states to spread over the
  /// workers.
  static constexpr std::uint32_t kFeatureStride = 3;

  /// Duplicate-detection probe handed to the Expander. The owner of a
  /// child depends on its assignment, not only its signature, so the
  /// Expander's probe passes every child and accept_child() runs the SEEN
  /// probe for locally-owned ones (remote owners dedup at import). The
  /// prefetch still warms the SEEN slot of every candidate.
  struct DeferredSeen {
    DistWorker* w;
    static bool insert(const util::Key128&) { return true; }
    void prefetch(const util::Key128& k) const { w->seen_.prefetch(k); }
  };

  /// Can nothing with lower bound `f` beat the incumbent? Dist search is
  /// exact-only (epsilon 0) and never strict.
  bool beaten(double f) const {
    return core::dominated(f, incumbent_, 0.0, false);
  }

  /// Abstract key of the state loaded in the expansion context.
  std::uint64_t context_key() const {
    const core::ExpansionContext& ctx = expander_->context();
    std::uint64_t key = 0;
    for (const NodeId n : owner_->features())
      if (ctx.scheduled(n)) key += owner_->term(n, ctx.proc_of(n));
    return key;
  }

  void handle_init(const Json& j) {
    OPTSCHED_REQUIRE(j.at("t").as_string() == "init", "expected init frame");
    OPTSCHED_REQUIRE(j.at("v").as_number() == kWireVersion,
                     "wire version mismatch between coordinator and worker");
    graph_ = graph_from_json(j.at("graph"));
    machine_.emplace(machine_from_json(j.at("machine")));
    const auto comm = static_cast<std::uint32_t>(j.at("comm").as_number());
    OPTSCHED_REQUIRE(comm <= 1, "unknown comm mode code");
    config_ = search_config_from_json(j.at("cfg"));
    procs_ = static_cast<std::uint32_t>(j.at("procs").as_number());
    OPTSCHED_REQUIRE(rank_ < procs_, "worker rank out of range");
    mem_cap_ = static_cast<std::size_t>(get_u64(j, "mem_bytes"));

    problem_.emplace(graph_, *machine_,
                     static_cast<machine::CommMode>(comm));
    owner_.emplace(problem_->node_by_rank(), kFeatureStride, procs_);
    expander_.emplace(*problem_, config_);
    importer_.emplace(*problem_, config_, arena_);
    open_.emplace(*problem_, config_);

    incumbent_ = problem_->upper_bound();
    if (!j.at("seed_bound").is_null())
      incumbent_ = std::min(incumbent_, j.at("seed_bound").as_number());

    enc_.assign(procs_, {});
    for (std::uint32_t k = 0; k < procs_; ++k) enc_[k].reset(k);
    send_filter_.assign(procs_, wire::SendFilter(std::size_t{1} << 14));
    seen_ = util::FlatSet128(std::size_t{1} << 10);

    // Every worker keeps one root, at index 0, as the anchor of its
    // imported chains (Importer); only the root's owner also seeds OPEN
    // with it. Everyone else starts idle and gets fed through imports.
    // (The root's abstract key is 0, which maps to an arbitrary rank —
    // there is no coordinator-side seed expansion.)
    const StateIndex root_idx = arena_.add_root();
    if (owner_->owner(0) == rank_) {
      seen_.insert(arena_.sig(root_idx));
      open_->push({0.0, 0.0, 0.0, root_idx});
      max_open_ = open_->size();  // the root counts, as in serial A*
    }
  }

  /// Run the shared kernel over this shard. Only the memory cap is armed
  /// here — the coordinator owns the expansion, time and cancel limits and
  /// ends them with a stop frame. Once the cap trips, the worker reports
  /// the limit and only answers frames until the stop arrives, counting
  /// batches (termination depends on it) without importing them.
  void search() {
    KernelGuard guard(config_.controls, {0, 0.0, mem_cap_}, clock_);
    if (!core::run_search_loop(guard, *this)) return;
    flush_all();  // ship pending work before going dark
    Json limit;
    limit["t"] = "limit";
    send_json(limit);
    halted_ = true;
    while (!stop_) {
      wait_for_frame(100);
      drain_frames();
    }
  }

  /// Route one generated child of a state with abstract key `parent_key`.
  /// A locally-owned child first takes the SEEN probe; a duplicate is
  /// counted as dropped, not generated, exactly as the Expander's own
  /// probe would count it. Local duplicates, goals and remote-owned
  /// children are done with once dropped, offered or serialized, so their
  /// arena record — always the newest, as the Expander appends then
  /// emits — is dropped at once: only locally-owned frontier states stay
  /// stored (DESIGN.md §10.2). The expansion context sits on the parent,
  /// below the cut.
  void accept_child(StateIndex idx, const State& child,
                    std::uint64_t parent_key) {
    const std::uint32_t owner =
        owner_->owner(parent_key + owner_->term(child.node, child.proc));
    if (owner == rank_ && config_.prune.duplicate_detection &&
        !seen_.insert(child.sig)) {
      core::ExpandStats& stats = expander_->stats();
      --stats.generated;
      ++stats.duplicates_dropped;
    } else if (child.depth == problem_->num_nodes()) {
      offer_goal(child.g, child_sequence(child));
    } else if (owner == rank_) {
      open_->push({child.f(), child.g, child.h, idx});
      return;
    } else {
      ship(owner, child);
    }
    OPTSCHED_ASSERT(idx + 1 == arena_.size());
    arena_.truncate(idx);
  }

  /// Serialize a remote-owned child into its owner's batch.
  void ship(std::uint32_t owner, const State& child) {
    // Send-side duplicate filter: a signature already shipped to this
    // owner is not re-serialized — the owner's SEEN check would drop it
    // anyway, so suppressing the resend only saves wire traffic
    // (DESIGN.md §11.3).
    if (!send_filter_[owner].fresh(child.sig)) {
      ++wire_.states_deduped_at_send;
      return;
    }
    if (pending_states_ == 0) pending_since_ = clock_.micros();
    enc_[owner].append(child_sequence(child), child.f());
    ++pending_states_;
    ++wire_.states_serialized;
    if (enc_[owner].count() >= kFlushStates) flush(owner);
  }

  void offer_goal(double len,
                  const std::vector<std::pair<NodeId, ProcId>>& seq) {
    if (beaten(len)) return;
    incumbent_ = len;  // a complete schedule is always a sound bound
    Json goal;
    goal["t"] = "goal";
    goal["len"] = len;
    goal["a"] = assignments_to_json(seq);
    send_json(goal);
  }

  /// Assignment sequence of a child being emitted: the expansion context
  /// sits on its parent, whose sequence it already holds.
  const std::vector<std::pair<NodeId, ProcId>>& child_sequence(
      const State& child) {
    child_seq_ = expander_->context().assignments();
    child_seq_.emplace_back(child.node, child.proc);
    return child_seq_;
  }

  /// Append framed bytes to the outgoing gather queue (shipped by the
  /// next pump_writes()).
  void queue_frame(std::string bytes) {
    wire_.bytes_sent += bytes.size();
    pending_writes_.push_back(std::move(bytes));
  }

  /// One JSON frame, shipped immediately (after anything already queued,
  /// preserving FIFO order on the stream).
  void send_json(const Json& j) {
    std::string line = j.dump();
    line += '\n';
    queue_frame(std::move(line));
    pump_writes();
  }

  /// Gathered write of every queued frame — many frames, one syscall.
  void pump_writes() {
    if (pending_writes_.empty()) return;
    stream_.write_gather(pending_writes_);
    pending_writes_.clear();
    ++wire_.flushes;
  }

  void flush(std::uint32_t owner) {
    auto& enc = enc_[owner];
    if (enc.empty()) return;
    pending_states_ -= enc.count();
    queue_frame(enc.take_frame());
  }

  void flush_all() {
    for (std::uint32_t k = 0; k < procs_; ++k) flush(k);
  }

  void send_status(bool idle) {
    // Idle statuses are only worth a frame when something changed since
    // the last one — otherwise an idle worker would flood the
    // coordinator from its poll loop.
    if (idle && last_status_idle_ == 1 && last_status_rcvd_ == rcvd_batches_)
      return;
    wire::StatusMsg s;
    s.idle = idle;
    s.rcvd = rcvd_batches_;
    s.exp = expander_->stats().expanded;
    s.open = open_->size();
    s.min_f = open_->min_f();
    queue_frame(wire::encode_status(s));
    last_status_idle_ = idle ? 1 : 0;
    last_status_rcvd_ = rcvd_batches_;
  }

  void send_bye() {
    core::SearchStats s;
    static_cast<core::ExpandStats&>(s) = expander_->stats();
    s.max_open_size = std::max(max_open_, open_->size());
    s.peak_memory_bytes = memory_now();
    s.arena_hot_bytes = arena_.hot_memory_bytes();
    s.arena_cold_bytes = arena_.cold_memory_bytes();
    send_json(encode_bye(s, wire_));
  }

  /// Process every frame already buffered or readable without blocking.
  void drain_frames() {
    for (;;) {
      if (!wire::has_buffered_frame(stream_)) {
        pollfd pfd{stream_.fd(), POLLIN, 0};
        int rc;
        while ((rc = ::poll(&pfd, 1, 0)) < 0 && errno == EINTR) {
        }
        if (rc <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
          return;
      }
      wire::Frame fr;
      OPTSCHED_REQUIRE(wire::read_frame(stream_, fr, kFrameCap),
                       "coordinator closed the socket");
      handle_frame(fr);
      if (stop_) return;
    }
  }

  /// Park until the socket becomes readable (or `timeout_ms` elapses,
  /// so a lost wakeup can never wedge the worker).
  void wait_for_frame(int timeout_ms) {
    if (wire::has_buffered_frame(stream_)) return;
    pollfd pfd{stream_.fd(), POLLIN, 0};
    int rc;
    while ((rc = ::poll(&pfd, 1, timeout_ms)) < 0 && errno == EINTR) {
    }
  }

  void handle_frame(const wire::Frame& fr) {
    // A halted worker (memory cap) still counts every batch — the
    // coordinator's termination accounting needs it — but imports none.
    if (fr.type == wire::FrameType::kBatch) {
      if (!halted_) {
        auto batch = wire::decode_batch(fr.payload());
        OPTSCHED_REQUIRE(batch.to == rank_,
                         "batch relayed to the wrong worker");
        for (const auto& m : batch.states) import_msg(m);
      }
      ++rcvd_batches_;
      return;
    }
    if (fr.type == wire::FrameType::kBound) {
      incumbent_ = std::min(incumbent_, wire::decode_bound(fr.payload()));
      return;
    }
    OPTSCHED_REQUIRE(fr.type == wire::FrameType::kJson,
                     "unexpected binary frame type for a worker");
    const Json j = Json::parse(fr.raw);
    const std::string& t = j.at("t").as_string();
    OPTSCHED_REQUIRE(t == "stop", "unexpected frame type for a worker: " + t);
    stop_ = true;
  }

  /// Import a transferred state (parallel/replay.hpp): admitted only
  /// when this worker owns it and its signature is fresh. Phase 1 leaves
  /// the arena alone, so a duplicate (on the bench corpus a large share of
  /// imports) or a stray goal costs the simulation and a hash probe, never
  /// arena growth, rollback, or context invalidation.
  void import_msg(const StateMsg& msg) {
    const SequenceReplay::Step& last = importer_->replay(msg);
    if (msg.assignments.size() == problem_->num_nodes()) {
      offer_goal(last.g, msg.assignments);  // goals ride goal frames, but
      return;                               // tolerate one in a batch
    }
    std::uint64_t key = 0;
    for (const auto& [node, proc] : msg.assignments)
      key += owner_->term(node, proc);
    OPTSCHED_ASSERT(owner_->owner(key) == rank_);
    if (!seen_.insert(last.sig)) return;
    const core::Frontier::Entry e = importer_->attach(msg);
    if (beaten(e.f)) return;  // dominated: never popped
    open_->push(e);
  }

  UnixStream stream_;
  std::uint32_t rank_ = 0;
  std::uint32_t procs_ = 1;
  std::size_t mem_cap_ = 0;  ///< 0 = unlimited

  dag::TaskGraph graph_;
  std::optional<machine::Machine> machine_;
  std::optional<SearchProblem> problem_;
  std::optional<AbstractOwner> owner_;
  core::SearchConfig config_;
  std::optional<Expander> expander_;
  std::optional<Importer> importer_;
  std::vector<std::pair<NodeId, ProcId>> child_seq_;  ///< child_sequence()

  StateArena arena_;
  std::optional<core::Frontier> open_;
  double popped_f_ = 0.0;  ///< f of the entry pop() handed out last
  util::FlatSet128 seen_{16};
  std::vector<wire::BatchEncoder> enc_;     ///< per-owner pending batch
  std::vector<wire::SendFilter> send_filter_;  ///< per-owner shipped sigs
  std::vector<std::string> pending_writes_;    ///< frames awaiting one writev
  std::uint64_t pending_states_ = 0;  ///< states across all outboxes
  util::Timer clock_;                 ///< worker-lifetime monotonic clock
  std::int64_t pending_since_ = 0;    ///< stamp when pending went 0 -> 1

  double incumbent_ = kInf;
  bool stop_ = false;
  bool halted_ = false;  ///< memory cap tripped: batches counted, not imported

  std::uint64_t rcvd_batches_ = 0;
  /// This worker's wire counters, reported in the bye: states
  /// serialized and deduped at send, gathered write syscalls
  /// (pump_writes), bytes queued.
  ParallelStats wire_;
  std::uint64_t idle_backoff_us_ = 0;  ///< 0 = report immediately
  util::Timer idle_backoff_;
  std::size_t max_open_ = 0;
  int last_status_idle_ = -1;
  std::uint64_t last_status_rcvd_ = 0;
};

// ---- coordinator ---------------------------------------------------------

struct WorkerHandle {
  pid_t pid = -1;
  UnixStream stream;

  /// Framed bytes the socket has not taken yet (a backlog only while the
  /// worker is not reading).
  std::string out;
  /// Bytes the socket took from the coordinator (relays, bounds, control).
  std::uint64_t bytes_written = 0;

  std::uint64_t expanded = 0;  ///< latest status
  double min_f = kInf;         ///< latest status (kInf when idle/empty)
  bool got_bye = false;
  Json bye;
};

class DistCoordinator {
 public:
  DistCoordinator(const SearchProblem& problem, const ParallelConfig& config)
      : problem_(problem),
        config_(config),
        procs_(config.num_ppes),
        term_(config.num_ppes) {}

  ~DistCoordinator() { cleanup(); }

  ParallelResult run() {
    incumbent_len_ = std::min(problem_.upper_bound(),
                              config_.seed_upper_bound);
    spawn_all();
    for (std::uint32_t k = 0; k < procs_; ++k) enqueue(k, init_frame(k));

    const core::Termination reason = event_loop();
    Json stop;
    stop["t"] = "stop";
    broadcast(json_line(stop));
    collect_byes();
    cleanup();
    return assemble(reason);
  }

 private:
  static std::string json_line(const Json& j) {
    std::string line = j.dump();
    line += '\n';
    return line;
  }
  // ---- process management + socket I/O -----------------------------------

  void spawn_all() {
    workers_.reserve(procs_);
    for (std::uint32_t k = 0; k < procs_; ++k) {
      int sv[2];
      OPTSCHED_REQUIRE(
          ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
          std::string("socketpair failed: ") + std::strerror(errno));
      // Parent end must not leak into later children; child end must
      // survive the exec.
      ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);

      // Everything the child touches before exec is built here: the
      // spawn may run while other threads (suite jobs) hold the
      // allocator lock, so the child must stay async-signal-safe.
      // posix_spawn (vfork semantics on glibc) over a hand-rolled
      // fork+exec: the coordinator's address space — large after a long
      // suite run — is never duplicated, which on a single-core host is
      // a measurable slice of the per-worker startup serialization.
      const std::string var = std::string(kWorkerEnv) + "=" +
                              std::to_string(sv[1]) + "," +
                              std::to_string(k);
      std::vector<char*> envp;
      for (char** e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, kWorkerEnv, std::strlen(kWorkerEnv)) != 0)
          envp.push_back(*e);
      envp.push_back(const_cast<char*>(var.c_str()));
      envp.push_back(nullptr);
      char* argv[] = {const_cast<char*>("optsched-dist-worker"), nullptr};

      pid_t pid = -1;
      const int rc = ::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                                   argv, envp.data());
      ::close(sv[1]);
      if (rc != 0) {
        ::close(sv[0]);
        OPTSCHED_REQUIRE(false,
                         std::string("posix_spawn failed: ") +
                             std::strerror(rc));
      }
      WorkerHandle& w = workers_.emplace_back();
      w.pid = pid;
      w.stream = UnixStream(sv[0]);
      pollfds_.push_back({sv[0], POLLIN, 0});
    }
  }

  /// Queue pre-framed bytes (a binary frame, or a JSON line with its
  /// '\n') for worker `rank` and hand the socket what it takes now; the
  /// rest goes out as the worker drains (POLLOUT in next_frame()).
  void enqueue(std::uint32_t rank, std::string_view frame) {
    WorkerHandle& w = workers_[rank];
    ++messages_sent_;
    if (pollfds_[rank].fd < 0) return;  // exited after its bye
    w.out.append(frame);
    write_pending(rank);
  }

  void broadcast(std::string_view frame) {
    for (std::uint32_t k = 0; k < procs_; ++k) enqueue(k, frame);
  }

  /// One non-blocking write of worker `rank`'s backlog. The coordinator
  /// never blocks on a socket, so it keeps reading every worker while a
  /// slow one catches up.
  void write_pending(std::uint32_t rank) {
    WorkerHandle& w = workers_[rank];
    std::size_t n = 0;
    try {
      n = w.stream.write_some(w.out);
    } catch (const std::exception& e) {
      fail(rank, e.what());
    }
    w.bytes_written += n;
    w.out.erase(0, n);
    pollfds_[rank].events =
        w.out.empty() ? POLLIN : static_cast<short>(POLLIN | POLLOUT);
  }

  /// The next frame from any worker: one already buffered first (taken
  /// round-robin, so a chatty worker cannot starve the rest), else
  /// whatever one poll() of up to `timeout_ms` brings in. Returns the
  /// sender's rank, or nullopt when no frame arrived; a JSON frame comes
  /// back parsed in `json`. A socket error, a malformed frame or an EOF
  /// before the worker's bye fails the solve naming the rank; EOF after
  /// the bye retires the worker's socket.
  std::optional<std::uint32_t> next_frame(wire::Frame& frame, Json& json,
                                          int timeout_ms) {
    for (bool polled = false;; polled = true) {
      for (std::uint32_t i = 0; i < procs_; ++i) {
        const std::uint32_t k = (next_rank_ + i) % procs_;
        if (!wire::has_buffered_frame(workers_[k].stream)) continue;
        next_rank_ = k + 1;
        try {
          wire::read_frame(workers_[k].stream, frame, kFrameCap);
          if (frame.type == wire::FrameType::kJson)
            json = Json::parse(frame.raw);
        } catch (const std::exception& e) {
          fail(k, e.what());
        }
        return k;
      }
      if (polled) return std::nullopt;
      if (::poll(pollfds_.data(), pollfds_.size(), timeout_ms) < 0) {
        OPTSCHED_REQUIRE(errno == EINTR, std::string("poll failed: ") +
                                             std::strerror(errno));
        return std::nullopt;  // interrupted: the caller polls again
      }
      for (std::uint32_t k = 0; k < procs_; ++k) {
        const short revents = pollfds_[k].revents;
        if (revents & POLLOUT) write_pending(k);
        if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        bool open = false;
        try {
          open = workers_[k].stream.fill_some();  // readable: cannot block
        } catch (const std::exception& e) {
          fail(k, e.what());
        }
        if (open) continue;
        if (!workers_[k].got_bye) fail(k, "socket closed");
        pollfds_[k].fd = -1;  // normal exit after the bye
      }
    }
  }

  /// Idempotent teardown: kill and reap every worker. SIGKILL is safe in
  /// every path — a well-terminated worker already _exit()ed and the
  /// signal lands on a zombie; a wedged or flooding worker is exactly
  /// what the kill is for.
  void cleanup() {
    if (cleaned_) return;
    cleaned_ = true;
    for (auto& w : workers_) {
      if (w.pid > 0) ::kill(w.pid, SIGKILL);
    }
    for (auto& w : workers_) {
      if (w.pid > 0) {
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        w.pid = -1;
      }
    }
  }

  // ---- protocol ----------------------------------------------------------

  std::string init_frame(std::uint32_t rank) const {
    Json init;
    init["t"] = "init";
    init["v"] = kWireVersion;
    init["graph"] = graph_to_json(problem_.graph());
    init["machine"] = machine_to_json(problem_.machine());
    init["comm"] = static_cast<int>(problem_.comm());
    init["cfg"] = search_config_to_json(config_.search);
    init["procs"] = procs_;
    init["rank"] = rank;
    init["seed_bound"] = config_.seed_upper_bound < kInf
                             ? Json(config_.seed_upper_bound)
                             : Json();
    const std::size_t cap = config_.search.max_memory_bytes;
    init["mem_bytes"] = static_cast<std::uint64_t>(
        cap ? std::max<std::size_t>(1, cap / procs_) : 0);
    return json_line(init);
  }

  [[noreturn]] void fail(std::uint32_t rank, const std::string& why) {
    cleanup();
    OPTSCHED_REQUIRE(false, "dist worker " + std::to_string(rank) +
                                " failed mid-search: " + why);
    std::abort();  // unreachable (OPTSCHED_REQUIRE throws)
  }

  /// Runs the search until it stops; returns why: kOptimal on quiescence
  /// (the proof is complete), else the limit that ended it.
  core::Termination event_loop() {
    const auto& search = config_.search;
    wire::Frame frame;
    Json j;
    for (;;) {
      if (search.time_budget_ms &&
          timer_.seconds() * 1000.0 >=
              static_cast<double>(search.time_budget_ms))
        return core::Termination::kTimeLimit;
      if (search.controls.cancel.cancelled())
        return core::Termination::kCancelled;

      const auto rank = next_frame(frame, j, 25);
      if (!rank) continue;

      // Binary hot frames. A batch is relayed *verbatim* — the
      // coordinator reads only the destination and count varints at the
      // head of the payload, never the states.
      if (frame.type == wire::FrameType::kBatch) {
        const auto payload = frame.payload();
        const std::uint32_t to = wire::batch_dest(payload);
        OPTSCHED_REQUIRE(to < procs_, "batch routed to unknown worker");
        states_relayed_ += wire::batch_count(payload);
        ++batches_relayed_;
        // Enqueue-count *before* the frame can reach the worker: the
        // soundness order DistTermination documents.
        term_.on_enqueue(to);
        enqueue(to, frame.raw);
        continue;
      }
      if (frame.type == wire::FrameType::kStatus) {
        const wire::StatusMsg s = wire::decode_status(frame.payload());
        WorkerHandle& w = workers_[*rank];
        w.expanded = s.exp;
        w.min_f = s.min_f;
        const bool changed = term_.on_status(*rank, s.idle, s.rcvd);
        maybe_progress();
        if (search.max_expansions && total_expanded() >= search.max_expansions)
          return core::Termination::kExpansionLimit;
        // Quiescence is re-evaluated only when the detector's state
        // changed (satellite of the status-backoff work): an unchanged
        // status cannot change the verdict, and quiescent() itself
        // caches on a dirty flag as a second guard.
        if (changed && s.idle && term_.quiescent())
          return core::Termination::kOptimal;
        continue;
      }
      OPTSCHED_REQUIRE(frame.type == wire::FrameType::kJson,
                       "unexpected binary frame type for the coordinator");
      const std::string& t = j.at("t").as_string();
      if (t == "hello") {
        OPTSCHED_REQUIRE(j.at("v").as_number() == kWireVersion,
                         "wire version mismatch");
        OPTSCHED_REQUIRE(
            static_cast<std::uint32_t>(j.at("rank").as_number()) == *rank,
            "worker rank mismatch");
      } else if (t == "goal") {
        if (accept_goal(j)) broadcast(wire::encode_bound(incumbent_len_));
      } else if (t == "limit") {
        // The memory cap is the only limit a worker arms.
        return core::Termination::kMemoryLimit;
      } else if (t == "err") {
        fail(*rank, j.at("msg").as_string());
      } else {
        fail(*rank, "unexpected frame type: " + t);
      }
    }
  }

  /// A worker's goal frame: adopted when it beats the incumbent.
  bool accept_goal(const Json& j) {
    const double len = j.at("len").as_number();
    if (core::dominated(len, incumbent_len_, 0.0, false)) return false;
    incumbent_len_ = len;
    incumbent_seq_ = assignments_from_json(j.at("a"));
    return true;
  }

  /// After the stop broadcast every worker answers with one bye frame and
  /// exits. Late goals still tighten the incumbent (a goal frame may race
  /// the stop); late batches are dropped — sound, because a quiescent
  /// stop guarantees none are in flight and aborted stops carry no proof.
  void collect_byes() {
    std::uint32_t byes = 0;
    util::Timer grace;
    wire::Frame frame;
    Json j;
    while (byes < procs_) {
      OPTSCHED_REQUIRE(grace.seconds() < 30.0,
                       "dist worker ignored stop for 30s");
      const auto rank = next_frame(frame, j, 50);
      if (!rank) continue;
      // Binary batches/statuses racing the stop: dropped (sound — a
      // quiescent stop guarantees none are in flight, and aborted stops
      // carry no proof).
      if (frame.type != wire::FrameType::kJson) continue;
      const std::string& t = j.at("t").as_string();
      if (t == "bye") {
        workers_[*rank].bye = j;
        workers_[*rank].got_bye = true;
        ++byes;
      } else if (t == "goal") {
        accept_goal(j);
      } else if (t == "err") {
        fail(*rank, j.at("msg").as_string());
      }  // batches/statuses racing the stop: dropped
    }
  }

  std::uint64_t total_expanded() const {
    std::uint64_t total = 0;
    for (const auto& w : workers_) total += w.expanded;
    return total;
  }

  void maybe_progress() {
    const auto& controls = config_.search.controls;
    if (!controls.progress) return;
    const std::uint64_t expanded = total_expanded();
    if (!progress_gate_.open(expanded)) return;
    double lb = kInf;
    for (const auto& w : workers_) lb = std::min(lb, w.min_f);
    controls.progress({expanded, lb == kInf ? 0.0 : lb,
                       incumbent_len_, timer_.seconds()});
  }

  // ---- result assembly ---------------------------------------------------

  /// Only quiescence proves the incumbent optimal (dist is exact-only);
  /// every limit returns it unproved.
  ParallelResult assemble(core::Termination reason) {
    ParallelResult out =
        assemble_result(problem_, config_, incumbent_seq_, reason);
    core::SearchStats& st = out.result.stats;
    for (const auto& w : workers_) {
      if (!w.got_bye) continue;  // unreachable: collect_byes throws first
      core::SearchStats search;
      ParallelStats wire;
      decode_bye(w.bye, search, wire);
      util::merge_counters(st, search);
      util::merge_counters(out.par_stats, wire);
      out.par_stats.expanded_per_ppe.push_back(search.expanded);
    }
    // Coordinator-side bytes, counted as the sockets took them.
    for (const auto& w : workers_) out.par_stats.bytes_sent += w.bytes_written;
    // Workers pick their OPEN list by the same rule from the same problem.
    const core::QueueChoice queue = core::choose_queue(problem_, config_.search);
    st.queue_kind = queue.use_bucket ? "bucket" : "heap";
    st.queue_fallback = queue.fallback;
    st.elapsed_seconds = timer_.seconds();

    out.par_stats.mode = TransportMode::kDistributed;
    out.par_stats.messages_sent = messages_sent_;
    out.par_stats.states_transferred = states_relayed_;
    out.par_stats.batches_sent = batches_relayed_;
    out.par_stats.termination_rounds = term_.rounds();
    out.par_stats.requested_ppes = procs_;
    out.par_stats.effective_ppes = procs_;
    return out;
  }

  const SearchProblem& problem_;
  const ParallelConfig& config_;
  std::uint32_t procs_;
  DistTermination term_;
  util::Timer timer_;
  core::ProgressGate progress_gate_{config_.search.controls};

  std::vector<WorkerHandle> workers_;
  std::vector<pollfd> pollfds_;  ///< one per worker, indexed by rank
  std::uint32_t next_rank_ = 0;  ///< round-robin start in next_frame()
  bool cleaned_ = false;

  double incumbent_len_ = kInf;
  std::vector<std::pair<NodeId, ProcId>> incumbent_seq_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t states_relayed_ = 0;
  std::uint64_t batches_relayed_ = 0;
};

/// Worker-process entry: the coordinator execs the current binary with
/// OPTSCHED_DIST_WORKER=<fd>,<rank> in the environment, and this hook —
/// which runs in *every* process linking the parallel layer, before
/// main() — diverts such a process into the worker loop and exits. The
/// variable is unset first so nothing a worker spawns re-enters.
__attribute__((constructor)) void dist_worker_entry() {
  const char* spec = std::getenv(kWorkerEnv);
  if (spec == nullptr) return;
  int fd = -1;
  unsigned rank = 0;
  if (std::sscanf(spec, "%d,%u", &fd, &rank) != 2 || fd < 0) std::_Exit(125);
  ::unsetenv(kWorkerEnv);
  int code = 1;
  try {
    DistWorker worker(fd, rank);
    code = worker.run();
  } catch (...) {
  }
  std::_Exit(code);
}

}  // namespace

ParallelResult dist_astar_schedule(const SearchProblem& problem,
                                   const ParallelConfig& config) {
  OPTSCHED_REQUIRE(config.search.epsilon == 0.0,
                   "mode=dist supports exact search only (epsilon = 0)");
  DistCoordinator coordinator(problem, config);
  return coordinator.run();
}

}  // namespace optsched::par
