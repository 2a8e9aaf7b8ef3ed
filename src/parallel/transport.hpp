// Pluggable parallel-search transports.
//
// PR 3 left the parallel layer as one hard-coded scheme: the paper's ring
// mailboxes with periodic neighbour rebalancing and PPE-local duplicate
// detection. This header splits that scheme into an architecture so the
// same per-PPE search worker (parallel_astar.cpp) can run over different
// distribution strategies:
//
//   Transport          the per-run substrate shared by all PPEs — owns the
//                      communication structures, the published per-PPE
//                      status used for quiescence detection and progress
//                      lower bounds, and the mode-specific counters.
//   PpeLink            one PPE's endpoint into the transport, called only
//                      from that PPE's thread. Supplies the pluggable
//                      duplicate-detection probe for freshly generated
//                      states and the two scheduling hooks
//                      (after_expand / on_empty) the search worker
//                      delegates to.
//   PpeHost            the narrow view of a PPE a transport manipulates:
//                      frontier inspection, batched push, serialization of
//                      states into self-contained messages, and import of
//                      received batches into the local arena.
//   seed_owner         deterministic ownership of the seed frontier (the
//                      paper's interleaved hand-out, or signature-hash
//                      ownership for the work-stealing mode).
//
// Two transports exist: the paper's ring-mailbox scheme
// (ring_transport.hpp) and a work-stealing frontier with a hash-sharded
// transposition table (ws_transport.hpp). See those headers for the
// scheme-specific discussion, and DESIGN.md §4 for the architecture
// rationale.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/frontier.hpp"
#include "core/state.hpp"
#include "dag/graph.hpp"
#include "machine/machine.hpp"
#include "util/counters.hpp"
#include "util/flat_set.hpp"

namespace optsched::core {
class SearchProblem;
}

namespace optsched::par {

struct ParallelConfig;  // parallel_astar.hpp

/// Which distribution strategy the parallel engine runs.
enum class TransportMode : std::uint8_t {
  kRing,          ///< paper §3.3: static partition + periodic rebalancing
  kWorkStealing,  ///< per-PPE deques + hash-sharded duplicate detection
  /// HDA* over worker *processes*: abstract-key ownership, serialized
  /// state batches over AF_UNIX sockets, coordinator-side termination
  /// detection (parallel/dist_transport.hpp). Does not run on the
  /// in-process Transport/PpeLink substrate below — the dispatch in
  /// parallel_astar_schedule routes it to the distributed harness.
  kDistributed,
};

const char* to_string(TransportMode mode);

/// A transferred search state: the assignment sequence from the root.
/// The receiver replays it to rebuild times, signature and cost — the
/// same few dozen bytes the Paragon implementation shipped. Messages are
/// self-contained so no transport ever reads another PPE's arena (each
/// arena is appended to by its own thread alone, without synchronization).
struct StateMsg {
  std::vector<std::pair<dag::NodeId, machine::ProcId>> assignments;
  double f = 0.0;  ///< sender's f value (receiver recomputes and asserts)
};

/// Transport-level counters for one run, reported through SolveStats to
/// the CLI and suite reports. Ring runs leave the steal/shard counters 0
/// and vice versa.
struct ParallelStats {
  TransportMode mode = TransportMode::kRing;
  // Ring-mailbox scheme.
  std::uint64_t messages_sent = 0;
  std::uint64_t states_transferred = 0;  ///< shipped over mailboxes or stolen
  std::uint64_t comm_rounds = 0;
  // Work-stealing scheme.
  std::uint64_t steal_attempts = 0;  ///< sweeps that looked for a victim
  std::uint64_t steals = 0;          ///< batches actually taken
  std::uint64_t donations = 0;       ///< publishes into the owner's deque
  // Hash-sharded duplicate detection.
  std::uint32_t shards = 0;      ///< shard count of the global table
  /// Duplicate generations filtered by the shared table. Counts *every*
  /// duplicate (the ws mode has no separate local set), so it upper-
  /// bounds the cross-PPE share — the part the ring's local SEEN misses.
  std::uint64_t shard_hits = 0;
  /// Per-PPE expansion counts. Thread-timing dependent; consumers emit it
  /// sorted or aggregated (min/max/total) so reports diff deterministically
  /// modulo load balance, not PPE numbering.
  std::vector<std::uint64_t> expanded_per_ppe;
  /// PPE counts: what the caller asked for vs. what actually ran after the
  /// initial-frontier feedability clamp (ws mode on tiny instances).
  std::uint32_t requested_ppes = 0;
  std::uint32_t effective_ppes = 0;
  // Distributed (multi-process) scheme — 0 for the in-process modes.
  std::uint64_t states_serialized = 0;   ///< states encoded into wire batches
  std::uint64_t batches_sent = 0;        ///< batch frames shipped worker->worker
  std::uint64_t termination_rounds = 0;  ///< quiescence-condition evaluations
  /// Remote-owned children suppressed by the send-side duplicate filter
  /// (wire.hpp SendFilter) before serialization.
  std::uint64_t states_deduped_at_send = 0;
  /// Gathered socket writes on the worker side; states_serialized /
  /// batches_sent is the mean batch size, batches_sent / flushes the
  /// mean frames-per-syscall.
  std::uint64_t flushes = 0;
  /// Bytes written to dist sockets across all processes (workers + the
  /// coordinator's relay writers).
  std::uint64_t bytes_sent = 0;

  /// The counter table (util/counters.hpp), in report order; `mode` and
  /// `expanded_per_ppe` are not counters. PPE and shard counts follow
  /// the engine's configuration, so they are effort, not semantic.
  template <class F, class... S>
  static void visit(F&& f, S&... s) {
    using util::Counter;
    using enum util::Merge;
    using enum util::CounterClass;
    f(Counter{"messages_sent", kSum, kEffort}, s.messages_sent...);
    f(Counter{"states_transferred", kSum, kEffort}, s.states_transferred...);
    f(Counter{"comm_rounds", kSum, kEffort}, s.comm_rounds...);
    f(Counter{"steal_attempts", kSum, kEffort}, s.steal_attempts...);
    f(Counter{"steals", kSum, kEffort}, s.steals...);
    f(Counter{"donations", kSum, kEffort}, s.donations...);
    f(Counter{"shards", kMax, kEffort}, s.shards...);
    f(Counter{"shard_hits", kSum, kEffort}, s.shard_hits...);
    f(Counter{"requested_ppes", kMax, kEffort}, s.requested_ppes...);
    f(Counter{"effective_ppes", kMax, kEffort}, s.effective_ppes...);
    f(Counter{"states_serialized", kSum, kRun}, s.states_serialized...);
    f(Counter{"batches_sent", kSum, kRun}, s.batches_sent...);
    f(Counter{"termination_rounds", kSum, kRun}, s.termination_rounds...);
    f(Counter{"states_deduped_at_send", kSum, kRun},
      s.states_deduped_at_send...);
    f(Counter{"flushes", kSum, kRun}, s.flushes...);
    f(Counter{"bytes_sent", kSum, kRun}, s.bytes_sent...);
  }
};

/// Published per-PPE status: the quiescence-detection flags plus the
/// frontier summary other PPEs read (ring election, progress lower
/// bounds). One cache line per PPE.
struct alignas(64) PpeStatus {
  std::atomic<double> min_f{std::numeric_limits<double>::infinity()};
  std::atomic<std::uint64_t> open_size{0};
  std::atomic<bool> idle{false};
};

/// The narrow view of one PPE's search state a transport manipulates.
/// Implemented by the search worker (parallel_astar.cpp); every method is
/// called from that PPE's own thread.
///
/// States move as frontier entries (arena index, f, g, h): a state's f is
/// stored in its entry and nowhere in the arena (core/state.hpp), so a
/// transport forwards the entries it holds, back onto the frontier or
/// into serialize().
class PpeHost {
 public:
  using Entry = core::Frontier::Entry;

  virtual ~PpeHost() = default;

  virtual std::uint32_t id() const = 0;
  virtual std::size_t frontier_size() const = 0;
  virtual double frontier_min_f() const = 0;  ///< +inf when empty
  /// Can this PPE's frontier still improve on the shared incumbent?
  virtual bool dominated() const = 0;

  virtual core::StateIndex pop_best() = 0;  ///< precondition: nonempty
  virtual void push(const Entry& e) = 0;
  /// Batched push (core::Frontier::push_batch: one heapify for the heap).
  virtual void push_batch(const std::vector<Entry>& entries) = 0;
  /// Remove up to n entries biased away from the best (ring load sharing).
  virtual std::vector<Entry> extract_surplus(std::size_t n) = 0;
  /// Remove the n best-f entries (work-stealing donations).
  virtual std::vector<Entry> extract_best(std::size_t n) = 0;

  /// Self-contained message for a local state (assignment-sequence walk)
  /// carrying the entry's f.
  virtual StateMsg serialize(const Entry& e) const = 0;
  /// Replay received states into the local arena and batch-push them onto
  /// the frontier; complete schedules are offered to the shared incumbent.
  virtual void import_batch(const std::vector<StateMsg>& msgs) = 0;
  /// Expand a state immediately (ring's neighbourhood election), returning
  /// the surviving non-goal children's generation-time entries; goals are
  /// offered to the shared incumbent internally. Counts as a normal
  /// expansion.
  virtual std::vector<Entry> expand_collect(core::StateIndex idx) = 0;
};

/// One PPE's endpoint into the transport. Constructed by
/// Transport::connect before the worker threads start; all methods are
/// called from the owning PPE's thread only.
class PpeLink {
 public:
  explicit PpeLink(PpeStatus& status) : status_(&status) {}
  virtual ~PpeLink() = default;

  /// Duplicate-detection probe/insert for one freshly generated state:
  /// true when the signature is new. Ring: the PPE-local SEEN set (the
  /// paper's scheme — cross-PPE duplicates pass). Work stealing: the
  /// global hash-sharded table (cross-PPE duplicates are filtered).
  virtual bool dedup_insert(const util::Key128& sig) = 0;

  /// Record a signature without using the probe result: the deterministic
  /// seed expansion runs identically on every PPE against a throwaway
  /// local set, and imported states were already accounted by their
  /// sender. Ring inserts into the local SEEN; work stealing inserts into
  /// the shard table, where cross-PPE repeats are no-ops.
  virtual void record_signature(const util::Key128& sig) = 0;

  /// Post-expansion hook: ring runs its periodic communication rounds,
  /// work stealing tops up the owner's donation deque.
  virtual void after_expand(PpeHost& host) = 0;

  /// Empty-frontier hook: refill from the transport (mailbox drain, deque
  /// reclaim, steal sweep) or detect global quiescence and set the shared
  /// done flag. The kernel policy always retries the loop after this.
  virtual void on_empty(PpeHost& host) = 0;

  /// Transport memory attributed to this PPE (its share of shared
  /// structures), for the per-PPE memory-cap accounting.
  virtual std::size_t memory_bytes() const = 0;

  void mark_busy() { status_->idle.store(false, std::memory_order_release); }
  void mark_idle() { status_->idle.store(true, std::memory_order_release); }
  void publish(double min_f, std::size_t open_size) {
    status_->min_f.store(min_f, std::memory_order_release);
    status_->open_size.store(open_size, std::memory_order_release);
  }

 protected:
  PpeStatus& status() { return *status_; }

 private:
  PpeStatus* status_;
};

/// The paper's §3.3 interleaved hand-out of the rank-ordered seed
/// frontier over q PPEs: 1st -> PPE 0, 2nd -> PPE q-1, 3rd -> PPE 1, ...;
/// extras round-robin.
inline std::uint32_t interleave_owner(std::size_t rank, std::uint32_t q) {
  if (rank < q) {
    return (rank % 2 == 0) ? static_cast<std::uint32_t>(rank / 2)
                           : q - 1 - static_cast<std::uint32_t>(rank / 2);
  }
  return static_cast<std::uint32_t>(rank - q) % q;
}

/// HDA*-style signature-hash ownership for the work-stealing mode: the
/// seed state goes to the PPE its signature hashes to, so the initial
/// partition is already hash-uniform.
inline std::uint32_t hash_owner(const util::Key128& sig, std::uint32_t q) {
  return static_cast<std::uint32_t>(
      util::splitmix64(sig.hi ^ (sig.lo * 0x9e3779b97f4a7c15ULL)) % q);
}

/// The per-run substrate shared by all PPEs.
class Transport {
 public:
  Transport(std::uint32_t num_ppes, std::atomic<bool>& done)
      : num_ppes_(num_ppes),
        done_(&done),
        status_(std::make_unique<PpeStatus[]>(num_ppes)) {}
  virtual ~Transport() = default;

  virtual TransportMode mode() const = 0;
  virtual std::unique_ptr<PpeLink> connect(std::uint32_t ppe) = 0;
  /// The PPE that owns the seed state at `rank` of the deterministic seed
  /// frontier. Every PPE computes the identical seed expansion, so this
  /// is a pure function of (rank, signature) — no startup communication.
  virtual std::uint32_t seed_owner(std::size_t rank,
                                   const util::Key128& sig) const = 0;
  /// Fill in the mode-specific counters (expanded_per_ppe is the
  /// caller's: it comes from the workers, not the transport).
  virtual void collect(ParallelStats& out) const = 0;

  std::uint32_t num_ppes() const noexcept { return num_ppes_; }

  /// Min published frontier f across PPEs (progress lower bound).
  double global_lower_bound() const {
    double lb = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < num_ppes_; ++i)
      lb = std::min(lb, status_[i].min_f.load(std::memory_order_acquire));
    return lb;
  }

 protected:
  PpeStatus& status(std::uint32_t ppe) { return status_[ppe]; }

  bool all_idle() const {
    for (std::uint32_t i = 0; i < num_ppes_; ++i)
      if (!status_[i].idle.load(std::memory_order_acquire)) return false;
    return true;
  }

  void set_done() { done_->store(true, std::memory_order_release); }

 private:
  std::uint32_t num_ppes_;
  std::atomic<bool>* done_;
  std::unique_ptr<PpeStatus[]> status_;
};

/// Build the transport for config.mode. `problem` supplies instance
/// parameters (the ring's communication-period schedule derives from the
/// node count, the shard table sizes off it).
std::unique_ptr<Transport> make_transport(const ParallelConfig& config,
                                          const core::SearchProblem& problem,
                                          std::atomic<bool>& done);

}  // namespace optsched::par
