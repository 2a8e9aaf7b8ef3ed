// Wire protocol of the distributed (multi-process) HDA* transport.
//
// The coordinator and its worker processes share one stream per worker
// over AF_UNIX socketpairs, carrying two kinds of frame (parallel/wire.hpp
// tells them apart by their first byte). The hot frames — batch, status,
// bound — are length-prefixed binary. The rare frames are one JSON object
// per line, with the same newline framing and strict util::Json value
// model as the serving layer (server/protocol.hpp), so a malformed or
// truncated frame is a typed util::Error, never UB. Every JSON frame
// carries a type tag "t"; the handshake frames ("hello", "init") also
// carry a version tag "v" so a coordinator and a worker built from
// different binaries fail fast instead of misinterpreting each other.
//
// Frame vocabulary (kWireVersion = 2):
//
//   worker -> coordinator
//     hello   JSON {t, v, rank}                handshake
//     batch   binary: to, count, delta-encoded states   states owned by `to`
//     goal    JSON {t, len, a:[[n,p]..]}       complete schedule found
//     status  binary: idle, rcvd, exp, open, min_f  liveness + Mattern counters
//     limit   JSON {t}                         worker's memory cap tripped
//     err     JSON {t, msg}                    typed failure before exit
//     bye     JSON {t, <counters>}             final stats, then _exit(0)
//
//   coordinator -> worker
//     init    JSON {t, v, graph, machine, comm, cfg, procs, rank,
//                   seed_bound, mem_bytes}
//     batch   binary, another worker's batch relayed byte for byte
//     bound   binary: len                      incumbent broadcast
//     stop    JSON {t}                         terminate, then answer bye
//
// A bye carries every mergeable counter of the worker's core::SearchStats
// and par::ParallelStats under its report name ("expanded",
// "duplicates_dropped", "peak_memory_bytes", "states_serialized", ...),
// exactly the names of the suite report columns: encode and decode both
// iterate the counter tables (util/counters.hpp), so a new counter
// travels without a protocol edit.
//
// A state travels as its assignment sequence from the root — the same
// self-contained representation the in-process transports ship
// (par::StateMsg) — plus the sender's f value, which the receiver
// recomputes and asserts, so a disagreement between the processes'
// heuristic evaluations surfaces immediately instead of corrupting the
// search.
//
// DistTermination is the coordinator's Mattern-style quiescence
// detector, factored out as a pure event-driven class so the
// delayed/reordered-delivery unit tests can drive it without sockets:
// the coordinator counts batch frames *enqueued* for each worker
// (before any socket write), workers report batch frames *processed*
// in every status, and the search is quiescent exactly when every
// worker's latest status says idle AND processed == enqueued for every
// worker. A worker only becomes busy again by receiving a frame, and
// that frame's enqueue bumped the sent counter before the check could
// run — so the condition is stable once true.
#pragma once

#include <cstdint>
#include <vector>

#include "core/astar.hpp"
#include "core/config.hpp"
#include "dag/graph.hpp"
#include "machine/machine.hpp"
#include "parallel/transport.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace optsched::par {

inline constexpr int kWireVersion = 2;

// ---- instance + config serialization (init frame payloads) ---------------

/// weights + [src, dst, cost] edge triples; names are not shipped (the
/// schedule is reconstructed against the coordinator's original graph).
util::Json graph_to_json(const dag::TaskGraph& graph);
dag::TaskGraph graph_from_json(const util::Json& j);

/// adjacency lists + speeds + topology name (Machine's public generic
/// constructor rebuilds hop distances itself).
util::Json machine_to_json(const machine::Machine& machine);
machine::Machine machine_from_json(const util::Json& j);

/// The search-shaping subset of SearchConfig: prune flags, h, queue,
/// epsilon. Limits and controls stay coordinator-side.
util::Json search_config_to_json(const core::SearchConfig& config);
core::SearchConfig search_config_from_json(const util::Json& j);

// ---- goal payloads -------------------------------------------------------

/// [[node, proc], ...] — the assignment sequence of a goal frame.
util::Json assignments_to_json(
    const std::vector<std::pair<dag::NodeId, machine::ProcId>>& seq);
std::vector<std::pair<dag::NodeId, machine::ProcId>> assignments_from_json(
    const util::Json& j);

// ---- bye payload ---------------------------------------------------------

/// A worker's final counters as a bye frame.
util::Json encode_bye(const core::SearchStats& search,
                      const ParallelStats& wire);
/// Inverse of encode_bye; throws util::Error on an absent counter.
void decode_bye(const util::Json& bye, core::SearchStats& search,
                ParallelStats& wire);

// ---- state ownership -----------------------------------------------------

/// Locality-aware owner rule of the dist workers: abstract Zobrist hashing
/// (Jinnai & Fukunaga, AAAI 2016). The abstraction keeps only the
/// processor assignments of a fixed subset of *feature* nodes — every
/// `stride`-th node in priority-rank order — and drops finish times and
/// every other node. A state's abstract key is the commutative sum of the
/// splitmix64-mixed (node, proc) terms of its feature assignments, so:
///   - the key is a function of the partial schedule (the set of its
///     assignments), not of the path that reached it: every state still
///     has exactly one owner, and duplicate detection stays exact;
///   - a child that assigns a non-feature node has its parent's key and
///     stays with its parent's owner, never crossing the wire;
///   - a child's key is its parent's key plus one term, O(1).
/// The owner of a key is a second mix of it modulo the worker count; the
/// empty schedule (the root) has key 0.
class AbstractOwner {
 public:
  AbstractOwner(const std::vector<dag::NodeId>& node_by_rank,
                std::uint32_t stride, std::uint32_t procs);

  /// Key contribution of assigning `node` to `proc`: 0 unless `node` is a
  /// feature node.
  std::uint64_t term(dag::NodeId node, machine::ProcId proc) const noexcept {
    if (!is_feature_[node]) return 0;
    return util::splitmix64((static_cast<std::uint64_t>(node) << 32) |
                            static_cast<std::uint64_t>(proc));
  }

  /// Worker rank owning every state whose abstract key is `key`.
  std::uint32_t owner(std::uint64_t key) const noexcept {
    return static_cast<std::uint32_t>(util::splitmix64(key) % procs_);
  }

  /// The feature nodes, ascending by priority rank.
  const std::vector<dag::NodeId>& features() const noexcept {
    return features_;
  }

 private:
  std::vector<std::uint8_t> is_feature_;  ///< indexed by node id
  std::vector<dag::NodeId> features_;
  std::uint32_t procs_;
};

// ---- termination detection -----------------------------------------------

/// Coordinator-side Mattern/Safra-style quiescence detector over a star
/// topology (every batch is relayed through the coordinator, so one
/// process observes every send and can count consistently).
class DistTermination {
 public:
  explicit DistTermination(std::uint32_t workers)
      : sent_(workers, 0), received_(workers, 0), idle_(workers, false) {}

  /// A batch frame was enqueued for worker `to`. MUST be called before
  /// the frame can possibly reach the worker (i.e. before the socket
  /// write is queued) — that ordering is the whole soundness argument.
  void on_enqueue(std::uint32_t to) {
    ++sent_[to];
    dirty_ = true;
  }

  /// Worker `from` reported a status: idle flag plus the total number of
  /// batch frames it has processed. Statuses arrive FIFO per worker
  /// (one stream socket each), so `received` is monotone per worker; a
  /// worker's statuses may interleave arbitrarily with other workers'.
  /// Returns true when the status changed the detector's state — the
  /// only case in which quiescent() can change its answer.
  bool on_status(std::uint32_t from, bool idle, std::uint64_t received) {
    const bool changed =
        idle_[from] != idle || received_[from] != received;
    idle_[from] = idle;
    received_[from] = received;
    if (changed) dirty_ = true;
    return changed;
  }

  /// Evaluate the quiescence condition: every worker's latest status is
  /// idle and has acknowledged every batch ever enqueued for it.
  ///
  /// The full scan only runs — and the rounds counter only ticks — when
  /// an event since the last evaluation could have changed the answer;
  /// callers that spin this in a poll loop get the cached verdict for
  /// free, so rounds() is O(state-changing status frames), not O(poll
  /// iterations). That cache is sound because the condition is a pure
  /// function of (sent_, received_, idle_), all of which set dirty_.
  bool quiescent() {
    if (!dirty_) return cached_;
    dirty_ = false;
    ++rounds_;
    cached_ = evaluate();
    return cached_;
  }

  std::uint64_t rounds() const noexcept { return rounds_; }
  std::uint64_t sent_to(std::uint32_t k) const { return sent_[k]; }

 private:
  bool evaluate() const {
    for (std::size_t k = 0; k < sent_.size(); ++k)
      if (!idle_[k] || received_[k] != sent_[k]) return false;
    return true;
  }

  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> received_;
  std::vector<bool> idle_;
  std::uint64_t rounds_ = 0;
  bool dirty_ = true;  ///< evaluate once even before any event
  bool cached_ = false;
};

}  // namespace optsched::par
