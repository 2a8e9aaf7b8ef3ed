// Replay of a transferred state: rebuild the finish times, g and signature
// of a partial schedule from its assignment sequence (par::StateMsg). The
// in-process importers (parallel_astar.cpp) and the dist worker
// (dist_transport.cpp) share this one copy.
//
// The sequence comes from another PPE or another process, so the replay
// checks it as it goes — each node and processor id in range, no node
// assigned twice, every parent assigned earlier in the sequence — and
// throws util::Error on the first violation instead of indexing out of
// bounds. The checks ride the loop the replay runs anyway.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/signature.hpp"
#include "util/assert.hpp"

namespace optsched::par {

class SequenceReplay {
 public:
  /// One replayed assignment, as handed to the per-step callback.
  struct Step {
    dag::NodeId node;
    machine::ProcId proc;
    double finish;     ///< finish time of `node`
    double g;          ///< makespan of the prefix ending here
    util::Key128 sig;  ///< signature of the prefix ending here
  };

  explicit SequenceReplay(const core::SearchProblem& problem)
      : problem_(&problem),
        finish_(problem.num_nodes(), 0.0),
        proc_of_(problem.num_nodes(), machine::kInvalidProc),
        proc_ready_(problem.num_procs(), 0.0) {}

  /// Replay `seq` from the empty schedule, calling `on_step(const Step&)`
  /// after each assignment. Returns the last step (the root's signature
  /// and g = 0 for an empty sequence). Throws util::Error on a malformed
  /// sequence.
  template <class OnStep>
  Step run(const std::vector<std::pair<dag::NodeId, machine::ProcId>>& seq,
           OnStep&& on_step) {
    const auto& graph = problem_->graph();
    const auto& machine = problem_->machine();
    const std::uint32_t nodes = problem_->num_nodes();
    const std::uint32_t procs = problem_->num_procs();
    std::fill(finish_.begin(), finish_.end(), 0.0);
    std::fill(proc_of_.begin(), proc_of_.end(), machine::kInvalidProc);
    std::fill(proc_ready_.begin(), proc_ready_.end(), 0.0);

    Step step{0, 0, 0.0, 0.0, core::root_signature()};
    for (const auto& [node, proc] : seq) {
      OPTSCHED_REQUIRE(node < nodes, "replayed node id out of range");
      OPTSCHED_REQUIRE(proc < procs, "replayed processor id out of range");
      OPTSCHED_REQUIRE(proc_of_[node] == machine::kInvalidProc,
                       "replayed sequence assigns a node twice");
      double dat = 0.0;
      for (const auto& [par, cost] : graph.parents(node)) {
        OPTSCHED_REQUIRE(proc_of_[par] != machine::kInvalidProc,
                         "replayed node precedes one of its parents");
        dat = std::max(dat, finish_[par] + machine.comm_delay(
                                               cost, proc_of_[par], proc,
                                               problem_->comm()));
      }
      const double st = std::max(proc_ready_[proc], dat);
      const double ft = st + machine.exec_time(graph.weight(node), proc);
      finish_[node] = ft;
      proc_of_[node] = proc;
      proc_ready_[proc] = ft;
      step.node = node;
      step.proc = proc;
      step.finish = ft;
      step.g = std::max(step.g, ft);
      step.sig = core::extend_signature(step.sig, node, proc, ft);
      on_step(std::as_const(step));
    }
    return step;
  }

  /// Finish time of `node` in the last replay (0 when it was not in the
  /// sequence).
  double finish(dag::NodeId node) const { return finish_[node]; }

 private:
  const core::SearchProblem* problem_;
  std::vector<double> finish_;
  std::vector<machine::ProcId> proc_of_;
  std::vector<double> proc_ready_;
};

}  // namespace optsched::par
