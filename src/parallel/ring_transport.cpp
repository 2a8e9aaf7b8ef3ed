#include "parallel/ring_transport.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "util/flat_set.hpp"

namespace optsched::par {

/// One PPE's endpoint: the PPE-local SEEN set, the shrinking-period
/// bookkeeping, and the communication-round choreography ported from the
/// pre-transport implementation (behaviour-preserving).
class RingLink final : public PpeLink {
 public:
  RingLink(RingTransport& transport, std::uint32_t id)
      : PpeLink(transport.status(id)),
        t_(transport),
        id_(id),
        seen_(1 << 10),
        period_(period_for_round(0)) {}

  bool dedup_insert(const util::Key128& sig) override {
    return seen_.insert(sig);
  }

  void record_signature(const util::Key128& sig) override {
    seen_.insert(sig);
  }

  void after_expand(PpeHost& host) override {
    if (++period_counter_ < period_) return;
    period_counter_ = 0;
    communicate(host);
    ++round_;
    period_ = period_for_round(round_);
  }

  /// Empty frontier: idle/drain dance. Either the mailbox refills OPEN,
  /// or global quiescence flips the shared done flag.
  void on_empty(PpeHost& host) override {
    status().idle.store(true, std::memory_order_release);
    publish(host.frontier_min_f(), host.frontier_size());
    drain_mailbox(host, std::chrono::microseconds(200));
    if (host.frontier_size() > 0) {
      mark_busy();
      return;
    }
    // Sound termination: all PPEs idle and nothing in flight. Re-read the
    // idle flags after the counter — a receiver marks itself busy before
    // acknowledging, so a message consumed between the two reads flips a
    // flag the re-check observes.
    if (t_.all_idle() && !t_.net_.anything_in_flight() && t_.all_idle())
      t_.set_done();
  }

  std::size_t memory_bytes() const override { return seen_.memory_bytes(); }

 private:
  std::uint32_t period_for_round(std::uint32_t round) const {
    const std::uint32_t v = t_.num_nodes_;
    const std::uint32_t shifted = round + 1 >= 31 ? 0u : (v >> (round + 1));
    return std::max(shifted, RingTransport::kMinPeriod);
  }

  void drain_mailbox(PpeHost& host, std::chrono::microseconds wait) {
    auto& box = t_.net_.mailbox(id_);
    bool first = true;
    while (true) {
      std::optional<Message> msg =
          first && wait.count() > 0 ? box.take_for(wait) : box.try_take();
      if (!msg) break;
      first = false;
      // Mark busy *before* acknowledging so the termination detector never
      // sees "all idle, nothing in flight" while a message is half-processed.
      mark_busy();
      host.import_batch(msg->states);
      t_.net_.acknowledge_receipt();
    }
  }

  void send(std::uint32_t to, std::vector<StateMsg> states) {
    t_.states_transferred_.fetch_add(states.size(),
                                     std::memory_order_relaxed);
    t_.messages_sent_.fetch_add(1, std::memory_order_relaxed);
    t_.net_.send(to, {std::move(states), id_});
  }

  void communicate(PpeHost& host) {
    publish(host.frontier_min_f(), host.frontier_size());
    t_.comm_rounds_.fetch_add(1, std::memory_order_relaxed);

    const auto& neighbors = t_.net_.neighbors(id_);
    if (neighbors.empty() || host.frontier_size() == 0) {
      drain_mailbox(host, std::chrono::microseconds(0));
      return;
    }

    // Neighbourhood election (paper: "vote and elect the best cost state,
    // which is then expanded by all the participating PPEs; the resulting
    // new states then go to each neighbouring PPE in a RR fashion"). The
    // owner of the locally best state expands it and scatters the children
    // round-robin over the neighbourhood, which realizes the same data
    // flow without duplicating the expansion on every participant.
    const double my_fmin = host.frontier_min_f();
    bool i_am_best = true;
    for (const auto nb : neighbors)
      if (t_.status(nb).min_f.load(std::memory_order_acquire) <
          my_fmin - 1e-12)
        i_am_best = false;

    if (i_am_best && !host.dominated()) {
      const auto children = host.expand_collect(host.pop_best());
      // Scatter children: self first, then neighbours round-robin.
      std::uint32_t cursor = 0;
      std::vector<std::vector<StateMsg>> outbound(neighbors.size());
      for (const PpeHost::Entry& e : children) {
        if (cursor == 0) {
          host.push(e);
        } else {
          outbound[cursor - 1].push_back(host.serialize(e));
        }
        cursor =
            (cursor + 1) % (static_cast<std::uint32_t>(neighbors.size()) + 1);
      }
      for (std::size_t k = 0; k < neighbors.size(); ++k)
        if (!outbound[k].empty()) send(neighbors[k], std::move(outbound[k]));
    }

    // Round-robin load sharing toward the neighbourhood average (§3.3).
    std::uint64_t total = host.frontier_size();
    std::vector<std::uint64_t> nb_sizes(neighbors.size());
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      nb_sizes[k] =
          t_.status(neighbors[k]).open_size.load(std::memory_order_acquire);
      total += nb_sizes[k];
    }
    const std::uint64_t average = total / (neighbors.size() + 1);
    if (host.frontier_size() > average + 1) {
      const std::size_t surplus = host.frontier_size() - average;
      std::vector<std::uint32_t> deficit;
      for (std::size_t k = 0; k < neighbors.size(); ++k)
        if (nb_sizes[k] < average) deficit.push_back(neighbors[k]);
      if (!deficit.empty()) {
        const auto extracted =
            host.extract_surplus(std::min<std::size_t>(surplus, 256));
        std::vector<std::vector<StateMsg>> outbound(deficit.size());
        for (const PpeHost::Entry& e : extracted) {
          outbound[rr_cursor_ % deficit.size()].push_back(host.serialize(e));
          ++rr_cursor_;
        }
        for (std::size_t k = 0; k < deficit.size(); ++k)
          if (!outbound[k].empty()) send(deficit[k], std::move(outbound[k]));
      }
    }

    drain_mailbox(host, std::chrono::microseconds(0));
    publish(host.frontier_min_f(), host.frontier_size());
  }

  RingTransport& t_;
  std::uint32_t id_;
  util::FlatSet128 seen_;  ///< PPE-local duplicate detection (the paper's)
  std::uint32_t round_ = 0;
  std::uint64_t period_counter_ = 0;
  std::uint64_t period_;
  std::uint32_t rr_cursor_ = 0;  ///< round-robin pointer for load sharing
};

RingTransport::RingTransport(std::uint32_t num_ppes,
                             MailboxNetwork::Topology topology,
                             std::uint32_t num_nodes,
                             std::atomic<bool>& done)
    : Transport(num_ppes, done),
      net_(num_ppes, topology),
      num_nodes_(num_nodes) {}

std::unique_ptr<PpeLink> RingTransport::connect(std::uint32_t ppe) {
  return std::make_unique<RingLink>(*this, ppe);
}

void RingTransport::collect(ParallelStats& out) const {
  out.mode = TransportMode::kRing;
  out.messages_sent = messages_sent_.load();
  out.states_transferred = states_transferred_.load();
  out.comm_rounds = comm_rounds_.load();
}

}  // namespace optsched::par
