#include "parallel/ws_transport.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace optsched::par {

namespace {

/// Approximate heap footprint of a deque's contents.
std::size_t deque_bytes(const std::vector<Donation>& items) {
  std::size_t n = items.capacity() * sizeof(Donation);
  for (const auto& d : items)
    n += d.msg.assignments.capacity() * sizeof(d.msg.assignments[0]);
  return n;
}

}  // namespace

class WsLink final : public PpeLink {
 public:
  WsLink(WsTransport& transport, std::uint32_t id)
      : PpeLink(transport.status(id)), t_(transport), id_(id) {}

  bool dedup_insert(const util::Key128& sig) override {
    if (t_.table_.insert(sig)) return true;
    t_.shard_hits_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  void record_signature(const util::Key128& sig) override {
    t_.table_.insert(sig);  // cross-PPE repeats are no-ops by design
  }

  void after_expand(PpeHost& host) override {
    // Nothing in ws mode reads the published status on the hot path
    // (stealing watches deque sizes, quiescence watches idle flags; min_f
    // only feeds the throttled progress lower bound), so refresh it
    // sparsely instead of paying shared-cache-line stores per expansion.
    if ((++publish_counter_ & 31u) == 0)
      publish(host.frontier_min_f(), host.frontier_size());
    maybe_donate(host);
  }

  void on_empty(PpeHost& host) override {
    publish(host.frontier_min_f(), host.frontier_size());

    // 1) Reclaim the own deque — by frontier entry, no replay needed.
    auto& own = t_.deques_[id_];
    if (own.size.load(std::memory_order_acquire) != 0) {
      mark_busy();  // before removal: keeps quiescence detection sound
      std::vector<PpeHost::Entry> entries;
      {
        const std::lock_guard<std::mutex> lock(own.mu);
        entries.reserve(own.items.size());
        for (const Donation& d : own.items) entries.push_back(d.entry);
        own.items.clear();
        own.size.store(0, std::memory_order_release);
        own.bytes.store(deque_bytes(own.items), std::memory_order_relaxed);
      }
      if (!entries.empty()) {
        host.push_batch(entries);
        return;
      }
    }

    // 2) Steal sweep: victims round-robin from id+1, best-f suffix of the
    //    first nonempty deque, one batch.
    t_.steal_attempts_.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t q = t_.num_ppes();
    for (std::uint32_t k = 1; k < q; ++k) {
      auto& victim = t_.deques_[(id_ + k) % q];
      if (victim.size.load(std::memory_order_acquire) == 0) continue;
      mark_busy();  // before removal, as above
      std::vector<StateMsg> batch;
      {
        const std::lock_guard<std::mutex> lock(victim.mu);
        const std::size_t take =
            std::min<std::size_t>(t_.steal_batch_, victim.items.size());
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(victim.items.back().msg));
          victim.items.pop_back();
        }
        victim.size.store(victim.items.size(), std::memory_order_release);
        victim.bytes.store(deque_bytes(victim.items),
                           std::memory_order_relaxed);
      }
      if (batch.empty()) continue;
      t_.steals_.fetch_add(1, std::memory_order_relaxed);
      t_.states_stolen_.fetch_add(batch.size(), std::memory_order_relaxed);
      host.import_batch(batch);
      return;
    }

    // 3) Nothing anywhere: advertise idle and test global quiescence.
    //    Re-read the idle flags after the deque sizes — a thief marks
    //    itself busy before removing a batch, so a steal racing the check
    //    flips a flag the re-check observes.
    status().idle.store(true, std::memory_order_release);
    if (t_.all_idle() && t_.all_deques_empty() && t_.all_idle()) {
      t_.set_done();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  std::size_t memory_bytes() const override {
    // This PPE's share of the shared table plus its own deque.
    return t_.table_.memory_bytes() / t_.num_ppes() +
           t_.deques_[id_].bytes.load(std::memory_order_relaxed);
  }

 private:
  /// Top the own deque up when thieves have drained it below one batch
  /// and the private frontier can spare a batch without starving.
  void maybe_donate(PpeHost& host) {
    if (t_.num_ppes() == 1) return;
    auto& own = t_.deques_[id_];
    if (own.size.load(std::memory_order_acquire) >= t_.steal_batch_) return;
    if (host.frontier_size() < 4 * static_cast<std::size_t>(t_.steal_batch_))
      return;

    const auto best = host.extract_best(t_.steal_batch_);
    if (best.empty()) return;
    std::vector<Donation> adds;
    adds.reserve(best.size());
    for (const PpeHost::Entry& e : best) adds.push_back({host.serialize(e), e});
    {
      const std::lock_guard<std::mutex> lock(own.mu);
      for (auto& d : adds) own.items.push_back(std::move(d));
      std::stable_sort(own.items.begin(), own.items.end(),
                       [](const Donation& a, const Donation& b) {
                         return a.entry.f > b.entry.f;  // best-f suffix
                       });
      own.size.store(own.items.size(), std::memory_order_release);
      own.bytes.store(deque_bytes(own.items), std::memory_order_relaxed);
    }
    t_.donations_.fetch_add(1, std::memory_order_relaxed);
  }

  WsTransport& t_;
  std::uint32_t id_;
  std::uint32_t publish_counter_ = 0;
};

WsTransport::WsTransport(std::uint32_t num_ppes, std::uint32_t steal_batch,
                         std::uint32_t shards, std::atomic<bool>& done)
    : Transport(num_ppes, done),
      table_(shards),
      deques_(num_ppes),
      steal_batch_(steal_batch) {
  OPTSCHED_REQUIRE(steal_batch >= 1, "steal batch must be >= 1");
}

std::unique_ptr<PpeLink> WsTransport::connect(std::uint32_t ppe) {
  return std::make_unique<WsLink>(*this, ppe);
}

void WsTransport::collect(ParallelStats& out) const {
  out.mode = TransportMode::kWorkStealing;
  out.states_transferred = states_stolen_.load();
  out.steal_attempts = steal_attempts_.load();
  out.steals = steals_.load();
  out.donations = donations_.load();
  out.shards = table_.num_shards();
  out.shard_hits = shard_hits_.load();
}

}  // namespace optsched::par
