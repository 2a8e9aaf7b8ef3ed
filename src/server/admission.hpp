// Admission gate for the daemon's solves (DESIGN.md §7). A solve runs
// on the connection thread that read it; the gate decides when. admit()
// rejects without blocking, in this order: kShuttingDown once stopped,
// kOverloaded when `queue_cap` solves already wait, kMemory when the
// solve's memory cap alone exceeds the budget, kOverloaded when it does
// not fit next to the current reservations. Otherwise it reserves the
// cap and runs at once when fewer than max(1, workers) solves run and
// nobody waits; else it waits in a FIFO line, and each finishing solve
// hands its slot straight to the head of the line (one thread wakes per
// hand-off). stop() wakes every waiter with kShuttingDown.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "server/protocol.hpp"
#include "util/timer.hpp"

namespace optsched::server {

class AdmissionGate {
 public:
  /// RAII: one running slot plus its reservation. The daemon drops it
  /// before writing the reply, so a closed-loop client's next request is
  /// never rejected against its own finished job.
  class Permit {
   public:
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;
    ~Permit() { gate_.release(bytes_); }

    const double queue_wait_ms;  ///< admission-to-start wait

   private:
    friend class AdmissionGate;
    Permit(AdmissionGate& gate, std::size_t bytes, double wait_ms)
        : queue_wait_ms(wait_ms), gate_(gate), bytes_(bytes) {}
    AdmissionGate& gate_;
    const std::size_t bytes_;
  };

  AdmissionGate(unsigned workers, std::size_t queue_cap,
                std::size_t memory_budget)
      : slots_(std::max(1u, workers)),
        queue_cap_(queue_cap),
        budget_(memory_budget) {}

  /// Admit a solve that caps its search memory at `memory_bytes` and
  /// block until it may run; throws the typed rejects listed above.
  Permit admit(std::size_t memory_bytes) {
    if (budget_ == 0) memory_bytes = 0;  // governor off
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_)
      throw ProtocolError(ErrorCode::kShuttingDown, "daemon is shutting down");
    if (line_.size() >= queue_cap_)
      reject(ErrorCode::kOverloaded,
             "queue depth cap " + std::to_string(queue_cap_) + " reached (" +
                 std::to_string(running_) + " in flight)");
    if (memory_bytes > budget_)
      reject(ErrorCode::kMemory, "job memory cap " +
                                     std::to_string(memory_bytes) +
                                     " exceeds the daemon budget " +
                                     std::to_string(budget_));
    if (budget_ != 0 && reserved_ + memory_bytes > budget_)
      reject(ErrorCode::kOverloaded,
             "memory governor: " + std::to_string(reserved_) + " of " +
                 std::to_string(budget_) +
                 " bytes already reserved; job needs " +
                 std::to_string(memory_bytes));
    reserved_ += memory_bytes;
    ++accepted_;
    const util::Timer queued;
    if (line_.empty() && running_ < slots_) {
      ++running_;
    } else {
      Waiter me;
      line_.push_back(&me);
      me.cv.wait(lock, [&] { return me.granted || stopping_; });
      if (!me.granted) {  // stop() emptied the line
        reserved_ -= memory_bytes;
        throw ProtocolError(ErrorCode::kShuttingDown,
                            "daemon stopped before the job ran");
      }
    }
    return Permit(*this, memory_bytes, queued.millis());
  }

  /// Refuse new solves and wake every waiter. Idempotent; running solves
  /// keep their permits.
  void stop() {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (Waiter* waiter : line_) waiter->cv.notify_one();
    line_.clear();
  }

  /// Fill the gate's counters of a status frame: queue_depth is solves
  /// waiting, in_flight permits held.
  void report(StatusReply& out) const {
    const std::lock_guard<std::mutex> lock(mu_);
    out.accepted = accepted_;
    out.completed = completed_;
    out.rejected = rejected_;
    out.queue_depth = line_.size();
    out.in_flight = running_;
    out.memory_reserved = reserved_;
  }

 private:
  [[noreturn]] void reject(ErrorCode code, const std::string& why) {
    ++rejected_;
    throw ProtocolError(code, why);
  }

  /// A solve in line; lives on its connection thread's stack.
  struct Waiter {
    std::condition_variable cv;
    bool granted = false;  ///< handed a running slot by release()
  };

  void release(std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++completed_;
    reserved_ -= bytes;
    if (line_.empty()) {
      --running_;
      return;
    }
    // The slot passes to the head of the line without ever being free,
    // so no later arrival can overtake it. Notified under mu_: the
    // waiter's stack frame must outlive the call.
    Waiter* next = line_.front();
    line_.pop_front();
    next->granted = true;
    next->cv.notify_one();
  }

  const std::size_t slots_;
  const std::size_t queue_cap_;
  const std::size_t budget_;  ///< memory governor budget; 0 = off

  mutable std::mutex mu_;
  bool stopping_ = false;
  std::deque<Waiter*> line_;  ///< admitted solves waiting, oldest first
  std::size_t running_ = 0;   ///< permits held
  std::size_t reserved_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace optsched::server
