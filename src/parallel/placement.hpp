// CPU placement for PPE worker threads.
//
// PPEs own their arena, OPEN list, and transport endpoint; when the OS
// migrates a worker across cores those structures' cache/NUMA locality is
// lost. A pin policy fixes each PPE to one CPU from the process's allowed
// set (so taskset/cgroup restrictions are respected):
//
//   none     leave scheduling to the OS (default)
//   compact  PPE i -> allowed_cpu[i % n]: fill cores densely, neighbours
//            share caches — best for the ring's neighbour traffic
//   spread   PPE i -> allowed_cpu[(i * stride) % n] with stride ~ n/ppes:
//            space PPEs out across the allowed set — best when each PPE is
//            bandwidth-bound on its own arena
//
// Pinning pairs with first-touch initialization in Ppe::run(): the
// frontier allocates its pages, and the arena writes each of its records,
// from the worker's own thread *after* the pin, so on NUMA machines the
// pages land on the pinned CPU's node.
// Linux-only (sched_setaffinity); on other platforms pinning reports
// failure and the run proceeds unpinned.
#pragma once

#include <cstdint>

namespace optsched::par {

enum class PinPolicy : std::uint8_t { kNone, kCompact, kSpread };

const char* to_string(PinPolicy p);

/// Pin the calling thread per `policy`. Returns true when an affinity mask
/// was actually applied (always false for kNone and on non-Linux hosts).
bool pin_current_thread(PinPolicy policy, std::uint32_t ppe_id,
                        std::uint32_t num_ppes);

}  // namespace optsched::par
