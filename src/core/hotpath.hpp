// Branch-free inner kernels for the expansion/heuristic hot path.
//
// The kernels iterate the SoA context arrays (ScheduleView) with no
// early-exit branches: scheduled/unscheduled decisions become masks, max
// reductions scan the whole range, so the compiler is free to vectorize
// them for whatever ISA the build targets.
//
// Bit-exactness: the kernels use only selections (max, blend), no
// arithmetic, so every compiled form returns identical doubles on
// identical inputs. The bucket queue's fixed-point soundness argument
// (core/key_scale.hpp) therefore holds whatever the compiler emits.
#pragma once

#include <cstddef>
#include <cstdint>

namespace optsched::core::hotpath {

/// max(0, max_i x[i]) over the whole range, no early exit. Precondition:
/// x[i] >= 0 (static levels, start estimates).
double max_reduce(const double* x, std::size_t n);

/// Seed the h_path propagation arrays in one branch-free pass:
///   est[i] = scheduled(i) ? finish[i]   : 0
///   add[i] = scheduled(i) ? 0           : w_scaled[i]
/// so the topological inner loop can read est[p] + add[p] for every parent
/// without testing scheduledness. `proc_of[i] == 0xFFFFFFFF` (kInvalidProc)
/// means unscheduled.
void est_seed(const std::uint32_t* proc_of, const double* finish,
              const double* w_scaled, std::size_t n, double* est,
              double* add);

}  // namespace optsched::core::hotpath
