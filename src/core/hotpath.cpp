#include "core/hotpath.hpp"

namespace optsched::core::hotpath {

namespace {

constexpr std::uint32_t kUnscheduled = 0xFFFFFFFFu;  // machine::kInvalidProc

}  // namespace

double max_reduce(const double* x, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

void est_seed(const std::uint32_t* proc_of, const double* finish,
              const double* w_scaled, std::size_t n, double* est,
              double* add) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool sched = proc_of[i] != kUnscheduled;
    est[i] = sched ? finish[i] : 0.0;
    add[i] = sched ? 0.0 : w_scaled[i];
  }
}

}  // namespace optsched::core::hotpath
