// Measurement primitives of the benchmark driver: spans recorded around
// calls into the library's public functions, their self-time summary,
// and order statistics.
//
// A span has a name ("<layer>.<call>"), a start and end on the shared
// steady clock, a parent span, and the id of the request it belongs to.
// Spans stay in memory (one Tracer per thread) and are written out as
// JSONL when the run ends. A span's self time is its duration minus the
// part of it that its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds since the driver started, on std::chrono::steady_clock.
double now_ms();

struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::int64_t parent = -1;  ///< index into the same span vector
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Switch recording on or off between requests (never with a span open).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Open a new request; spans opened until the next call share its id.
  void begin_request();

  /// RAII span: closes when destroyed. A disabled tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, std::int64_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    std::int64_t index_;
  };

  [[nodiscard]] Scope span(const char* name);

  const std::vector<Span>& spans() const { return spans_; }

  /// Append another thread's spans, re-basing their parent indices.
  void absorb(const Tracer& other);

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
  std::uint64_t request_ = 0;
};

/// Self time and call count per span name.
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

void write_spans_jsonl(const std::vector<Span>& spans, std::ostream& out);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench
