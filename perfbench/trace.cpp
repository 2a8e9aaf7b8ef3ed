#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/jsonl.hpp"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();

std::atomic<std::uint64_t> next_request{1};

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

void Tracer::begin_request() {
  if (enabled_) request_ = next_request.fetch_add(1);
}

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  spans_.push_back({name, request_, open_, now_ms(), 0.0});
  open_ = static_cast<std::int64_t>(spans_.size()) - 1;
  return Scope(this, open_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.end_ms = now_ms();
  tracer_->open_ = s.parent;
}

void Tracer::absorb(const Tracer& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = spans[i].end_ms - spans[i].start_ms;
    SpanTotals& t = totals[spans[i].name];
    ++t.calls;
    t.total_ms += dur;
    t.self_ms += dur - child_ms[i];
  }
  return totals;
}

void write_spans_jsonl(const std::vector<Span>& spans, std::ostream& out) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    optsched::util::Json line(optsched::util::Json::Object{});
    line["id"] = static_cast<std::uint64_t>(i);
    line["name"] = spans[i].name;
    line["request"] = spans[i].request;
    line["parent"] = spans[i].parent >= 0
                         ? optsched::util::Json(static_cast<std::int64_t>(spans[i].parent))
                         : optsched::util::Json();
    line["start_ms"] = spans[i].start_ms;
    line["end_ms"] = spans[i].end_ms;
    out << line.dump() << '\n';
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
