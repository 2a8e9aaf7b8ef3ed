// Declarative counter tables.
//
// Every stats struct (core::ExpandStats, core::SearchStats,
// par::ParallelStats, api::SolveStats) declares its counters once, in a
// static `visit(f, s...)` that calls
//
//   f(Counter{name, merge, class}, s.member...)
//
// for each counter, in report order, over any number of same-typed
// objects. Merging, the suite CSV/JSON schema and its aggregates, the
// churn report, the CLI stats block, the daemon's solve reply, the dist
// `bye` frame and `--list-columns` all iterate that one table, so adding
// a counter is the line that counts it plus one visitor line (DESIGN.md
// §12).
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace optsched::util {

/// How two values of one counter combine.
enum class Merge : std::uint8_t {
  kSum,     ///< summed across PPEs, workers and suite runs
  kMax,     ///< max everywhere (peaks, sizes)
  kMemory,  ///< summed across the workers of one solve, max across runs
  kNone,    ///< not merged: a label or ratio the assembler sets once
};

/// What a counter's value depends on; determinism diffs strip by class.
enum class CounterClass : std::uint8_t {
  kSemantic,  ///< a pure function of spec and engine, for every engine
  kEffort,    ///< work and resources spent: deterministic for serial
              ///< engines, timing- or configuration-dependent for
              ///< parallel ones
  kRun,       ///< run-dependent always: serving layer, dist wire, time
};

struct Counter {
  const char* name;
  Merge merge;
  CounterClass cls;
};

/// "semantic" | "effort" | "run".
inline const char* to_string(CounterClass cls) {
  switch (cls) {
    case CounterClass::kSemantic: return "semantic";
    case CounterClass::kEffort: return "effort";
    case CounterClass::kRun: return "run";
  }
  return "?";
}

/// Inverse of to_string; throws util::Error on anything else.
inline CounterClass parse_counter_class(std::string_view text) {
  for (const auto cls : {CounterClass::kSemantic, CounterClass::kEffort,
                         CounterClass::kRun})
    if (text == to_string(cls)) return cls;
  throw Error("unknown counter class '" + std::string(text) +
              "' (semantic|effort|run)");
}

/// Combine one counter value into another by its merge rule. Within one
/// solve kMemory sums (workers hold disjoint memory); across suite runs
/// (`across_runs`) it takes the max. kNone, bools and strings are left
/// alone (reports count bools as 0/1 doubles).
template <class T>
void merge_value(Merge merge, T& into, const T& from,
                 bool across_runs = false) {
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    if (merge == Merge::kMax || (merge == Merge::kMemory && across_runs))
      into = std::max(into, from);
    else if (merge != Merge::kNone)
      into += from;
  }
}

/// Merge every counter of `from` into `into` (one solve's PPEs/workers).
template <class S>
void merge_counters(S& into, const S& from) {
  S::visit([](const Counter& c, auto& a, const auto& b) {
    merge_value(c.merge, a, b);
  }, into, from);
}

/// Whether two values of one counter are equal; labels compare by text.
template <class T>
bool counter_equal(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, const char*>)
    return std::string_view(a) == b;
  else
    return a == b;
}

/// Report text of a counter value: integers in decimal, bools as 0/1,
/// doubles in shortest round-trip form, strings verbatim.
template <class T>
std::string counter_text(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else if constexpr (std::is_floating_point_v<T>) {
    return format_number_lenient(v);
  } else if constexpr (std::is_arithmetic_v<T>) {
    return std::to_string(v);
  } else {
    return std::string(v);
  }
}

/// JSON literal of a counter value.
template <class T>
std::string counter_json(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    return json_number(v);
  } else if constexpr (std::is_arithmetic_v<T>) {
    return std::to_string(v);
  } else {
    return '"' + json_escape(std::string(v)) + '"';
  }
}

// A report record R (workload::SuiteRecord, ChurnRecord) has a
// `visit_columns(f)` calling f(prefix, Counter, value) per column, in
// schema order; the column's name is prefix + Counter::name.

/// The columns of R whose class is in `classes`, in schema order.
template <class R>
std::vector<std::string> column_names(
    const std::vector<CounterClass>& classes) {
  std::vector<std::string> names;
  R{}.visit_columns([&](const char* prefix, const Counter& c, const auto&) {
    if (std::find(classes.begin(), classes.end(), c.cls) != classes.end())
      names.push_back(prefix + std::string(c.name));
  });
  return names;
}

/// One CSV header row, then one row per record.
template <class R>
void write_records_csv(const std::vector<R>& records, std::ostream& out) {
  using enum CounterClass;
  out << join(column_names<R>({kSemantic, kEffort, kRun}), ",") << '\n';
  for (const R& r : records) {
    const char* sep = "";
    r.visit_columns([&](const char*, const Counter&, const auto& v) {
      out << std::exchange(sep, ",") << csv_escape(counter_text(v));
    });
    out << '\n';
  }
}

/// A record's columns as the members of a JSON object (no braces).
template <class R>
void write_record_json(const R& r, std::ostream& out) {
  const char* sep = "";
  r.visit_columns([&](const char* prefix, const Counter& c, const auto& v) {
    out << std::exchange(sep, ", ") << '"' << prefix << c.name
        << "\": " << counter_json(v);
  });
}

}  // namespace optsched::util
