// String-keyed engine registry — the library's dispatch point.
//
// All built-in engines self-register on first access (astar, aeps, ida,
// parallel, chenyu, exhaustive, blevel, hlfet, mcp, etf, portfolio);
// external code can add() its own engines and they become reachable from
// the CLI, the conformance tests, and the portfolio exactly like the
// built-ins. Lookup failures and undeclared options raise InvalidRequest
// before any search work starts.
#pragma once

#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "api/solver.hpp"

namespace optsched::api {

/// One declared option key ("epsilon") with its help text.
struct OptionSpec {
  std::string key;
  std::string help;
};

struct EngineInfo {
  std::string name;
  std::string description;   ///< one line, shown by --list-engines
  EngineCaps caps;
  std::vector<OptionSpec> options;
  std::function<std::unique_ptr<Solver>()> factory;
};

class SolverRegistry {
 public:
  /// The process-wide registry, with built-ins already registered.
  static SolverRegistry& instance();

  /// Register an engine. Throws util::Error on a duplicate or empty name
  /// or a missing factory.
  void add(EngineInfo info);

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  ///< sorted

  /// Sorted names of every engine whose capabilities satisfy `pred` —
  /// e.g. the suite runner's default engine set is
  /// `names_matching([](const EngineCaps& c) { return c.optimal; })`.
  std::vector<std::string> names_matching(
      const std::function<bool(const EngineCaps&)>& pred) const;

  /// Metadata for one engine; throws InvalidRequest (listing the
  /// registered names) when unknown.
  EngineInfo info(const std::string& name) const;

  /// Check request.options against the engine's declared option spec.
  /// Throws InvalidRequest on an undeclared key.
  void validate(const std::string& name, const SolveRequest& request) const;

  /// Validate, instantiate, and run the named engine. The returned
  /// result's `engine` field is always filled in.
  SolveResult solve(const std::string& name,
                    const SolveRequest& request) const;

 private:
  SolverRegistry();

  /// Reader-writer lock: the server's connection threads hit the
  /// read-only accessors (info/validate/solve) concurrently, so
  /// readers take shared locks and only add() writes. instance()'s
  /// built-in registration happens once inside the static-local
  /// constructor, which the language serializes.
  mutable std::shared_mutex mu_;
  std::map<std::string, EngineInfo> engines_;
};

/// Convenience for the common case:
/// `api::solve("astar", request)` == instance().solve(...).
SolveResult solve(const std::string& engine, const SolveRequest& request);

/// Render the registry as a table — plain text for --list-engines,
/// markdown for the README's engine table. One row per engine: name,
/// capability flags, options, description.
std::string format_engine_table(bool markdown = false);

}  // namespace optsched::api
