#ifndef EADRL_TOOLS_LINT_LINT_H_
#define EADRL_TOOLS_LINT_LINT_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

// eadrl_lint — the project's own static analyzer (see DESIGN.md,
// "Correctness tooling"). Dependency-free: a hand-rolled C++ lexer feeds a
// fixed set of project rules; no compiler, no external tooling. The library
// half lives here so tests/lint_selftest.cc can drive every rule against
// checked-in fixtures; tools/lint/eadrl_lint.cc wraps it in a directory
// walker with `file:line: rule-id: message` output and a nonzero exit on any
// finding.

namespace eadrl::lint {

/// One diagnostic. `line` is 1-based; `rule` is a stable rule-id from
/// RuleCatalog().
struct Finding {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

/// Rule-id -> one-line description of every rule this linter can emit
/// (including the meta rules `span-registry-stale` and `stale-nolint`).
const std::map<std::string, std::string>& RuleCatalog();

/// Cross-file configuration.
struct Config {
  /// Span names declared in src/obs/spans.def (name -> 1-based line in the
  /// registry file). Empty + !have_spans_registry disables the span-registry
  /// rules.
  std::map<std::string, size_t> registered_spans;
  bool have_spans_registry = false;
  /// Lock ranks declared in src/chk/lock_order.def (name -> 1-based line in
  /// the registry file) and the same names in declaration order — file order
  /// is the allowed acquisition order. Empty + !have_lock_registry disables
  /// the lock rules.
  std::map<std::string, size_t> registered_locks;
  std::vector<std::string> lock_order;
  bool have_lock_registry = false;
  /// Repo-global mutex-member-name -> rank-name map, built by the driver
  /// from CollectLockBindings over every src/ file. The lock-order rule
  /// matches scoped acquisitions by terminal identifier against this map,
  /// which is why ranked mutex members must carry repo-unique names.
  std::map<std::string, std::string> lock_bindings;
};

/// Parses src/obs/spans.def: EADRL_SPAN(name, "description") entries.
/// Malformed entries are reported against `path`.
std::map<std::string, size_t> ParseSpansDef(const std::string& path,
                                            const std::string& contents,
                                            std::vector<Finding>* findings);

/// Parses src/chk/lock_order.def: EADRL_LOCK(name, "description") entries.
/// Malformed and duplicate entries are reported against `path` under
/// `lock-registry`. `order` (optional) receives the names in declaration
/// order — file order is the allowed acquisition order.
std::map<std::string, size_t> ParseLockOrderDef(
    const std::string& path, const std::string& contents,
    std::vector<Finding>* findings, std::vector<std::string>* order);

/// One site binding a mutex member name to a lock rank: either
/// `chk::OrderedMutex name{EADRL_LOCK_RANK(rank), ...}` or
/// `std::mutex name EADRL_LOCK_ORDERED(rank)`.
struct LockBindingSite {
  std::string name;  ///< mutex member name.
  std::string rank;  ///< rank name (validated against the registry later).
  size_t line = 0;
};

/// Every rank-binding site in one file, in token order. The driver merges
/// these into Config::lock_bindings, flagging (under `lock-registry`) names
/// bound to two different ranks and ranks the registry does not declare.
std::vector<LockBindingSite> CollectLockBindings(const std::string& contents);

/// Runs every per-file rule on one source file. `repo_relative_path` selects
/// the scope-sensitive rules (IO/new/wall-clock bans apply under src/ only;
/// header-guard canonicalization strips the leading src/). `// NOLINT(id)`
/// and `// NOLINT(id1,id2)` on the finding's line suppress it; a NOLINT that
/// suppresses nothing is itself reported as `stale-nolint`.
std::vector<Finding> CheckFile(const std::string& repo_relative_path,
                               const std::string& contents,
                               const Config& config);

/// Span names this file opens via `Span("name")` / `Span x("name")`.
/// Used for the span-registry staleness pass over src/.
std::set<std::string> UsedSpans(const std::string& contents);

/// spans.def entries nothing in src/ opens any more (`span-registry-stale`,
/// reported against the registry file).
std::vector<Finding> CheckSpanRegistryStaleness(
    const std::string& spans_def_path, const Config& config,
    const std::set<std::string>& used_in_src);

/// lock_order.def entries no mutex in src/ binds any more
/// (`lock-registry-stale`, reported against the registry file).
std::vector<Finding> CheckLockRegistryStaleness(
    const std::string& locks_def_path, const Config& config,
    const std::set<std::string>& bound_in_src);

/// "file:line: rule-id: message" (the gate's output format).
std::string FormatFinding(const Finding& finding);

/// One finding as a JSON object: {"file":...,"line":N,"rule":...,
/// "message":...} — the `--format=json` record shape.
std::string FormatFindingJson(const Finding& finding);

}  // namespace eadrl::lint

#endif  // EADRL_TOOLS_LINT_LINT_H_
