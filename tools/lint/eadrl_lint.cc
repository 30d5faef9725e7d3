// eadrl_lint driver: walks the tree, runs every rule in tools/lint/lint.cc,
// prints `file:line: rule-id: message` per finding, exits nonzero if any.
//
// Usage:
//   eadrl_lint --root <repo-root> [--spans <spans.def>]
//              [--locks <lock_order.def>]
//              [--format=text|json] [dir...]
//   eadrl_lint --list-rules
//
// Default dirs: src tests bench tools examples. Directories named
// `lint_fixtures` are skipped — they hold intentionally-bad inputs for
// tests/lint_selftest.cc.
//
// The lock rules need a repo-global view: ranked mutex member names must be
// unique across src/, so the driver first collects every binding site
// (CollectLockBindings) into one name -> rank map, flagging conflicts and
// unknown ranks, then runs the per-file checks against that map.

#include "tools/lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

std::string ReadAll(const fs::path& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return {};
  }
  std::ostringstream os;
  os << in.rdbuf();
  *ok = true;
  return os.str();
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".hpp";
}

std::string RepoRelative(const fs::path& path, const fs::path& root) {
  return fs::relative(path, root).generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  fs::path spans_def;  // default: <root>/src/obs/spans.def
  fs::path locks_def;  // default: <root>/src/chk/lock_order.def
  bool json = false;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& [id, what] : eadrl::lint::RuleCatalog()) {
        std::cout << id << ": " << what << "\n";
      }
      return 0;
    }
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--spans" && i + 1 < argc) {
      spans_def = argv[++i];
    } else if (arg == "--locks" && i + 1 < argc) {
      locks_def = argv[++i];
    } else if (arg == "--format" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value != "text" && value != "json") {
        std::cerr << "eadrl_lint: unknown format " << value << "\n";
        return 2;
      }
      json = value == "json";
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string value = arg.substr(9);
      if (value != "text" && value != "json") {
        std::cerr << "eadrl_lint: unknown format " << value << "\n";
        return 2;
      }
      json = value == "json";
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "eadrl_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "tests", "bench", "tools", "examples"};
  if (spans_def.empty()) spans_def = root / "src" / "obs" / "spans.def";
  if (locks_def.empty()) locks_def = root / "src" / "chk" / "lock_order.def";

  std::vector<eadrl::lint::Finding> findings;
  eadrl::lint::Config config;
  bool spans_ok = false;
  const std::string spans_contents = ReadAll(spans_def, &spans_ok);
  if (spans_ok) {
    config.registered_spans = eadrl::lint::ParseSpansDef(
        RepoRelative(spans_def, root), spans_contents, &findings);
    config.have_spans_registry = true;
  } else {
    std::cerr << "eadrl_lint: warning: no span registry at " << spans_def
              << "; span-registry rules disabled\n";
  }
  bool locks_ok = false;
  const std::string locks_contents = ReadAll(locks_def, &locks_ok);
  if (locks_ok) {
    config.registered_locks = eadrl::lint::ParseLockOrderDef(
        RepoRelative(locks_def, root), locks_contents, &findings,
        &config.lock_order);
    config.have_lock_registry = true;
  } else {
    std::cerr << "eadrl_lint: warning: no lock registry at " << locks_def
              << "; lock rules disabled\n";
  }

  // Deterministic order: collect, then sort.
  std::vector<fs::path> files;
  for (const std::string& dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && IsSourceFile(it->path())) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());

  // Pass 1: read everything once; merge ranked-mutex bindings across src/
  // into the repo-global name -> rank map the lock-order rule matches
  // against. A name bound to two different ranks would make the terminal-
  // identifier match ambiguous, so it is a finding, not a silent pick.
  std::vector<std::pair<std::string, std::string>> sources;  // rel, contents
  sources.reserve(files.size());
  for (const fs::path& file : files) {
    bool ok = false;
    std::string contents = ReadAll(file, &ok);
    if (!ok) {
      std::cerr << "eadrl_lint: cannot read " << file << "\n";
      return 2;
    }
    sources.emplace_back(RepoRelative(file, root), std::move(contents));
  }
  struct BindingHome {
    std::string rank;
    std::string file;
    size_t line;
  };
  std::map<std::string, BindingHome> bindings;
  std::set<std::string> bound_ranks;
  if (config.have_lock_registry) {
    for (const auto& [rel, contents] : sources) {
      if (rel.rfind("src/", 0) != 0) continue;
      for (const eadrl::lint::LockBindingSite& site :
           eadrl::lint::CollectLockBindings(contents)) {
        bound_ranks.insert(site.rank);
        const auto [it, inserted] =
            bindings.emplace(site.name, BindingHome{site.rank, rel, site.line});
        if (!inserted && it->second.rank != site.rank) {
          findings.push_back(
              {rel, site.line, "lock-registry",
               "mutex member '" + site.name + "' is bound to rank " +
                   site.rank + " here but to rank " + it->second.rank +
                   " at " + it->second.file + ":" +
                   std::to_string(it->second.line) +
                   "; ranked member names must be repo-unique"});
        }
      }
    }
    for (const auto& [name, home] : bindings) {
      config.lock_bindings.emplace(name, home.rank);
    }
  }

  std::set<std::string> spans_in_scope;
  size_t scanned = 0;
  for (const auto& [rel, contents] : sources) {
    ++scanned;
    std::vector<eadrl::lint::Finding> file_findings =
        eadrl::lint::CheckFile(rel, contents, config);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
    // Span usage counts from src/ and tools/ — both are held to the
    // registry, so both keep a spans.def entry alive.
    if (rel.rfind("src/", 0) == 0 || rel.rfind("tools/", 0) == 0) {
      const std::set<std::string> spans = eadrl::lint::UsedSpans(contents);
      spans_in_scope.insert(spans.begin(), spans.end());
    }
  }
  if (config.have_spans_registry) {
    std::vector<eadrl::lint::Finding> stale =
        eadrl::lint::CheckSpanRegistryStaleness(RepoRelative(spans_def, root),
                                                config, spans_in_scope);
    findings.insert(findings.end(), stale.begin(), stale.end());
  }
  if (config.have_lock_registry) {
    std::vector<eadrl::lint::Finding> stale =
        eadrl::lint::CheckLockRegistryStaleness(RepoRelative(locks_def, root),
                                                config, bound_ranks);
    findings.insert(findings.end(), stale.begin(), stale.end());
  }

  if (json) {
    std::cout << "[";
    for (size_t i = 0; i < findings.size(); ++i) {
      std::cout << (i == 0 ? "\n  " : ",\n  ")
                << eadrl::lint::FormatFindingJson(findings[i]);
    }
    std::cout << (findings.empty() ? "]\n" : "\n]\n");
  } else {
    for (const eadrl::lint::Finding& finding : findings) {
      std::cout << eadrl::lint::FormatFinding(finding) << "\n";
    }
  }
  if (!findings.empty()) {
    std::cerr << "eadrl_lint: " << findings.size() << " finding(s) in "
              << scanned << " file(s)\n";
    return 1;
  }
  std::cerr << "eadrl_lint: clean (" << scanned << " files)\n";
  return 0;
}
