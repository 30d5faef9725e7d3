#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/string_util.h"

namespace eadrl::lint {
namespace {

// ---------------------------------------------------------------------------
// Lexer. Produces a token stream (identifiers / numbers / string and char
// literals / punctuation), a per-line comment map, and the list of
// preprocessor directives. Comments and literal *contents* never reach the
// token-matching rules, so a string mentioning "rand()" cannot trip a ban.
// Handles //, /* */, "..." with escapes, '...' with escapes, and raw strings
// R"delim(...)delim". Line numbers are 1-based.
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kCharLit, kPunct };

struct Token {
  TokKind kind;
  std::string text;  // literals keep their quoted content for the span rule.
  size_t line = 0;
};

struct Directive {
  std::string text;  // directive body after '#', comments stripped.
  size_t line = 0;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::map<size_t, std::string> comments;  // line -> concatenated comment text
  std::vector<Directive> directives;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  LexedFile Run() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        at_line_start_ = true;
        ++pos_;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;
        continue;
      }
      if (c == '/' && Peek(1) == '/') {
        LexLineComment();
        continue;
      }
      if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
        continue;
      }
      if (c == '#' && at_line_start_) {
        LexDirective();
        continue;
      }
      at_line_start_ = false;
      if (c == 'R' && Peek(1) == '"') {
        LexRawString();
        continue;
      }
      if (c == '"') {
        LexString();
        continue;
      }
      if (c == '\'' && !PrecededByDigit()) {
        LexCharLit();
        continue;
      }
      if (IsIdentStart(c)) {
        LexIdent();
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        LexNumber();
        continue;
      }
      out_.tokens.push_back({TokKind::kPunct, std::string(1, c), line_});
      ++pos_;
    }
    return std::move(out_);
  }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  // Digit separators aside, a ' right after an alnum inside a number (1'000)
  // is not a char literal.
  bool PrecededByDigit() const {
    return pos_ > 0 && std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }

  void AddComment(size_t line, const std::string& chunk) {
    std::string& slot = out_.comments[line];
    if (!slot.empty()) slot += ' ';
    slot += chunk;
  }

  void LexLineComment() {
    pos_ += 2;
    std::string chunk;
    while (pos_ < text_.size() && text_[pos_] != '\n') {
      // A backslash-newline continues a // comment onto the next line.
      if (text_[pos_] == '\\' && Peek(1) == '\n') {
        AddComment(line_, chunk);
        chunk.clear();
        pos_ += 2;
        ++line_;
        continue;
      }
      chunk += text_[pos_++];
    }
    AddComment(line_, chunk);
  }

  void LexBlockComment() {
    pos_ += 2;
    std::string chunk;
    while (pos_ < text_.size()) {
      if (text_[pos_] == '*' && Peek(1) == '/') {
        pos_ += 2;
        break;
      }
      if (text_[pos_] == '\n') {
        AddComment(line_, chunk);
        chunk.clear();
        ++line_;
        ++pos_;
        continue;
      }
      chunk += text_[pos_++];
    }
    AddComment(line_, chunk);
  }

  void LexDirective() {
    const size_t start_line = line_;
    ++pos_;  // consume '#'
    std::string body;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') break;
      if (c == '\\' && Peek(1) == '\n') {  // continuation
        body += ' ';
        pos_ += 2;
        ++line_;
        continue;
      }
      if (c == '/' && Peek(1) == '/') {
        LexLineComment();
        break;
      }
      if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
        body += ' ';
        continue;
      }
      body += c;
      ++pos_;
    }
    out_.directives.push_back({body, start_line});
    at_line_start_ = false;
  }

  void LexString() {
    const size_t start_line = line_;
    ++pos_;  // opening quote
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        value += text_[pos_];
        value += text_[pos_ + 1];
        pos_ += 2;
        continue;
      }
      if (text_[pos_] == '\n') ++line_;  // unterminated; keep line count sane
      value += text_[pos_++];
    }
    if (pos_ < text_.size()) ++pos_;  // closing quote
    out_.tokens.push_back({TokKind::kString, value, start_line});
  }

  void LexRawString() {
    const size_t start_line = line_;
    pos_ += 2;  // R"
    std::string delim;
    while (pos_ < text_.size() && text_[pos_] != '(') delim += text_[pos_++];
    if (pos_ < text_.size()) ++pos_;  // '('
    const std::string closer = ")" + delim + "\"";
    std::string value;
    while (pos_ < text_.size() && text_.compare(pos_, closer.size(), closer) != 0) {
      if (text_[pos_] == '\n') ++line_;
      value += text_[pos_++];
    }
    pos_ = std::min(text_.size(), pos_ + closer.size());
    out_.tokens.push_back({TokKind::kString, value, start_line});
  }

  void LexCharLit() {
    const size_t start_line = line_;
    ++pos_;
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '\'') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        value += text_[pos_];
        value += text_[pos_ + 1];
        pos_ += 2;
        continue;
      }
      if (text_[pos_] == '\n') break;  // unterminated
      value += text_[pos_++];
    }
    if (pos_ < text_.size() && text_[pos_] == '\'') ++pos_;
    out_.tokens.push_back({TokKind::kCharLit, value, start_line});
  }

  void LexIdent() {
    const size_t start = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    std::string word = text_.substr(start, pos_ - start);
    // Encoding-prefixed strings (u8"...", L"...") lex as ident + string;
    // that is fine for every rule here.
    out_.tokens.push_back({TokKind::kIdent, std::move(word), line_});
  }

  void LexNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (IsIdentChar(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == '\'' ||
            ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E' ||
              text_[pos_ - 1] == 'p' || text_[pos_ - 1] == 'P')))) {
      ++pos_;
    }
    out_.tokens.push_back(
        {TokKind::kNumber, text_.substr(start, pos_ - start), line_});
  }

  const std::string& text_;
  size_t pos_ = 0;
  size_t line_ = 1;
  bool at_line_start_ = true;
  LexedFile out_;
};

// ---------------------------------------------------------------------------
// Path helpers.
// ---------------------------------------------------------------------------

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// src/nn/dense.h -> EADRL_NN_DENSE_H_ (the leading src/ is dropped so guards
// match the include path; other roots — tests/, bench/, tools/ — keep theirs).
std::string CanonicalGuard(const std::string& repo_relative_path) {
  std::string trimmed = repo_relative_path;
  if (StartsWith(trimmed, "src/")) trimmed = trimmed.substr(4);
  std::string guard = "EADRL_";
  for (char c : trimmed) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

// Extracts `"path"` or `<path>` from an include directive body.
bool ParseIncludeTarget(const std::string& directive, std::string* target,
                        bool* angled) {
  size_t i = 0;
  while (i < directive.size() &&
         std::isspace(static_cast<unsigned char>(directive[i]))) {
    ++i;
  }
  if (directive.compare(i, 7, "include") != 0) return false;
  i += 7;
  while (i < directive.size() &&
         std::isspace(static_cast<unsigned char>(directive[i]))) {
    ++i;
  }
  if (i >= directive.size()) return false;
  const char open = directive[i];
  const char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
  if (close == '\0') return false;
  const size_t end = directive.find(close, i + 1);
  if (end == std::string::npos) return false;
  *target = directive.substr(i + 1, end - i - 1);
  *angled = open == '<';
  return true;
}

// ---------------------------------------------------------------------------
// Suppression handling. A comment that *begins* with the marker — the
// trailing-comment idiom `code;  // NOLINT(rule-id): reason` — suppresses
// matching findings on its line; prose that merely mentions the marker
// mid-sentence (like this paragraph) is ignored. Any suppression that
// suppressed nothing (or names an unknown rule) becomes a stale-nolint
// finding.
// ---------------------------------------------------------------------------

struct Suppression {
  size_t line;
  std::string rule;
  bool used = false;
};

std::vector<Suppression> ParseSuppressions(
    const std::map<size_t, std::string>& comments,
    std::vector<Finding>* findings, const std::string& file) {
  std::vector<Suppression> out;
  for (const auto& [line, text] : comments) {
    const size_t at = text.find_first_not_of(" \t");
    if (at == std::string::npos || text.compare(at, 6, "NOLINT") != 0) {
      continue;
    }
    const size_t open = at + 6;
    if (open >= text.size() || text[open] != '(') {
      findings->push_back({file, line, "stale-nolint",
                           "bare NOLINT is not honored; use "
                           "NOLINT(rule-id) so the suppression is scoped"});
      continue;
    }
    const size_t close = text.find(')', open);
    if (close == std::string::npos) {
      findings->push_back(
          {file, line, "stale-nolint", "unterminated NOLINT(...) list"});
      continue;
    }
    std::stringstream ids(text.substr(open + 1, close - open - 1));
    std::string id;
    while (std::getline(ids, id, ',')) {
      const size_t first = id.find_first_not_of(" \t");
      const size_t last = id.find_last_not_of(" \t");
      if (first == std::string::npos) continue;
      out.push_back({line, id.substr(first, last - first + 1), false});
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

const std::map<std::string, std::string>& RuleCatalog() {
  static const std::map<std::string, std::string> kCatalog = {
      {"banned-rand",
       "rand()/srand() break run-to-run determinism; use eadrl::common::Rng"},
      {"banned-io",
       "std::cout/printf in src/; route output through EADRL_LOG or eadrl::obs"},
      {"naked-new",
       "naked new in src/; use std::make_unique/std::vector (allocator and "
       "intentional-leak singletons carry NOLINT)"},
      {"naked-delete",
       "naked delete in src/; ownership belongs to smart pointers"},
      {"wall-clock",
       "wall-clock reads outside src/common//src/obs; keep domain code "
       "date-free for determinism"},
      {"include-bits",
       "#include <bits/...> is libstdc++-internal and non-portable"},
      {"include-self-first",
       "a .cc must include its own header first to prove it is self-contained"},
      {"header-guard",
       "header guards must match the canonical EADRL_<PATH>_H_ form"},
      {"span-registry",
       "trace span names in src/ and tools/ must be declared in "
       "src/obs/spans.def"},
      {"span-registry-stale",
       "spans.def entry that nothing in src/ or tools/ opens any more"},
      {"todo-tag",
       "TODO/FIXME comments must carry an owner or issue tag: TODO(tag): ..."},
      {"transpose-matmul",
       "Transpose().MatMul/MatVec chains in src/ materialize the transpose; "
       "use the fused MatMulTransposeA/B / TransposeMatVec kernels"},
      {"guarded-by",
       "std:: container members of a mutex-bearing class in src/{serve,par,"
       "obs,core} must carry EADRL_GUARDED_BY(mu) or an explicit "
       "EADRL_UNGUARDED, and every EADRL_GUARDED_BY must name a sibling "
       "mutex"},
      {"requires-self-lock",
       "a function annotated EADRL_REQUIRES(mu) must not acquire mu itself; "
       "the caller already holds it"},
      {"lock-order",
       "scoped lock acquisitions must respect the rank order declared in "
       "src/chk/lock_order.def (a held lock's rank caps what may be taken)"},
      {"lock-registry",
       "ranked-mutex bindings (EADRL_LOCK_RANK / EADRL_LOCK_ORDERED) must "
       "name a rank declared in src/chk/lock_order.def, one rank per "
       "repo-unique member name"},
      {"lock-registry-stale",
       "lock_order.def entry that no mutex in src/ binds any more"},
      {"stale-nolint",
       "NOLINT suppression that no longer suppresses any finding"},
  };
  return kCatalog;
}

namespace {

// Shared skeleton of the X-macro registries (spans.def / lock_order.def):
// MACRO(name, "description") entries, one per line, duplicates and malformed
// entries reported under `rule`.
std::map<std::string, size_t> ParseRegistryDef(const std::string& macro,
                                               const std::string& rule,
                                               const std::string& path,
                                               const std::string& contents,
                                               std::vector<Finding>* findings,
                                               std::vector<std::string>* order =
                                                   nullptr) {
  std::map<std::string, size_t> names;
  LexedFile lexed = Lexer(contents).Run();
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != macro) {
      continue;
    }
    if (i + 2 >= toks.size() || toks[i + 1].text != "(" ||
        toks[i + 2].kind != TokKind::kIdent) {
      if (findings != nullptr) {
        findings->push_back({path, toks[i].line, rule,
                             "malformed " + macro + " entry; expected " +
                                 macro + "(name, \"description\")"});
      }
      continue;
    }
    const Token& name = toks[i + 2];
    if (names.count(name.text) != 0) {
      if (findings != nullptr) {
        findings->push_back({path, name.line, rule,
                             "duplicate registry entry '" + name.text + "'"});
      }
    } else if (order != nullptr) {
      order->push_back(name.text);
    }
    names.emplace(name.text, name.line);
  }
  return names;
}

// Returns the index of the span-name string literal for a `Span` use
// starting at token `i` (`Span("name")` or `Span var("name")`), or npos.
// Declarations (`Span(const char* name)`), pointers (`Span* tl_active`) and
// the class definition never have a string in that slot, so they don't match.
size_t SpanNameLiteral(const std::vector<Token>& toks, size_t i) {
  if (toks[i].kind != TokKind::kIdent || toks[i].text != "Span") {
    return std::string::npos;
  }
  if (i + 2 < toks.size() && toks[i + 1].kind == TokKind::kPunct &&
      toks[i + 1].text == "(" && toks[i + 2].kind == TokKind::kString) {
    return i + 2;
  }
  if (i + 3 < toks.size() && toks[i + 1].kind == TokKind::kIdent &&
      toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "(" &&
      toks[i + 3].kind == TokKind::kString) {
    return i + 3;
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Lock discipline: a light structural pass over the token stream. Class
// bodies are parsed just far enough to bind annotated members to their
// sibling mutexes (guarded-by), EADRL_REQUIRES-annotated bodies are scanned
// for self-acquisition, and scoped-lock acquisitions are checked against the
// rank order declared in src/chk/lock_order.def. The runtime counterpart is
// chk::LockTracker (src/chk/lockdep.h).
// ---------------------------------------------------------------------------

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// `i` at the opening token; returns the index just past the matching closer
// (or toks.size() when unbalanced).
size_t SkipGroup(const std::vector<Token>& toks, size_t i, const char* open,
                 const char* close) {
  size_t depth = 0;
  for (; i < toks.size(); ++i) {
    if (IsPunct(toks[i], open)) {
      ++depth;
    } else if (IsPunct(toks[i], close) && --depth == 0) {
      return i + 1;
    }
  }
  return i;
}

// Last identifier in [begin, end): the terminal identifier of an expression
// like `shard.stripe_mu` or `session->session_mu` (member names are
// repo-unique for ranked mutexes, so the terminal identifier is the binding
// key).
std::string TerminalIdent(const std::vector<Token>& toks, size_t begin,
                          size_t end) {
  std::string last;
  for (size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent) last = toks[i].text;
  }
  return last;
}

struct Acquisition {
  std::string mutex;  ///< terminal identifier of the locked expression.
  size_t line = 0;
};

// If toks[i] starts a scoped-lock construction — `lock_guard<...> g(expr)`,
// a `unique_lock<...>(expr)` temporary, `scoped_lock g(a, b)` — appends one
// Acquisition per locked argument and returns the index just past the
// closing ')'. Returns i + 1 when toks[i] starts no acquisition. A guard
// *declaration* without arguments (deferred unique_lock member) is not an
// acquisition.
size_t MatchScopedAcquisition(const std::vector<Token>& toks, size_t i,
                              std::vector<Acquisition>* out) {
  const Token& t = toks[i];
  if (t.kind != TokKind::kIdent) return i + 1;
  const bool multi = t.text == "scoped_lock";
  if (!multi && t.text != "lock_guard" && t.text != "unique_lock" &&
      t.text != "shared_lock") {
    return i + 1;
  }
  size_t j = i + 1;
  if (j < toks.size() && IsPunct(toks[j], "<")) {
    j = SkipGroup(toks, j, "<", ">");
  }
  if (j < toks.size() && toks[j].kind == TokKind::kIdent) ++j;  // guard name
  if (j >= toks.size() || !IsPunct(toks[j], "(")) return i + 1;
  const size_t past = SkipGroup(toks, j, "(", ")");
  const size_t close = past - 1;  // index of ')'
  std::vector<std::pair<size_t, size_t>> args;
  size_t depth = 0;
  size_t arg_begin = j + 1;
  for (size_t k = j + 1; k < close; ++k) {
    if (IsPunct(toks[k], "(") || IsPunct(toks[k], "{") ||
        IsPunct(toks[k], "[")) {
      ++depth;
    } else if (IsPunct(toks[k], ")") || IsPunct(toks[k], "}") ||
               IsPunct(toks[k], "]")) {
      if (depth > 0) --depth;
    } else if (IsPunct(toks[k], ",") && depth == 0) {
      args.emplace_back(arg_begin, k);
      arg_begin = k + 1;
    }
  }
  if (arg_begin < close) args.emplace_back(arg_begin, close);
  if (args.empty()) return past;
  // lock_guard/unique_lock/shared_lock take the mutex first (any further
  // args are adopt/defer tags); scoped_lock locks every argument.
  if (!multi) args.resize(1);
  for (const auto& [b, e] : args) {
    const std::string name = TerminalIdent(toks, b, e);
    if (!name.empty()) out->push_back({name, toks[b].line});
  }
  return past;
}

// --- guarded-by: minimal class-body parse --------------------------------

struct ParsedMember {
  std::string name;
  size_t line = 0;
  bool is_mutex = false;      ///< by-value std::mutex or OrderedMutex.
  bool is_container = false;  ///< by-value std:: container.
  bool has_guarded_by = false;
  std::string guarded_by;  ///< terminal identifier of the annotation arg.
  bool unguarded = false;  ///< carries the EADRL_UNGUARDED marker.
};

struct ParsedClass {
  std::string name;
  size_t line = 0;
  std::vector<ParsedMember> members;
  std::vector<ParsedClass> nested;
};

const std::set<std::string>& ContainerTypes() {
  static const std::set<std::string> kTypes = {
      "vector", "deque", "list",          "map",
      "set",    "string", "unordered_map", "unordered_set"};
  return kTypes;
}

// One class-body member statement (tokens between ';' boundaries, brace
// groups elided): record it if it declares a by-value mutex / std::
// container member or carries a guard annotation. Function declarations are
// rejected by the `(`-follows-the-name test; parameters never match because
// only paren-depth-0 tokens are considered.
void FlushMemberStatement(const std::vector<Token>& toks,
                          const std::vector<size_t>& stmt, ParsedClass* cls) {
  if (stmt.empty()) return;
  const std::string& first = toks[stmt[0]].text;
  if (first == "using" || first == "typedef" || first == "friend" ||
      first == "template" || first == "static_assert" || first == "static" ||
      first == "enum" || first == "operator") {
    return;
  }
  ParsedMember member;
  size_t anno_at = stmt.size();
  for (size_t k = 0; k < stmt.size(); ++k) {
    const Token& t = toks[stmt[k]];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "EADRL_UNGUARDED") member.unguarded = true;
    if (t.text == "EADRL_GUARDED_BY" && k + 2 < stmt.size() &&
        IsPunct(toks[stmt[k + 1]], "(")) {
      size_t depth = 1;
      size_t end = k + 2;
      while (end < stmt.size() && depth > 0) {
        if (IsPunct(toks[stmt[end]], "(")) ++depth;
        if (IsPunct(toks[stmt[end]], ")")) --depth;
        ++end;
      }
      for (size_t a = k + 2; a + 1 < end; ++a) {
        if (toks[stmt[a]].kind == TokKind::kIdent) {
          member.guarded_by = toks[stmt[a]].text;
        }
      }
      member.has_guarded_by = true;
      member.line = t.line;
      anno_at = k;
    }
  }
  size_t paren = 0;
  for (size_t k = 0; k < stmt.size(); ++k) {
    const Token& t = toks[stmt[k]];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") ++paren;
      if (t.text == ")" && paren > 0) --paren;
      continue;
    }
    if (paren != 0 || t.kind != TokKind::kIdent) continue;
    const bool std_qualified = k >= 3 && IsPunct(toks[stmt[k - 1]], ":") &&
                               IsPunct(toks[stmt[k - 2]], ":") &&
                               toks[stmt[k - 3]].text == "std";
    const bool is_mutex_type =
        (std_qualified && t.text == "mutex") || t.text == "OrderedMutex";
    const bool is_container_type =
        std_qualified && ContainerTypes().count(t.text) != 0;
    if (!is_mutex_type && !is_container_type) continue;
    size_t j = k + 1;
    if (j < stmt.size() && IsPunct(toks[stmt[j]], "<")) {
      size_t angle = 1;
      ++j;
      while (j < stmt.size() && angle > 0) {
        if (IsPunct(toks[stmt[j]], "<")) ++angle;
        if (IsPunct(toks[stmt[j]], ">")) --angle;
        ++j;
      }
    }
    if (j < stmt.size() &&
        (IsPunct(toks[stmt[j]], "*") || IsPunct(toks[stmt[j]], "&"))) {
      continue;  // pointer/reference: pt_guarded_by territory, not enforced.
    }
    if (j >= stmt.size() || toks[stmt[j]].kind != TokKind::kIdent) continue;
    if (j + 1 < stmt.size() && IsPunct(toks[stmt[j + 1]], "(")) {
      continue;  // function declaration returning the type.
    }
    member.name = toks[stmt[j]].text;
    member.line = toks[stmt[j]].line;
    member.is_mutex = is_mutex_type;
    member.is_container = is_container_type;
    break;
  }
  if (member.name.empty()) {
    if (!member.has_guarded_by) return;
    // Annotated non-container member (a guarded counter): keep it so the
    // named mutex is still validated. Its name is the identifier right
    // before the annotation.
    paren = 0;
    for (size_t k = 0; k < anno_at; ++k) {
      const Token& t = toks[stmt[k]];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") ++paren;
        if (t.text == ")" && paren > 0) --paren;
        continue;
      }
      if (paren == 0 && t.kind == TokKind::kIdent) member.name = t.text;
    }
    if (member.name.empty()) return;
  }
  cls->members.push_back(std::move(member));
}

size_t ParseClassBody(const std::vector<Token>& toks, size_t i,
                      ParsedClass* cls);

// `i` at a `class`/`struct` keyword. Parses the head (skipping attribute
// macros, `final`, template args and the base clause), then the body when
// one follows; forward declarations are consumed without output. Returns the
// index just past what was consumed.
size_t ParseClassAt(const std::vector<Token>& toks, size_t i,
                    std::vector<ParsedClass>* out) {
  const size_t line = toks[i].line;
  std::string name;
  size_t j = i + 1;
  while (j < toks.size()) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kIdent) {
      if (j + 1 < toks.size() && IsPunct(toks[j + 1], "(")) {
        j = SkipGroup(toks, j + 1, "(", ")");  // attribute macro.
        continue;
      }
      if (t.text != "final" && t.text != "alignas") name = t.text;
      ++j;
      continue;
    }
    if (IsPunct(t, "<")) {
      j = SkipGroup(toks, j, "<", ">");
      continue;
    }
    if (IsPunct(t, ";")) return j + 1;  // forward declaration.
    if (IsPunct(t, ":")) {
      ++j;  // base clause: scan to the body's '{'.
      while (j < toks.size() && !IsPunct(toks[j], "{") &&
             !IsPunct(toks[j], ";")) {
        if (IsPunct(toks[j], "<")) {
          j = SkipGroup(toks, j, "<", ">");
          continue;
        }
        ++j;
      }
      continue;
    }
    if (IsPunct(t, "{")) {
      ParsedClass cls;
      cls.name = name.empty() ? "(anonymous)" : name;
      cls.line = line;
      j = ParseClassBody(toks, j + 1, &cls);
      out->push_back(std::move(cls));
      return j;
    }
    return j + 1;  // `struct tm* t` and other non-definitions: bail out.
  }
  return j;
}

// `i` just past the body's '{'. Splits direct members into statements,
// recurses into nested classes, elides brace groups (a brace group preceded
// by a top-level paren group is a function body and ends the statement; one
// without is a brace initializer and the statement continues to ';').
// Returns the index just past the matching '}'.
size_t ParseClassBody(const std::vector<Token>& toks, size_t i,
                      ParsedClass* cls) {
  std::vector<size_t> stmt;
  bool stmt_has_paren = false;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "}") {
        FlushMemberStatement(toks, stmt, cls);
        return i + 1;
      }
      if (t.text == ";") {
        FlushMemberStatement(toks, stmt, cls);
        stmt.clear();
        stmt_has_paren = false;
        ++i;
        continue;
      }
      if (t.text == "(") {
        const size_t end = SkipGroup(toks, i, "(", ")");
        for (size_t k = i; k < end; ++k) stmt.push_back(k);
        stmt_has_paren = true;
        i = end;
        continue;
      }
      if (t.text == "{") {
        const size_t end = SkipGroup(toks, i, "{", "}");
        if (stmt_has_paren) {
          // Function body: the statement ends here (no ';' follows).
          FlushMemberStatement(toks, stmt, cls);
          stmt.clear();
          stmt_has_paren = false;
        }
        // Otherwise a brace initializer: skip its contents, the member
        // statement continues to its ';'.
        i = end;
        continue;
      }
      stmt.push_back(i);
      ++i;
      continue;
    }
    if (t.kind == TokKind::kIdent) {
      if ((t.text == "public" || t.text == "private" ||
           t.text == "protected") &&
          i + 1 < toks.size() && IsPunct(toks[i + 1], ":")) {
        stmt.clear();
        stmt_has_paren = false;
        i += 2;
        continue;
      }
      if ((t.text == "class" || t.text == "struct") && stmt.empty()) {
        i = ParseClassAt(toks, i, &cls->nested);
        continue;
      }
    }
    stmt.push_back(i);
    ++i;
  }
  FlushMemberStatement(toks, stmt, cls);
  return i;
}

std::vector<ParsedClass> ParseClasses(const std::vector<Token>& toks) {
  std::vector<ParsedClass> out;
  size_t i = 0;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kIdent && (t.text == "class" || t.text == "struct")) {
      const Token* prev = i == 0 ? nullptr : &toks[i - 1];
      const bool excluded =
          prev != nullptr &&
          (prev->text == "enum" || prev->text == "friend" ||
           prev->text == "<" || prev->text == ",");
      if (!excluded) {
        i = ParseClassAt(toks, i, &out);
        continue;
      }
    }
    ++i;
  }
  return out;
}

// Nested classes see the enclosing class's mutexes (a nested Shard's members
// may be guarded by its own stripe lock or by the owner's), but the
// annotate-or-opt-out obligation only applies to classes that directly
// declare a mutex — a plain nested data holder (a queue's Task) stays free.
void EvaluateClassLockDiscipline(const ParsedClass& cls,
                                 const std::set<std::string>& enclosing,
                                 bool enforce, const std::string& path,
                                 std::vector<Finding>* findings) {
  std::set<std::string> own;
  for (const ParsedMember& m : cls.members) {
    if (m.is_mutex) own.insert(m.name);
  }
  std::set<std::string> visible = enclosing;
  visible.insert(own.begin(), own.end());
  for (const ParsedMember& m : cls.members) {
    if (m.has_guarded_by && visible.count(m.guarded_by) == 0) {
      findings->push_back(
          {path, m.line, "guarded-by",
           "EADRL_GUARDED_BY(" + m.guarded_by + ") on '" + m.name +
               "' names no mutex member of '" + cls.name +
               "' or an enclosing class"});
    }
    if (enforce && m.is_container && !own.empty() && !m.has_guarded_by &&
        !m.unguarded) {
      findings->push_back(
          {path, m.line, "guarded-by",
           "container member '" + m.name + "' of mutex-bearing '" + cls.name +
               "' needs EADRL_GUARDED_BY(<mutex>) or an explicit "
               "EADRL_UNGUARDED"});
    }
  }
  for (const ParsedClass& nested : cls.nested) {
    EvaluateClassLockDiscipline(nested, visible, enforce, path, findings);
  }
}

// --- requires-self-lock ---------------------------------------------------

void CheckRequiresSelfLock(const std::string& path,
                           const std::vector<Token>& toks,
                           std::vector<Finding>* findings) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        toks[i].text != "EADRL_REQUIRES" || !IsPunct(toks[i + 1], "(")) {
      continue;
    }
    const size_t past_args = SkipGroup(toks, i + 1, "(", ")");
    std::set<std::string> required;
    size_t depth = 0;
    size_t arg_begin = i + 2;
    for (size_t k = i + 2; k + 1 < past_args; ++k) {
      if (IsPunct(toks[k], "(")) ++depth;
      if (IsPunct(toks[k], ")") && depth > 0) --depth;
      if (IsPunct(toks[k], ",") && depth == 0) {
        required.insert(TerminalIdent(toks, arg_begin, k));
        arg_begin = k + 1;
      }
    }
    if (arg_begin + 1 <= past_args) {
      const std::string last = TerminalIdent(toks, arg_begin, past_args - 1);
      if (!last.empty()) required.insert(last);
    }
    if (required.empty()) continue;
    // Find the body, when this declaration defines one in the same file:
    // skip trailing `const`/`override`/`noexcept` and further annotation
    // macros; a ';' (or anything else) means declaration-only.
    size_t j = past_args;
    while (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      if (j + 1 < toks.size() && IsPunct(toks[j + 1], "(")) {
        j = SkipGroup(toks, j + 1, "(", ")");
      } else {
        ++j;
      }
    }
    if (j >= toks.size() || !IsPunct(toks[j], "{")) continue;
    const size_t body_end = SkipGroup(toks, j, "{", "}");
    for (size_t k = j + 1; k + 1 < body_end; ++k) {
      std::vector<Acquisition> acqs;
      const size_t adv = MatchScopedAcquisition(toks, k, &acqs);
      for (const Acquisition& a : acqs) {
        if (required.count(a.mutex) != 0) {
          findings->push_back(
              {path, a.line, "requires-self-lock",
               "acquires '" + a.mutex + "' inside a function annotated "
               "EADRL_REQUIRES(" + a.mutex + "); the caller already holds "
               "it — locking again self-deadlocks"});
        }
      }
      if (adv > k + 1) {
        k = adv - 1;
        continue;
      }
      if (toks[k].kind == TokKind::kIdent &&
          (toks[k].text == "lock" || toks[k].text == "try_lock") &&
          k + 1 < body_end && IsPunct(toks[k + 1], "(") && k >= 2 &&
          IsPunct(toks[k - 1], ".") &&
          toks[k - 2].kind == TokKind::kIdent &&
          required.count(toks[k - 2].text) != 0) {
        findings->push_back(
            {path, toks[k].line, "requires-self-lock",
             "calls '" + toks[k - 2].text + "." + toks[k].text +
                 "()' inside a function annotated EADRL_REQUIRES(" +
                 toks[k - 2].text + "); the caller already holds it"});
      }
    }
  }
}

// --- lock-registry: rank names at binding sites ---------------------------

void CheckLockRankNames(const std::string& path,
                        const std::vector<Token>& toks, const Config& config,
                        std::vector<Finding>* findings) {
  if (!config.have_lock_registry) return;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "EADRL_LOCK_RANK" &&
         toks[i].text != "EADRL_LOCK_ORDERED") ||
        !IsPunct(toks[i + 1], "(") || toks[i + 2].kind != TokKind::kIdent) {
      continue;
    }
    const Token& rank = toks[i + 2];
    if (config.registered_locks.count(rank.text) == 0) {
      findings->push_back({path, rank.line, "lock-registry",
                           toks[i].text + " names rank '" + rank.text +
                               "' which src/chk/lock_order.def does not "
                               "declare"});
    }
  }
}

// --- lock-order: scoped acquisitions vs. the declared rank order ----------

void CheckLockOrderRule(const std::string& path,
                        const std::vector<Token>& toks, const Config& config,
                        std::vector<Finding>* findings) {
  if (!config.have_lock_registry || config.lock_bindings.empty()) return;
  std::map<std::string, size_t> rank_index;
  for (size_t r = 0; r < config.lock_order.size(); ++r) {
    rank_index.emplace(config.lock_order[r], r);
  }
  struct Held {
    std::string name;
    std::string rank;
    size_t index;
    size_t line;
    size_t depth;
  };
  std::vector<Held> held;
  size_t depth = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") {
        ++depth;
      } else if (t.text == "}") {
        if (depth > 0) --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    std::vector<Acquisition> acqs;
    const size_t adv = MatchScopedAcquisition(toks, i, &acqs);
    for (const Acquisition& a : acqs) {
      const auto bound = config.lock_bindings.find(a.mutex);
      if (bound == config.lock_bindings.end()) continue;  // unranked mutex.
      const auto idx = rank_index.find(bound->second);
      if (idx == rank_index.end()) continue;  // flagged by lock-registry.
      for (const Held& h : held) {
        // Same rank may nest (stripes, sessions) — the runtime tracker
        // enforces ascending address order there.
        if (h.index > idx->second) {
          findings->push_back(
              {path, a.line, "lock-order",
               "acquires '" + a.mutex + "' (rank " + bound->second +
                   ") while holding '" + h.name + "' (rank " + h.rank +
                   ", acquired line " + std::to_string(h.line) +
                   "); src/chk/lock_order.def declares " + bound->second +
                   " above " + h.rank +
                   " — release first, or fix the registry order"});
        }
      }
      held.push_back({a.mutex, bound->second, idx->second, a.line, depth});
    }
    if (adv > i + 1) i = adv - 1;
  }
}

}  // namespace

std::map<std::string, size_t> ParseSpansDef(const std::string& path,
                                            const std::string& contents,
                                            std::vector<Finding>* findings) {
  return ParseRegistryDef("EADRL_SPAN", "span-registry", path, contents,
                          findings);
}

std::map<std::string, size_t> ParseLockOrderDef(
    const std::string& path, const std::string& contents,
    std::vector<Finding>* findings, std::vector<std::string>* order) {
  return ParseRegistryDef("EADRL_LOCK", "lock-registry", path, contents,
                          findings, order);
}

std::vector<LockBindingSite> CollectLockBindings(const std::string& contents) {
  std::vector<LockBindingSite> out;
  LexedFile lexed = Lexer(contents).Run();
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    // chk::OrderedMutex name{EADRL_LOCK_RANK(rank), "site"} — brace or paren
    // initializer, the rank macro first.
    if (toks[i].text == "OrderedMutex" && toks[i + 1].kind == TokKind::kIdent &&
        i + 5 < toks.size() &&
        (IsPunct(toks[i + 2], "{") || IsPunct(toks[i + 2], "(")) &&
        toks[i + 3].text == "EADRL_LOCK_RANK" && IsPunct(toks[i + 4], "(") &&
        toks[i + 5].kind == TokKind::kIdent) {
      out.push_back({toks[i + 1].text, toks[i + 5].text, toks[i + 1].line});
    }
    // std::mutex name EADRL_LOCK_ORDERED(rank) — a plain mutex bound to a
    // rank for the static walk only (no OrderedMutex conversion).
    if (toks[i].text == "mutex" && toks[i + 1].kind == TokKind::kIdent &&
        i + 4 < toks.size() && toks[i + 2].text == "EADRL_LOCK_ORDERED" &&
        IsPunct(toks[i + 3], "(") && toks[i + 4].kind == TokKind::kIdent) {
      out.push_back({toks[i + 1].text, toks[i + 4].text, toks[i + 1].line});
    }
  }
  return out;
}

std::set<std::string> UsedSpans(const std::string& contents) {
  std::set<std::string> names;
  LexedFile lexed = Lexer(contents).Run();
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const size_t lit = SpanNameLiteral(toks, i);
    if (lit != std::string::npos) names.insert(toks[lit].text);
  }
  return names;
}

std::vector<Finding> CheckFile(const std::string& path,
                               const std::string& contents,
                               const Config& config) {
  std::vector<Finding> findings;
  LexedFile lexed = Lexer(contents).Run();
  const std::vector<Token>& toks = lexed.tokens;

  const bool in_src = StartsWith(path, "src/");
  // tools/ binaries share src/'s span namespace (their spans land in the
  // same profiler and traces), so the registry covers them too. Tests,
  // benchmarks and examples stay exempt.
  const bool in_tools = StartsWith(path, "tools/");
  const bool is_header = EndsWith(path, ".h") || EndsWith(path, ".hpp");
  // The logging/check/chk backends are the one place stdio is the product.
  const bool io_backend = in_src && (StartsWith(path, "src/common/") ||
                                     StartsWith(path, "src/chk/"));
  const bool clock_owner = StartsWith(path, "src/common/") ||
                           StartsWith(path, "src/obs/");

  auto Prev = [&toks](size_t i) -> const Token* {
    return i == 0 ? nullptr : &toks[i - 1];
  };
  auto Next = [&toks](size_t i) -> const Token* {
    return i + 1 < toks.size() ? &toks[i + 1] : nullptr;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const Token* next = Next(i);
    const Token* prev = Prev(i);
    const bool calls = next != nullptr && next->kind == TokKind::kPunct &&
                       next->text == "(";
    // Member access (x.rand(), x->time()) is someone else's API, not libc.
    const bool member =
        prev != nullptr && prev->kind == TokKind::kPunct &&
        (prev->text == "." || prev->text == ">" /* -> lexes as '-','>' */);

    if ((t.text == "rand" || t.text == "srand") && calls && !member) {
      findings.push_back({path, t.line, "banned-rand",
                          t.text + "() is banned: seedable-but-global PRNGs "
                          "break determinism; use eadrl::common::Rng"});
    }
    if (in_src && !io_backend) {
      if (t.text == "cout" || t.text == "cerr") {
        findings.push_back({path, t.line, "banned-io",
                            "std::" + t.text + " in src/; use EADRL_LOG or "
                            "the obs subsystem"});
      }
      if ((t.text == "printf" || t.text == "puts") && calls && !member) {
        findings.push_back({path, t.line, "banned-io",
                            t.text + "() in src/; use EADRL_LOG or the obs "
                            "subsystem"});
      }
    }
    if (in_src && t.text == "new") {
      findings.push_back({path, t.line, "naked-new",
                          "naked new; use std::make_unique / containers "
                          "(NOLINT(naked-new) for intentional-leak "
                          "singletons)"});
    }
    if (in_src && t.text == "delete") {
      const bool deleted_fn = prev != nullptr && prev->text == "=";
      const bool op_overload = prev != nullptr && prev->text == "operator";
      if (!deleted_fn && !op_overload) {
        findings.push_back({path, t.line, "naked-delete",
                            "naked delete; ownership belongs to smart "
                            "pointers"});
      }
    }
    if (in_src && !clock_owner) {
      if (t.text == "system_clock" || t.text == "gmtime" ||
          t.text == "localtime" || t.text == "strftime" || t.text == "ctime" ||
          (t.text == "time" && calls && !member)) {
        findings.push_back({path, t.line, "wall-clock",
                            "wall-clock read in domain code; call "
                            "common::UnixNowSeconds (src/common, src/obs own "
                            "the clock; steady_clock is fine for durations)"});
      }
    }
    // Materialized-transpose products: Transpose().MatMul(...) copies the
    // whole matrix just to feed a GEMM the fused kernels compute in place.
    // Hot-path (src/) only — tests and benches legitimately use the chain as
    // the reference the fused kernels are compared against.
    if (in_src && t.text == "Transpose" && calls && i + 4 < toks.size() &&
        toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == ")" &&
        toks[i + 3].kind == TokKind::kPunct && toks[i + 3].text == "." &&
        toks[i + 4].kind == TokKind::kIdent &&
        (toks[i + 4].text == "MatMul" || toks[i + 4].text == "MatVec")) {
      findings.push_back(
          {path, t.line, "transpose-matmul",
           "Transpose()." + toks[i + 4].text + " materializes the transpose; "
           "use " + (toks[i + 4].text == "MatMul"
                         ? std::string("MatMulTransposeA/B")
                         : std::string("TransposeMatVec")) +
               " instead"});
    }
    // Trace span names: Span("name") / Span var("name") constructions.
    if ((in_src || in_tools) && config.have_spans_registry) {
      const size_t lit = SpanNameLiteral(toks, i);
      if (lit != std::string::npos &&
          config.registered_spans.count(toks[lit].text) == 0) {
        findings.push_back({path, toks[lit].line, "span-registry",
                            "trace span '" + toks[lit].text +
                                "' is not declared in src/obs/spans.def"});
      }
    }
  }

  // --- Include rules -------------------------------------------------------
  struct Include {
    std::string target;
    size_t line;
    bool angled;
  };
  std::vector<Include> includes;
  for (const Directive& d : lexed.directives) {
    std::string target;
    bool angled = false;
    if (!ParseIncludeTarget(d.text, &target, &angled)) continue;
    includes.push_back({target, d.line, angled});
    if (StartsWith(target, "bits/")) {
      findings.push_back({path, d.line, "include-bits",
                          "#include <" + target + "> is libstdc++-internal; "
                          "include the standard header instead"});
    }
  }
  if (!is_header && EndsWith(path, ".cc")) {
    // If this .cc includes a header with its own basename, that include must
    // come first (proves the header is self-contained).
    const std::string self_header =
        Basename(path).substr(0, Basename(path).size() - 3) + ".h";
    for (size_t i = 1; i < includes.size(); ++i) {
      // Angled includes are never the self header — <sys/resource.h> is not
      // src/obs/resource.h even though the basenames collide.
      if (!includes[i].angled && Basename(includes[i].target) == self_header) {
        findings.push_back({path, includes[i].line, "include-self-first",
                            "self header \"" + includes[i].target +
                                "\" must be the first include"});
      }
    }
  }

  // --- Header guards -------------------------------------------------------
  if (is_header) {
    const std::string want = CanonicalGuard(path);
    bool guard_ok = false;
    for (const Directive& d : lexed.directives) {
      if (StartsWith(d.text, "pragma") &&
          d.text.find("once") != std::string::npos) {
        findings.push_back({path, d.line, "header-guard",
                            "#pragma once; this tree uses include guards (" +
                                want + ")"});
      }
    }
    if (lexed.directives.size() >= 2 &&
        lexed.directives[0].text == "ifndef " + want &&
        StartsWith(lexed.directives[1].text, "define " + want)) {
      guard_ok = true;
    }
    if (!guard_ok) {
      findings.push_back({path, 1, "header-guard",
                          "missing or non-canonical include guard; want "
                          "#ifndef " + want + " / #define " + want});
    }
  }

  // --- Task-marker tags (todo-tag) -----------------------------------------
  for (const auto& [line, text] : lexed.comments) {
    for (const char* marker : {"TODO", "FIXME"}) {
      size_t at = 0;
      while ((at = text.find(marker, at)) != std::string::npos) {
        const size_t after = at + std::string(marker).size();
        // Skip substrings of longer words in either direction.
        if ((at > 0 && IsIdentChar(text[at - 1])) ||
            (after < text.size() && IsIdentChar(text[after]))) {
          at = after;
          continue;
        }
        const bool tagged = after < text.size() && text[after] == '(' &&
                            text.find(')', after) != std::string::npos &&
                            text.find(')', after) > after + 1;
        if (!tagged) {
          findings.push_back({path, line, "todo-tag",
                              std::string(marker) +
                                  " without an owner/issue tag; write " +
                                  marker + "(name-or-issue): ..."});
        }
        at = after;
      }
    }
  }

  // --- Lock discipline -----------------------------------------------------
  if (in_src) {
    // Annotation validation runs across src/; the annotate-or-opt-out
    // obligation for container members applies to the concurrent subsystems.
    const bool enforce_guards =
        StartsWith(path, "src/serve/") || StartsWith(path, "src/par/") ||
        StartsWith(path, "src/obs/") || StartsWith(path, "src/core/");
    for (const ParsedClass& cls : ParseClasses(toks)) {
      EvaluateClassLockDiscipline(cls, {}, enforce_guards, path, &findings);
    }
    CheckRequiresSelfLock(path, toks, &findings);
    CheckLockRankNames(path, toks, config, &findings);
    CheckLockOrderRule(path, toks, config, &findings);
  }

  // --- Apply NOLINT suppressions, flag stale ones --------------------------
  std::vector<Suppression> suppressions =
      ParseSuppressions(lexed.comments, &findings, path);
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    bool suppressed = false;
    for (Suppression& s : suppressions) {
      if (s.line == f.line && s.rule == f.rule) {
        s.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }
  for (const Suppression& s : suppressions) {
    if (s.used) continue;
    if (RuleCatalog().count(s.rule) == 0) {
      kept.push_back({path, s.line, "stale-nolint",
                      "NOLINT(" + s.rule + ") names an unknown rule-id"});
    } else {
      kept.push_back({path, s.line, "stale-nolint",
                      "NOLINT(" + s.rule + ") no longer suppresses anything; "
                      "remove it"});
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return kept;
}

std::vector<Finding> CheckSpanRegistryStaleness(
    const std::string& spans_def_path, const Config& config,
    const std::set<std::string>& used_in_src) {
  std::vector<Finding> findings;
  for (const auto& [name, line] : config.registered_spans) {
    if (used_in_src.count(name) == 0) {
      findings.push_back({spans_def_path, line, "span-registry-stale",
                          "registered span '" + name +
                              "' is opened nowhere under src/ or tools/; "
                              "delete the entry or restore the span"});
    }
  }
  return findings;
}

std::vector<Finding> CheckLockRegistryStaleness(
    const std::string& locks_def_path, const Config& config,
    const std::set<std::string>& bound_in_src) {
  std::vector<Finding> findings;
  for (const auto& [name, line] : config.registered_locks) {
    if (bound_in_src.count(name) == 0) {
      findings.push_back({locks_def_path, line, "lock-registry-stale",
                          "registered lock rank '" + name +
                              "' is bound by no mutex under src/; delete the "
                              "entry or restore the binding"});
    }
  }
  return findings;
}

std::string FormatFinding(const Finding& finding) {
  std::ostringstream os;
  os << finding.file << ':' << finding.line << ": " << finding.rule << ": "
     << finding.message;
  return os.str();
}

std::string FormatFindingJson(const Finding& finding) {
  std::string out = "{\"file\":\"";
  AppendJsonEscaped(&out, finding.file);
  out += "\",\"line\":";
  out += std::to_string(finding.line);
  out += ",\"rule\":\"";
  AppendJsonEscaped(&out, finding.rule);
  out += "\",\"message\":\"";
  AppendJsonEscaped(&out, finding.message);
  out += "\"}";
  return out;
}

}  // namespace eadrl::lint
