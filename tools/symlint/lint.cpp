#include "lint.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "lexer.hpp"
#include "tables.hpp"

namespace symlint {
namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Scanner (per-TU rules)
// ---------------------------------------------------------------------------

class Scanner {
 public:
  Scanner(std::string_view path, const Lexed& lx, const Scope& scope)
      : path_(path), lx_(lx), scope_(scope) {}

  std::vector<Finding> run() {
    collect_unordered_vars();
    const auto& t = lx_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent) continue;
      if (scope_.d1) check_d1(i);
      if (scope_.d2) check_d2(i);
      if (scope_.d3) check_d3(i);
      if (scope_.d4) check_d4(i);
    }
    // Malformed annotations are findings regardless of scope.
    for (const auto& e : lx_.annotation_errors) {
      findings_.push_back(
          {Rule::kAnnotation, std::string(path_), e.line, e.message, {}});
    }
    apply_allows();
    return std::move(findings_);
  }

 private:
  const Token* prev(std::size_t i, std::size_t back = 1) const {
    return i >= back ? &lx_.tokens[i - back] : nullptr;
  }
  const Token* next(std::size_t i, std::size_t fwd = 1) const {
    return i + fwd < lx_.tokens.size() ? &lx_.tokens[i + fwd] : nullptr;
  }

  /// True when token i is a *call* of a free (or std::/global-qualified)
  /// function: followed by "(" and not a member access or a qualified name
  /// in some other namespace.
  bool is_free_call(std::size_t i) const {
    const Token* nx = next(i);
    if (nx == nullptr || nx->text != "(") return false;
    const Token* pv = prev(i);
    if (pv == nullptr) return true;
    if (pv->text == "." || pv->text == "->") return false;
    if (pv->text == "::") {
      const Token* qual = prev(i, 2);
      // "::time(" (global) and "std::time(" are the libc call; any other
      // qualifier ("Foo::time") is a different function. Keywords before
      // "::" ("return ::time(...)") are not qualifiers.
      static const std::set<std::string_view> kNonQualifiers = {
          "return", "co_return", "co_await", "co_yield", "throw",
          "else",   "do",        "case",     "default",
      };
      return qual == nullptr || qual->kind != Token::kIdent ||
             qual->text == "std" || kNonQualifiers.count(qual->text) != 0;
    }
    return true;
  }

  /// True when token i is qualified as std::<ident>.
  bool is_std_qualified(std::size_t i) const {
    const Token* pv = prev(i);
    const Token* qual = prev(i, 2);
    return pv != nullptr && pv->text == "::" && qual != nullptr &&
           qual->kind == Token::kIdent && qual->text == "std";
  }

  void add(Rule rule, int line, std::string message) {
    findings_.push_back(
        {rule, std::string(path_), line, std::move(message), {}});
  }

  // --- D1 ---
  void check_d1(std::size_t i) {
    const auto& tok = lx_.tokens[i];
    if (tables::kD1TypeIdents.count(tok.text) != 0) {
      add(Rule::kNondeterminism, tok.line,
          "nondeterministic source '" + std::string(tok.text) +
              "' (draw virtual time from simkit/time.hpp and randomness "
              "from sym::sim::Rng)");
      return;
    }
    if (tables::kD1CallIdents.count(tok.text) != 0 && is_free_call(i)) {
      add(Rule::kNondeterminism, tok.line,
          "nondeterministic call '" + std::string(tok.text) +
              "()' (draw virtual time from simkit/time.hpp and randomness "
              "from sym::sim::Rng)");
    }
  }

  // --- D2 ---
  /// Record every variable (local, member or parameter) declared with an
  /// unordered container type in this TU.
  void collect_unordered_vars() {
    if (!scope_.d2) return;
    const auto& t = lx_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent ||
          (t[i].text != "unordered_map" && t[i].text != "unordered_set")) {
        continue;
      }
      const Token* nx = next(i);
      if (nx == nullptr || nx->text != "<") continue;
      // Walk the template argument list; '<' '>' tokens are single chars.
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") ++depth;
        else if (t[j].text == ">") {
          if (--depth == 0) break;
        }
      }
      if (j >= t.size()) continue;
      // Skip refs/pointers/cv to reach the declared name.
      std::size_t k = j + 1;
      while (k < t.size() &&
             (t[k].text == "&" || t[k].text == "*" || t[k].text == "const")) {
        ++k;
      }
      if (k < t.size() && t[k].kind == Token::kIdent) {
        unordered_vars_.insert(std::string(t[k].text));
      }
    }
  }

  void check_d2(std::size_t i) {
    const auto& t = lx_.tokens;
    if (t[i].text != "for") return;
    const Token* nx = next(i);
    if (nx == nullptr || nx->text != "(") return;
    // Find a ':' at parenthesis depth 1 (range-for); "::" is one token and
    // never matches.
    int depth = 0;
    std::size_t j = i + 1;
    std::size_t colon = 0;
    for (; j < t.size(); ++j) {
      if (t[j].text == "(") ++depth;
      else if (t[j].text == ")") {
        if (--depth == 0) break;
      } else if (t[j].text == ":" && depth == 1 && colon == 0) {
        colon = j;
      } else if (t[j].text == ";" && depth == 1) {
        return;  // classic for-loop
      }
    }
    if (colon == 0 || j >= t.size()) return;
    // Base identifier of the range expression.
    for (std::size_t k = colon + 1; k < j; ++k) {
      if (t[k].kind != Token::kIdent) continue;
      if (t[k].text == "const" || t[k].text == "auto") continue;
      if (unordered_vars_.count(std::string(t[k].text)) != 0) {
        add(Rule::kUnorderedIter, t[i].line,
            "range-for over unordered container '" + std::string(t[k].text) +
                "' in analysis/export code (iterate sorted keys so emission "
                "order is deterministic by construction)");
      }
      break;  // only the base identifier decides
    }
  }

  // --- D3 ---
  void check_d3(std::size_t i) {
    const auto& tok = lx_.tokens[i];
    if (tables::kD3StdIdents.count(tok.text) != 0 && is_std_qualified(i)) {
      add(Rule::kFiberBlocking, tok.line,
          "blocking primitive 'std::" + std::string(tok.text) +
              "' in fiber-executed code (block through argolite's sync "
              "primitives in sym::abt so the ULT yields its ES)");
      return;
    }
    if (tables::kD3CallIdents.count(tok.text) != 0 && is_free_call(i)) {
      add(Rule::kFiberBlocking, tok.line,
          "blocking call '" + std::string(tok.text) +
              "()' in fiber-executed code (model delays with "
              "Engine::after and argolite's sync primitives)");
    }
  }

  // --- D4 ---
  void check_d4(std::size_t i) {
    const auto& tok = lx_.tokens[i];
    if (tables::kD4TypeIdents.count(tok.text) != 0) {
      add(Rule::kLaneAffinity, tok.line,
          "direct use of sim::" + std::string(tok.text) +
              " outside simkit/{lane,window,engine} (schedule through "
              "Engine::at_on, which routes cross-lane work via the "
              "deterministic window mailbox)");
      return;
    }
    if (tables::kD4MemberCalls.count(tok.text) != 0) {
      const Token* pv = prev(i);
      const Token* nx = next(i);
      if (pv != nullptr && (pv->text == "." || pv->text == "->") &&
          nx != nullptr && nx->text == "(") {
        add(Rule::kLaneAffinity, tok.line,
            "call to Lane-internal member '" + std::string(tok.text) +
                "()' outside simkit/{lane,window,engine} (use the "
                "Engine::at_on mailbox API)");
      }
    }
  }

  /// Drop findings covered by an allow(<rule>) on the same line or in the
  /// comment block directly above (scanning up over comment-only lines, so
  /// a multi-line annotation comment covers the code line beneath it).
  void apply_allows() {
    std::set<int> code_lines;
    for (const auto& tok : lx_.tokens) code_lines.insert(tok.line);
    auto has_allow = [&](int line, std::string_view name) {
      const auto it = lx_.allows.find(line);
      if (it == lx_.allows.end()) return false;
      for (const auto& note : it->second) {
        if (note.rule == name) return true;
      }
      return false;
    };
    auto allowed = [&](const Finding& f) {
      if (f.rule == Rule::kAnnotation) return false;
      const auto name = rule_name(f.rule);
      if (has_allow(f.line, name)) return true;
      for (int line = f.line - 1; line > 0 && code_lines.count(line) == 0;
           --line) {
        if (has_allow(line, name)) return true;
      }
      return false;
    };
    findings_.erase(
        std::remove_if(findings_.begin(), findings_.end(), allowed),
        findings_.end());
  }

  std::string_view path_;
  const Lexed& lx_;
  Scope scope_;
  std::set<std::string> unordered_vars_;
  std::vector<Finding> findings_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::string_view rule_id(Rule r) noexcept {
  switch (r) {
    case Rule::kAnnotation: return "A0";
    case Rule::kNondeterminism: return "D1";
    case Rule::kUnorderedIter: return "D2";
    case Rule::kFiberBlocking: return "D3";
    case Rule::kLaneAffinity: return "D4";
    case Rule::kLockOrder: return "L1";
    case Rule::kSharedEscape: return "E1";
    case Rule::kTaint: return "T1";
    case Rule::kMayBlock: return "B1";
    case Rule::kMayAlloc: return "B2";
    case Rule::kPvarContract: return "P1";
  }
  return "??";
}

std::string_view rule_name(Rule r) noexcept {
  switch (r) {
    case Rule::kAnnotation: return "annotation";
    case Rule::kNondeterminism: return "nondeterminism";
    case Rule::kUnorderedIter: return "unordered-iter";
    case Rule::kFiberBlocking: return "fiber-blocking";
    case Rule::kLaneAffinity: return "lane-affinity";
    case Rule::kLockOrder: return "lock-order";
    case Rule::kSharedEscape: return "shared-state-escape";
    case Rule::kTaint: return "determinism-taint";
    case Rule::kMayBlock: return "may-block";
    case Rule::kMayAlloc: return "may-allocate";
    case Rule::kPvarContract: return "pvar-contract";
  }
  return "unknown";
}

std::string Finding::format() const {
  std::ostringstream os;
  os << file << ':' << line << ": [" << rule_id(rule) << '/'
     << rule_name(rule) << "] " << message;
  return os.str();
}

Scope classify(std::string_view path) {
  std::string norm(path);
  std::replace(norm.begin(), norm.end(), '\\', '/');
  Scope s;

  // The analyzer's own sources: the selfcheck gate. A lint tool whose
  // report order depends on hash layout or wall time is as useless as a
  // nondeterministic simulator, so D1/D2 apply; it is a host-side tool,
  // never fiber- or lane-executed, so D3/D4 do not.
  if (norm.find("tools/symlint/") != std::string::npos) {
    s.scan = true;
    s.d1 = true;
    s.d2 = true;
    return s;
  }

  // Benchmarks: measurement harnesses legitimately read wall clocks (that
  // is the measurement), so D1 is off — but their *emitted tables* feed the
  // paper figures, so iteration order must still be deterministic (D2), and
  // they are indexed for the cross-TU rules like any other TU.
  if (norm.find("bench/") != std::string::npos &&
      norm.find("src/") == std::string::npos) {
    s.scan = true;
    s.d2 = true;
    return s;
  }

  const auto pos = norm.find("src/");
  if (pos == std::string::npos) return s;
  const std::string rel = norm.substr(pos);  // "src/..."
  s.scan = true;

  s.d1 = !(ends_with(rel, "simkit/time.hpp") || ends_with(rel, "simkit/rng.hpp"));
  s.d2 = rel.rfind("src/symbiosys/", 0) == 0;
  // The simkit substrate owns the real worker threads (window coordinator),
  // so std:: threading there is the implementation, not a violation.
  s.d3 = rel.rfind("src/simkit/", 0) != 0;
  static const char* kLaneFiles[] = {
      "simkit/lane.hpp",   "simkit/lane.cpp",   "simkit/window.hpp",
      "simkit/window.cpp", "simkit/engine.hpp", "simkit/engine.cpp",
  };
  s.d4 = true;
  for (const char* f : kLaneFiles) {
    if (ends_with(rel, f)) s.d4 = false;
  }
  return s;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return rule_id(a.rule) < rule_id(b.rule);
            });
}

std::vector<Finding> lint_source(std::string_view path, const Lexed& lx) {
  const Scope scope = classify(path);
  if (!scope.scan) return {};
  Scanner scanner(path, lx, scope);
  auto findings = scanner.run();
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return rule_id(a.rule) < rule_id(b.rule);
            });
  return findings;
}

}  // namespace symlint
