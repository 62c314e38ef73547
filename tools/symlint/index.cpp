#include "index.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "lexer.hpp"
#include "tables.hpp"

namespace symlint {
namespace {

std::string normalize(std::string_view path) {
  std::string norm(path);
  std::replace(norm.begin(), norm.end(), '\\', '/');
  return norm;
}

// Declaration modifiers that may precede the type in a variable declaration.
const std::set<std::string_view> kDeclModifiers = {
    "static", "thread_local", "inline", "mutable", "volatile",
    "unsigned", "signed", "long", "short",
};

// A statement containing one of these is not a variable declaration we
// track (type definitions, aliases, immutable data, templates, ...).
const std::set<std::string_view> kDeclSkip = {
    "const",    "constexpr", "constinit", "using",    "typedef",
    "extern",   "friend",    "enum",      "class",    "struct",
    "union",    "template",  "namespace", "operator", "requires",
    "static_assert", "return", "if", "for", "while", "switch", "do",
    "case",     "default",   "goto",      "delete",   "new",
    "public",   "private",   "protected", "throw",
};

// Specifier tokens that may sit between a function's ")" and its body "{".
const std::set<std::string_view> kFnTrailing = {
    "const", "noexcept", "override", "final", "mutable", "try", "volatile",
};

// ---------------------------------------------------------------------------
// IndexScanner: one forward pass with a context stack
// ---------------------------------------------------------------------------

class IndexScanner {
 public:
  IndexScanner(const Lexed& lx, TuIndex& tu) : t_(lx.tokens), tu_(tu) {}

  void run() {
    for (i_ = 0; i_ < t_.size(); ++i_) {
      const Token& tok = t_[i_];
      if (tok.kind == Token::kPunct) {
        if (tok.text == "{") {
          open_brace();
        } else if (tok.text == "}") {
          close_brace();
        } else if (tok.text == ";") {
          analyze_statement(stmt_begin_, i_, /*brace_terminated=*/false);
          stmt_begin_ = i_ + 1;
        }
        continue;
      }
      if (in_function()) scan_body_token();
    }
    // Unbalanced braces (preprocessor-split bodies): close what is open so
    // a half-built function is still recorded.
    while (!ctx_.empty()) pop_ctx();
    finalize_refs();
  }

 private:
  struct Ctx {
    enum Kind { kNamespace, kClass, kFunction, kBlock } kind;
    std::string name;
    bool reset_stmt = true;  ///< false for ctor-init-list braces
  };

  bool in_function() const { return fn_depth_ > 0; }

  const Token* at(std::size_t i) const {
    return i < t_.size() ? &t_[i] : nullptr;
  }

  std::string innermost_class() const {
    for (auto it = ctx_.rbegin(); it != ctx_.rend(); ++it) {
      if (it->kind == Ctx::kClass) return it->name;
    }
    return {};
  }

  Ctx::Kind innermost_scope_kind() const {
    if (ctx_.empty()) return Ctx::kNamespace;  // top level
    return ctx_.back().kind;
  }

  /// Scope kind that governs declaration statements: the innermost
  /// namespace/class/function, looking through plain blocks.
  Ctx::Kind decl_scope() const {
    if (in_function()) return Ctx::kFunction;
    for (auto it = ctx_.rbegin(); it != ctx_.rend(); ++it) {
      if (it->kind != Ctx::kBlock) return it->kind;
    }
    return Ctx::kNamespace;
  }

  // --- brace classification ------------------------------------------------

  void open_brace() {
    Ctx ctx = classify_brace();
    if (ctx.kind == Ctx::kFunction && !in_function()) {
      cur_ = FunctionInfo{};
      cur_.name = ctx.name;
      cur_.line = t_[i_].line;
      if (const auto pos = ctx.name.rfind("::"); pos != std::string::npos) {
        cur_.cls = ctx.name.substr(0, pos);
      } else {
        cur_.cls = innermost_class();
        if (!cur_.cls.empty()) cur_.name = cur_.cls + "::" + cur_.name;
      }
      cur_idents_.clear();
      fn_depth_ = 1;
    } else if (in_function()) {
      ++fn_depth_;
      if (ctx.kind == Ctx::kFunction) ctx.kind = Ctx::kBlock;  // lambda etc.
    }
    if (ctx.reset_stmt) {
      // A '{'-terminated statement can still declare (brace-init).
      analyze_statement(stmt_begin_, i_, /*brace_terminated=*/true);
      stmt_begin_ = i_ + 1;
    }
    ctx_.push_back(ctx);
  }

  void close_brace() {
    if (!ctx_.empty()) pop_ctx();
    stmt_begin_ = i_ + 1;
  }

  void pop_ctx() {
    const Ctx ctx = ctx_.back();
    ctx_.pop_back();
    if (in_function()) {
      --fn_depth_;
      // Guards acquired in the closed block are released.
      const auto depth = static_cast<int>(ctx_.size());
      held_.erase(std::remove_if(held_.begin(), held_.end(),
                                 [&](const Held& h) {
                                   return h.depth > depth && h.depth >= 0;
                                 }),
                  held_.end());
      if (fn_depth_ == 0) {
        held_.clear();
        tu_.functions.push_back(std::move(cur_));
        fn_ident_lines_.push_back(std::move(cur_idents_));
        cur_idents_.clear();
      }
    }
  }

  /// Decide what the '{' at i_ opens, from the statement tokens before it.
  Ctx classify_brace() {
    const std::size_t b = stmt_begin_;
    const std::size_t e = i_;
    if (b >= e) return {Ctx::kBlock, {}, true};

    bool saw_namespace = false, saw_type_kw = false, saw_eq = false;
    bool saw_operator = false;
    int paren = 0;
    for (std::size_t k = b; k < e; ++k) {
      if (t_[k].kind != Token::kIdent) {
        if (t_[k].text == "(") ++paren;
        else if (t_[k].text == ")") --paren;
        // A depth-0 assignment means "not a function definition" — but only
        // a real "=": the lexer splits "==" / "<=" / ... into single-char
        // puncts, and default arguments live at paren depth >= 1.
        if (t_[k].text == "=" && !saw_operator && paren == 0) {
          const bool prev_op =
              k > b && t_[k - 1].kind == Token::kPunct &&
              t_[k - 1].text != ")" && t_[k - 1].text != "]" &&
              t_[k - 1].text != "::";
          const bool next_eq = k + 1 < e && t_[k + 1].text == "=";
          // "typename = ..." / "class = ..." is a template default argument
          // (enable_if-style SFINAE headers), not a variable initializer.
          const bool tmpl_default =
              k > b && t_[k - 1].kind == Token::kIdent &&
              (t_[k - 1].text == "typename" || t_[k - 1].text == "class");
          if (!prev_op && !next_eq && !tmpl_default) saw_eq = true;
        }
        continue;
      }
      if (t_[k].text == "namespace") saw_namespace = true;
      if (t_[k].text == "class" || t_[k].text == "struct" ||
          t_[k].text == "union" || t_[k].text == "enum") {
        saw_type_kw = true;
      }
      if (t_[k].text == "operator") saw_operator = true;
    }
    if (saw_namespace) {
      std::string name;
      for (std::size_t k = e; k-- > b;) {
        if (t_[k].kind == Token::kIdent && t_[k].text != "namespace") {
          name = std::string(t_[k].text);
          break;
        }
      }
      return {Ctx::kNamespace, std::move(name), true};
    }
    if (saw_type_kw) {
      // Name = identifier after the last class/struct/union/enum keyword
      // (skipping "final" and base lists).
      std::string name;
      for (std::size_t k = b; k < e; ++k) {
        if (t_[k].kind == Token::kIdent &&
            (t_[k].text == "class" || t_[k].text == "struct" ||
             t_[k].text == "union" || t_[k].text == "enum")) {
          for (std::size_t m = k + 1; m < e; ++m) {
            if (t_[m].kind == Token::kIdent && t_[m].text != "final" &&
                t_[m].text != "alignas" && t_[m].text != "class") {
              name = std::string(t_[m].text);
              break;
            }
            if (t_[m].kind == Token::kPunct && t_[m].text == ":") break;
          }
        }
      }
      return {Ctx::kClass, std::move(name), true};
    }
    if (saw_eq && !saw_operator) return {Ctx::kBlock, {}, true};

    // Function definition: first depth-0 "(" preceded by a plausible name.
    int depth = 0;
    std::size_t open = 0, name_idx = 0;
    for (std::size_t k = b; k < e; ++k) {
      if (t_[k].kind != Token::kPunct) continue;
      if (t_[k].text == "(") {
        if (depth == 0 && open == 0 && k > b &&
            t_[k - 1].kind == Token::kIdent &&
            tables::kNonCalleeKeywords.count(t_[k - 1].text) == 0 &&
            tables::kGuardTypes.count(t_[k - 1].text) == 0) {
          open = k;
          name_idx = k - 1;
        }
        ++depth;
      } else if (t_[k].text == ")") {
        --depth;
      }
    }
    if (open == 0) return {Ctx::kBlock, {}, true};

    // Matching ")" of the parameter list.
    depth = 0;
    std::size_t close = 0;
    for (std::size_t k = open; k < e; ++k) {
      if (t_[k].kind != Token::kPunct) continue;
      if (t_[k].text == "(") ++depth;
      else if (t_[k].text == ")" && --depth == 0) {
        close = k;
        break;
      }
    }
    if (close == 0) return {Ctx::kBlock, {}, true};

    // Ctor-init-list brace-init ("Foo::Foo() : a_{1} {"): a depth-0 ":"
    // after the parameter list while the token before "{" is a plain
    // identifier means this "{" initializes a member, not the body. Keep
    // the statement accumulating so the real body brace still sees the
    // full header.
    bool colon_after = false;
    depth = 0;
    for (std::size_t k = close + 1; k < e; ++k) {
      if (t_[k].kind != Token::kIdent) {
        if (t_[k].text == "(") ++depth;
        else if (t_[k].text == ")") --depth;
        else if (t_[k].text == ":" && depth == 0) colon_after = true;
      }
    }
    const Token& before = t_[e - 1];
    if (colon_after && before.kind == Token::kIdent &&
        kFnTrailing.count(before.text) == 0) {
      return {Ctx::kBlock, {}, false};
    }

    // Qualified name walk-back: A::B::name (also ~name).
    std::string name(t_[name_idx].text);
    std::size_t k = name_idx;
    while (k >= 2 && t_[k - 1].kind == Token::kPunct &&
           t_[k - 1].text == "::" && t_[k - 2].kind == Token::kIdent) {
      name = std::string(t_[k - 2].text) + "::" + name;
      k -= 2;
    }
    if (k >= 1 && t_[k - 1].kind == Token::kPunct && t_[k - 1].text == "~") {
      name = "~" + name;
    }
    return {Ctx::kFunction, std::move(name), true};
  }

  // --- statements ----------------------------------------------------------

  /// Analyze the statement tokens [b, e). `brace_terminated` statements end
  /// at a "{" (brace-init declarations).
  void analyze_statement(std::size_t b, std::size_t e, bool brace_terminated) {
    // Strip leading access specifiers ("public :").
    while (b + 1 < e && t_[b].kind == Token::kIdent &&
           (t_[b].text == "public" || t_[b].text == "private" ||
            t_[b].text == "protected") &&
           t_[b + 1].text == ":") {
      b += 2;
    }
    if (b >= e) return;

    if (in_function()) {
      analyze_guard(b, e);
      if (!brace_terminated) analyze_taint_assign(b, e);
    }
    analyze_decl(b, e);
  }

  /// RAII guard acquisition: "LockGuard g(mu_)" / "std::lock_guard<...> l(m)".
  void analyze_guard(std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      if (t_[k].kind != Token::kIdent ||
          tables::kGuardTypes.count(t_[k].text) == 0) {
        continue;
      }
      // Skip template arguments, then the guard variable name, then "(".
      std::size_t m = k + 1;
      if (m < e && t_[m].text == "<") {
        int ang = 0;
        for (; m < e; ++m) {
          if (t_[m].text == "<") ++ang;
          else if (t_[m].text == ">" && --ang == 0) {
            ++m;
            break;
          }
        }
      }
      if (m < e && t_[m].kind == Token::kIdent) ++m;  // guard variable
      if (m >= e || t_[m].text != "(") continue;
      // Mutex token: last identifier of the first constructor argument.
      int depth = 0;
      std::string mutex_tok;
      for (std::size_t a = m; a < e; ++a) {
        if (t_[a].text == "(") {
          ++depth;
        } else if (t_[a].text == ")") {
          if (--depth == 0) break;
        } else if (t_[a].text == "," && depth == 1) {
          break;
        } else if (t_[a].kind == Token::kIdent) {
          mutex_tok = std::string(t_[a].text);
        }
      }
      if (mutex_tok.empty()) continue;
      record_acquire(mutex_tok, t_[k].line,
                     /*depth=*/static_cast<int>(ctx_.size()));
      return;
    }
  }

  /// "var = <rhs with calls or primitives>" — local taint propagation.
  void analyze_taint_assign(std::size_t b, std::size_t e) {
    // Find a plain "=" at paren depth 0 (not ==, <=, +=, ...).
    int depth = 0;
    std::size_t eq = 0;
    for (std::size_t k = b; k < e; ++k) {
      if (t_[k].text == "(") ++depth;
      else if (t_[k].text == ")") --depth;
      else if (t_[k].text == "=" && depth == 0) {
        const bool prev_op =
            k > b && t_[k - 1].kind == Token::kPunct &&
            t_[k - 1].text != ")" && t_[k - 1].text != "]" &&
            t_[k - 1].text != "::";
        const bool next_eq = k + 1 < e && t_[k + 1].text == "=";
        if (!prev_op && !next_eq) {
          eq = k;
          break;
        }
        if (next_eq) ++k;
      }
    }
    if (eq == 0 || eq <= b) return;
    if (t_[eq - 1].kind != Token::kIdent) return;
    TaintAssign ta;
    ta.var = std::string(t_[eq - 1].text);
    ta.line = t_[eq - 1].line;
    for (std::size_t k = eq + 1; k < e; ++k) {
      if (t_[k].kind != Token::kIdent) continue;
      const bool called = k + 1 < e && t_[k + 1].text == "(";
      if (tables::kD1TypeIdents.count(t_[k].text) != 0 ||
          (called && tables::kD1CallIdents.count(t_[k].text) != 0)) {
        ta.direct_source = true;
      } else if (called && tables::kNonCalleeKeywords.count(t_[k].text) == 0) {
        ta.from_calls.push_back(std::string(t_[k].text));
      }
    }
    if (ta.direct_source || !ta.from_calls.empty()) {
      cur_.taints.push_back(std::move(ta));
    }
  }

  /// Variable declarations: mutable statics (E1 subjects) and mutex objects
  /// (L1 nodes), scoped by the enclosing context.
  void analyze_decl(std::size_t b, std::size_t e) {
    bool has_static = false, has_tl = false, has_paren = false;
    int angle = 0;
    bool angle_bad = false;
    std::vector<std::size_t> idents;
    for (std::size_t k = b; k < e; ++k) {
      if (t_[k].kind == Token::kPunct) {
        if (t_[k].text == "(") has_paren = true;
        // Template arguments balance their angles; a comparison ("w <
        // workers_" in a mis-split for-header) does not.
        else if (t_[k].text == "<") ++angle;
        else if (t_[k].text == ">" && --angle < 0) angle_bad = true;
        continue;
      }
      if (kDeclSkip.count(t_[k].text) != 0) return;
      if (t_[k].text == "static") has_static = true;
      else if (t_[k].text == "thread_local") has_tl = true;
      else idents.push_back(k);
    }
    if (has_paren || angle != 0 || angle_bad || idents.size() < 2) return;

    const Ctx::Kind scope = decl_scope();
    if (scope == Ctx::kFunction && !has_static && !has_tl) return;
    if (scope == Ctx::kClass && !has_static && !has_tl) {
      // Instance members are per-object state, not escaping statics — but a
      // member mutex is an L1 node.
      if (!decl_mentions_mutex(idents)) return;
    }

    // Declared name: last identifier before "=" (if any), else last overall.
    std::size_t name_idx = idents.back();
    for (std::size_t k = b; k < e; ++k) {
      if (t_[k].kind == Token::kPunct && t_[k].text == "=") {
        for (auto it = idents.rbegin(); it != idents.rend(); ++it) {
          if (*it < k) {
            name_idx = *it;
            break;
          }
        }
        break;
      }
    }
    std::string name(t_[name_idx].text);
    // Type hint: last type identifier before the name.
    std::string type_hint;
    for (const auto k : idents) {
      if (k >= name_idx) break;
      if (kDeclModifiers.count(t_[k].text) == 0) {
        type_hint = std::string(t_[k].text);
      }
    }
    if (type_hint.empty()) return;  // lone identifier, not a declaration

    if (tables::kMutexTypeIdents.count(type_hint) != 0) {
      MutexDecl md;
      md.name = std::move(name);
      md.line = t_[name_idx].line;
      md.is_member = scope == Ctx::kClass;
      if (md.is_member) md.cls = innermost_class();
      tu_.mutexes.push_back(std::move(md));
      return;
    }
    if (scope == Ctx::kClass && !has_static && !has_tl) return;
    MutableStatic ms;
    ms.name = std::move(name);
    ms.line = t_[name_idx].line;
    ms.is_thread_local = has_tl;
    ms.is_function_local = scope == Ctx::kFunction;
    ms.type_hint = std::move(type_hint);
    tu_.statics.push_back(std::move(ms));
  }

  // --- function-body token scan -------------------------------------------

  void scan_body_token() {
    const Token& tok = t_[i_];
    // Every identifier is a potential static reference.
    cur_idents_.emplace(std::string(tok.text), tok.line);

    const Token* nx = at(i_ + 1);
    const bool called = nx != nullptr && nx->text == "(";

    scan_cost_seed(called);

    if (tables::kD1TypeIdents.count(tok.text) != 0) {
      cur_.sources.push_back({std::string(tok.text), tok.line});
      return;
    }
    if (!called) {
      // `&ident` (not a call): a function pointer taken — a deferred call
      // edge for B1/B2 reachability (SmallFn-stored callbacks). A preceding
      // identifier / ')' / ']' means binary bitwise-and, not address-of.
      const Token* amp = at(i_ - 1);
      if (amp != nullptr && amp->kind == Token::kPunct && amp->text == "&") {
        const Token* before = at(i_ - 2);
        const bool binary =
            before != nullptr &&
            (before->kind == Token::kIdent || before->text == ")" ||
             before->text == "]");
        if (!binary) cur_.fn_refs.push_back({std::string(tok.text), tok.line});
      }
      return;
    }

    if (tables::kD1CallIdents.count(tok.text) != 0 && free_call_at(i_)) {
      cur_.sources.push_back({std::string(tok.text), tok.line});
    }
    if (tables::kLaneBindCalls.count(tok.text) != 0) cur_.binds_lane = true;

    const Token* pv = at(i_ - 1);
    const bool member_call =
        pv != nullptr && (pv->text == "." || pv->text == "->");

    // Manual lock()/unlock() on a named mutex.
    if (member_call && (tok.text == "lock" || tok.text == "unlock") &&
        i_ >= 2 && t_[i_ - 2].kind == Token::kIdent) {
      const std::string m(t_[i_ - 2].text);
      if (tok.text == "lock") {
        record_acquire(m, tok.line, /*depth=*/-1);
      } else {
        held_.erase(std::remove_if(held_.begin(), held_.end(),
                                   [&](const Held& h) {
                                     return h.mutex == m && h.depth == -1;
                                   }),
                    held_.end());
      }
      return;
    }

    if (tables::kSinkCalls.count(tok.text) != 0) scan_sink(tok, member_call);

    if (tables::kNonCalleeKeywords.count(tok.text) == 0 &&
        tables::kGuardTypes.count(tok.text) == 0) {
      CallSite cs;
      cs.callee = std::string(tok.text);
      cs.line = tok.line;
      cs.held = held_names();
      cur_.calls.push_back(std::move(cs));
    }
  }

  /// B1/B2 seed extraction: OS-blocking / heap-allocating leaf sites.
  void scan_cost_seed(bool called) {
    const Token& tok = t_[i_];
    const Token* pv = at(i_ - 1);
    const Token* qual = at(i_ - 2);
    const bool std_qualified = pv != nullptr && pv->text == "::" &&
                               qual != nullptr &&
                               qual->kind == Token::kIdent &&
                               qual->text == "std";
    // B2: raw `new`. Placement `new (addr) T` constructs into storage
    // someone else owns — the arena idiom itself — and "#include <new>" is
    // a header name, not an expression.
    if (tok.text == "new") {
      const Token* nx = at(i_ + 1);
      if (nx != nullptr && nx->text == "(") return;
      if (pv != nullptr && pv->text == "<" && nx != nullptr &&
          nx->text == ">") {
        return;
      }
      cur_.allocating.push_back({"new", tok.line});
      return;
    }
    if (std_qualified) {
      // B1: std:: blocking entities and std:: lock guards. argolite's
      // cooperative primitives (abt::Mutex, abt::LockGuard) are not std-
      // qualified and never seed.
      if (tables::kD3StdIdents.count(tok.text) != 0 ||
          tables::kGuardTypes.count(tok.text) != 0) {
        cur_.blocking.push_back({"std::" + std::string(tok.text), tok.line});
        return;
      }
      if (tables::kAllocStdIdents.count(tok.text) != 0) {
        cur_.allocating.push_back({"std::" + std::string(tok.text), tok.line});
        return;
      }
    }
    if (!called) return;
    if (tables::kD3CallIdents.count(tok.text) != 0 && free_call_at(i_)) {
      cur_.blocking.push_back({std::string(tok.text) + "()", tok.line});
      return;
    }
    if (tables::kAllocCallIdents.count(tok.text) != 0 && free_call_at(i_)) {
      cur_.allocating.push_back({std::string(tok.text) + "()", tok.line});
    }
  }

  /// Virtual-time scheduling sink: record the argument identifiers/calls.
  void scan_sink(const Token& tok, bool member_call) {
    (void)member_call;
    SinkCall sc;
    sc.name = std::string(tok.text);
    sc.line = tok.line;
    int depth = 0;
    int commas = 0;
    bool any_tokens = false;
    for (std::size_t k = i_ + 1; k < t_.size(); ++k) {
      if (t_[k].kind == Token::kPunct) {
        if (t_[k].text == "(") ++depth;
        else if (t_[k].text == ")") {
          if (--depth == 0) break;
        } else if (t_[k].text == "," && depth == 1) {
          ++commas;
        }
        continue;
      }
      if (depth < 1) break;
      any_tokens = true;
      const bool called = k + 1 < t_.size() && t_[k + 1].text == "(";
      if (called) {
        if (tables::kNonCalleeKeywords.count(t_[k].text) == 0) {
          sc.arg_calls.push_back(std::string(t_[k].text));
        }
      } else {
        sc.arg_idents.push_back(std::string(t_[k].text));
      }
    }
    sc.args = any_tokens ? commas + 1 : 0;
    cur_.sinks.push_back(std::move(sc));
  }

  bool free_call_at(std::size_t i) const {
    const Token* pv = at(i - 1);
    if (pv == nullptr) return true;
    if (pv->text == "." || pv->text == "->") return false;
    if (pv->text == "::") {
      const Token* qual = at(i - 2);
      static const std::set<std::string_view> kNonQualifiers = {
          "return", "co_return", "co_await", "co_yield", "throw",
          "else",   "do",        "case",     "default",
      };
      return qual == nullptr || qual->kind != Token::kIdent ||
             qual->text == "std" || kNonQualifiers.count(qual->text) != 0;
    }
    return true;
  }

  // --- held-mutex bookkeeping ---------------------------------------------

  struct Held {
    std::string mutex;
    int depth;  ///< ctx depth of the owning guard; -1 for manual lock()
  };

  std::vector<std::string> held_names() const {
    std::vector<std::string> out;
    out.reserve(held_.size());
    for (const auto& h : held_) out.push_back(h.mutex);
    return out;
  }

  void record_acquire(const std::string& mutex, int line, int depth) {
    AcquireSite a;
    a.mutex = mutex;
    a.line = line;
    a.held = held_names();
    cur_.acquires.push_back(std::move(a));
    held_.push_back({mutex, depth});
  }

  bool decl_mentions_mutex(const std::vector<std::size_t>& idents) const {
    for (const auto k : idents) {
      if (tables::kMutexTypeIdents.count(t_[k].text) != 0) return true;
    }
    return false;
  }

  /// Intersect each function's identifier set with the TU's statics.
  void finalize_refs() {
    std::set<std::string> names;
    for (const auto& s : tu_.statics) names.insert(s.name);
    if (names.empty()) return;
    for (std::size_t f = 0; f < tu_.functions.size(); ++f) {
      for (const auto& [ident, line] : fn_ident_lines_[f]) {
        if (names.count(ident) != 0) {
          tu_.functions[f].static_refs.push_back({ident, line});
        }
      }
    }
  }

  const std::vector<Token>& t_;
  TuIndex& tu_;
  std::size_t i_ = 0;
  std::size_t stmt_begin_ = 0;
  std::vector<Ctx> ctx_;
  int fn_depth_ = 0;
  FunctionInfo cur_;
  std::map<std::string, int> cur_idents_;  ///< ident -> first line
  std::vector<std::map<std::string, int>> fn_ident_lines_;
  std::vector<Held> held_;
};

}  // namespace

// ---------------------------------------------------------------------------
// build_tu_index
// ---------------------------------------------------------------------------

TuIndex build_tu_index(std::string_view path, std::string_view content) {
  TuIndex tu;
  tu.path = std::string(path);
  tu.norm = normalize(path);

  // P1 registrations: string-literal-bearing calls (the main lexer strips
  // strings, so this is a separate raw-text scan).
  for (const auto& sc : extract_string_calls(content)) {
    if (sc.func == "add" && sc.brace_init) {
      tu.pvar_regs.push_back({sc.literal, sc.line, sc.concat});
    } else if (sc.func == "record_action_span" && !sc.brace_init) {
      tu.span_regs.push_back({sc.literal, sc.line, sc.concat});
    } else if (sc.func == "add_rule" && !sc.brace_init) {
      tu.rule_regs.push_back({sc.literal, sc.line, sc.concat});
    }
  }

  const Lexed lx = lex(content);
  IndexScanner scanner(lx, tu);
  scanner.run();

  // Expand allow() coverage: an annotation covers its own line and the
  // first code line after it (matching the per-TU "same line or directly
  // above" semantics for findings reported at declaration/use sites).
  std::set<int> code_lines;
  for (const auto& tok : lx.tokens) code_lines.insert(tok.line);
  for (const auto& [line, notes] : lx.allows) {
    for (const auto& note : notes) {
      tu.allows.emplace_back(line, note.rule);
      auto it = code_lines.upper_bound(line);
      if (it != code_lines.end()) tu.allows.emplace_back(*it, note.rule);
    }
  }
  std::sort(tu.allows.begin(), tu.allows.end());
  tu.allows.erase(std::unique(tu.allows.begin(), tu.allows.end()),
                  tu.allows.end());

  tu.tu_findings = lint_source(path, lx);
  return tu;
}

TuIndex index_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    TuIndex tu;
    tu.path = path;
    tu.norm = normalize(path);
    tu.tu_findings.push_back(
        {Rule::kAnnotation, path, 0, "cannot open file for linting", {}});
    return tu;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return build_tu_index(path, buf.str());
}

}  // namespace symlint
