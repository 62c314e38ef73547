// tools/symlint/lint.hpp
//
// symlint — SYMBIOSYS-specific static analysis. The project's determinism
// and fiber-safety guarantees (DESIGN.md, docs/ARCHITECTURE.md) are
// invariants of the *source*, not of any one test run — a stray wall-clock
// read or an unordered-map walk in an export path produces subtly different
// figures without failing a single assertion. symlint encodes those
// invariants as machine-checked rules over src/ and runs as a ctest gate.
//
// The analyzer has two passes (see docs/STATIC_ANALYSIS.md):
//
//   pass 0 — per-TU lexical rules, this header:
//   D1 nondeterminism   no wall-clock / libc randomness / environment reads
//                       outside simkit/time.hpp and simkit/rng.hpp
//   D2 unordered-iter   no range-for over std::unordered_{map,set} variables
//                       in analysis/export code (src/symbiosys)
//   D3 fiber-blocking   no std::mutex / std::thread / blocking syscalls in
//                       fiber-executed code — blocking goes through
//                       argolite's sync primitives (src/simkit is exempt:
//                       the engine substrate owns the real threads)
//   D4 lane-affinity    no direct access to Lane internals outside
//                       simkit/{lane,window,engine}.* — cross-lane work goes
//                       through the Engine::at_on mailbox API
//
//   pass 1+2 — cross-TU index (index.hpp) and interprocedural rules
//   (rules.hpp):
//   L1 lock-order            cycle in the project-wide mutex-acquisition
//                            graph (potential deadlock), with witness path
//   E1 shared-state-escape   mutable global/static/class-static reachable
//                            from worker-executed code without a lane bind
//   T1 determinism-taint     clock/rng-derived value flowing through calls
//                            into an event timestamp
//   B1 may-block             lane/fiber-executed root reaches an OS-blocking
//                            leaf (std::mutex, condition_variable, blocking
//                            syscall) through the call graph; the finding
//                            carries the witness chain with file:line hops
//   B2 may-allocate          same propagation for heap allocation leaves
//                            (raw new, malloc family, make_unique/shared,
//                            std::function spill) — replaces the retired
//                            per-TU D3 "alloc face" file list
//   P1 pvar-contract         PVAR registrations and action-span names in
//                            code cross-checked against docs/PVARS.md;
//                            drift in either direction is a finding
//
// Escape hatch: a finding is suppressed by an annotation on the same line
// or on the line directly above — a comment carrying the symlint marker
// followed by allow(<rule>) reason=<non-empty explanation>.
// An allow() without a reason is itself reported (rule A0).
//
// The analyzer is deliberately lexical, not AST-based: it must build
// dependency-free on a bare toolchain and run in milliseconds over the
// whole tree. The matching is conservative and the fixture suite
// (tests/lint_fixtures) pins its exact diagnostics.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace symlint {

enum class Rule {
  kAnnotation,      // A0: malformed allow() annotation
  kNondeterminism,  // D1
  kUnorderedIter,   // D2
  kFiberBlocking,   // D3
  kLaneAffinity,    // D4
  kLockOrder,       // L1 (cross-TU)
  kSharedEscape,    // E1 (cross-TU)
  kTaint,           // T1 (cross-TU)
  kMayBlock,        // B1 (cross-TU)
  kMayAlloc,        // B2 (cross-TU)
  kPvarContract,    // P1 (cross-TU, registry vs docs/PVARS.md)
};

/// Short rule id ("D1") and annotation name ("nondeterminism") for a rule.
[[nodiscard]] std::string_view rule_id(Rule r) noexcept;
[[nodiscard]] std::string_view rule_name(Rule r) noexcept;

struct Finding {
  Rule rule;
  std::string file;  ///< path as given to lint_source()
  int line = 0;      ///< 1-based
  std::string message;
  /// Stable identity for baseline matching, independent of line drift.
  /// Cross-TU rules set a semantic key ("cycle:a->b->c", "static:file:name");
  /// per-TU findings use the empty key (matched by message).
  std::string key;

  /// "file:line: [D1/nondeterminism] message" — the stable CLI format the
  /// fixture tests pin.
  [[nodiscard]] std::string format() const;
};

/// Which rule families apply to a path. Per-TU rules are path-scoped (see
/// the table in docs/STATIC_ANALYSIS.md); the cross-TU passes index every
/// scanned file. tools/symlint itself is scanned (the selfcheck gate) under
/// the determinism rules that make sense for a host-side tool: its *output*
/// must be deterministic (D1, D2), but it never runs on a fiber (no D3)
/// and has no lanes (no D4).
struct Scope {
  bool scan = false;  ///< file participates in analysis at all
  bool d1 = false;
  bool d2 = false;
  bool d3 = false;
  bool d4 = false;
  // The old per-TU D3 "alloc face" (a hard-coded hot-path file list) is
  // retired: allocation discipline is now the interprocedural B2
  // may-allocate rule over the cross-TU call graph (rules.hpp), which sees
  // a malloc hidden one helper call away in another TU.
};

[[nodiscard]] Scope classify(std::string_view path);

/// Lint one translation unit with the per-TU rules. `path` determines which
/// rules apply; `lx` is the file text as lex() returned it, so the caller
/// that also indexes the file lexes it once. The path is matched on its
/// normalized form, so callers may pass either a repo-relative path
/// ("src/simkit/lane.cpp") or an absolute one.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view path,
                                               const Lexed& lx);

/// Stable ordering used everywhere findings are emitted.
void sort_findings(std::vector<Finding>& findings);

}  // namespace symlint
