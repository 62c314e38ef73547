// Golden-file tests for the symlint static analyzer (tools/symlint).
//
// Each fixture in tests/lint_fixtures/ is linted under a *virtual* path
// (rule applicability is path-scoped: D2 only under src/symbiosys/, D3
// everywhere under src/ except src/simkit/, ...) and the exact diagnostics
// — rule id and line — are asserted. The fixtures pin their expected lines
// in trailing comments; editing a fixture means updating both.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "emit.hpp"
#include "index.hpp"
#include "lint.hpp"
#include "rules.hpp"

namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(SYM_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Expected {
  std::string rule_id;
  int line;
};

/// Lint `fixture` as if it lived at `virtual_path` and compare the full
/// finding list against `expected`, in order.
void expect_findings(const std::string& fixture,
                     const std::string& virtual_path,
                     const std::vector<Expected>& expected) {
  const auto findings =
      symlint::lint_source(virtual_path, read_fixture(fixture));
  ASSERT_EQ(findings.size(), expected.size())
      << [&] {
           std::ostringstream os;
           os << "findings for " << fixture << ":\n";
           for (const auto& f : findings) os << "  " << f.format() << "\n";
           return os.str();
         }();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(symlint::rule_id(findings[i].rule), expected[i].rule_id)
        << findings[i].format();
    EXPECT_EQ(findings[i].line, expected[i].line) << findings[i].format();
    EXPECT_EQ(findings[i].file, virtual_path);
  }
}

// ---------------------------------------------------------------------------
// Rule detection
// ---------------------------------------------------------------------------

TEST(Symlint, D1NondeterminismSources) {
  expect_findings("d1_nondeterminism.cpp", "src/margolite/fixture_d1.cpp",
                  {{"D1", 19},    // std::chrono::steady_clock
                   {"D1", 23},    // ::time(nullptr)
                   {"D1", 25},    // rand()
                   {"D1", 27},    // std::getenv
                   {"D1", 30}});  // std::random_device
}

TEST(Symlint, D2UnorderedIterationInAnalysisCode) {
  expect_findings("d2_unordered_iter.cpp", "src/symbiosys/fixture_d2.cpp",
                  {{"D2", 17},    // range-for over unordered_map
                   {"D2", 26}});  // range-for over unordered_set
}

TEST(Symlint, D2DoesNotApplyOutsideSymbiosys) {
  // The same file under a non-analysis path: hash-order iteration of
  // node-local state is allowed (order never escapes into reports there).
  expect_findings("d2_unordered_iter.cpp", "src/services/fixture_d2.cpp",
                  {});
}

TEST(Symlint, D3FiberBlockingPrimitives) {
  expect_findings("d3_fiber_blocking.cpp", "src/services/fixture_d3.cpp",
                  {{"D3", 13},    // std::mutex member
                   {"D3", 18},    // std::lock_guard<std::mutex>
                   {"D3", 23},    // std::thread
                   {"D3", 28}});  // usleep()
}

TEST(Symlint, D3DoesNotApplyInsideSimkit) {
  // The engine substrate owns the real worker threads; std:: threading
  // there is the implementation of the lane pool, not a violation.
  expect_findings("d3_fiber_blocking.cpp", "src/simkit/fixture_d3.cpp", {});
}

// The hot-path allocation face moved from per-TU D3 into the cross-TU B2
// may-allocate rule (direct face); its tests now live in the SymlintCrossTu
// suite below, against the same fixture.

TEST(Symlint, D4LaneInternalsOutsideEngineFiles) {
  expect_findings("d4_lane_affinity.cpp", "src/workloads/fixture_d4.cpp",
                  {{"D4", 12},    // sim::Lane* in a signature
                   {"D4", 17},    // .post_remote(...)
                   {"D4", 21}});  // .run_window(...)
}

TEST(Symlint, D4AllowedInLaneAndEngineFiles) {
  expect_findings("d4_lane_affinity.cpp", "src/simkit/lane.cpp", {});
  expect_findings("d4_lane_affinity.cpp", "src/simkit/engine.cpp", {});
  expect_findings("d4_lane_affinity.cpp", "src/simkit/window.hpp", {});
}

TEST(Symlint, CleanFileHasNoFindings) {
  // Strictest scope: all four rules apply under src/symbiosys/.
  expect_findings("clean.cpp", "src/symbiosys/fixture_clean.cpp", {});
}

TEST(Symlint, FilesOutsideSrcAreNotScanned) {
  expect_findings("d1_nondeterminism.cpp", "tests/fixture_d1.cpp", {});
  expect_findings("d1_nondeterminism.cpp", "bench/fixture_d1.cpp", {});
}

// ---------------------------------------------------------------------------
// allow() annotations
// ---------------------------------------------------------------------------

TEST(Symlint, AnnotationsSuppressAndMalformedOnesAreFindings) {
  expect_findings("annotated.cpp", "src/symbiosys/fixture_annotated.cpp",
                  {{"A0", 28},    // allow() missing reason=
                   {"D1", 29},    //   ... so the rand() below still fires
                   {"A0", 33},    // allow(no-such-rule)
                   {"D1", 34},    //   ... so the rand() below still fires
                   {"D1", 40}});  // allow() for a different rule
}

TEST(Symlint, FindingFormatIsStable) {
  const auto findings = symlint::lint_source(
      "src/margolite/fixture_d1.cpp", read_fixture("d1_nondeterminism.cpp"));
  ASSERT_FALSE(findings.empty());
  const std::string line = findings.front().format();
  EXPECT_NE(line.find("src/margolite/fixture_d1.cpp:19: [D1/nondeterminism]"),
            std::string::npos)
      << line;
}

// ---------------------------------------------------------------------------
// Cross-TU rules (pass 1 + 2): L1 / E1 / T1 over planted fixtures
// ---------------------------------------------------------------------------

/// Index fixtures under virtual paths and run the interprocedural rules.
std::vector<symlint::Finding> analyze_fixtures(
    const std::vector<std::pair<std::string, std::string>>& fixtures) {
  std::vector<symlint::TuIndex> tus;
  for (const auto& [name, virtual_path] : fixtures) {
    tus.push_back(symlint::build_tu_index(virtual_path, read_fixture(name)));
  }
  return symlint::analyze_project(tus);
}

TEST(SymlintCrossTu, L1ThreeMutexCycleAcrossTwoTus) {
  const auto findings =
      analyze_fixtures({{"l1_lock_cycle_a.cpp", "src/margolite/cycle_a.cpp"},
                        {"l1_lock_cycle_b.cpp", "src/margolite/cycle_b.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << [&] {
    std::ostringstream os;
    for (const auto& f : findings) os << f.format() << "\n";
    return os.str();
  }();
  const auto& f = findings.front();
  EXPECT_EQ(symlint::rule_id(f.rule), "L1");
  // The witness starts at the canonical (lexicographically smallest) mutex:
  // the g_a -> g_b acquisition in take_ab at cycle_a.cpp:11.
  EXPECT_EQ(f.file, "src/margolite/cycle_a.cpp");
  EXPECT_EQ(f.line, 11);
  EXPECT_EQ(f.key, "cycle:g_a->g_b->g_c->g_a");
  EXPECT_NE(f.message.find("g_a -> g_b at src/margolite/cycle_a.cpp:11"),
            std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("in take_ab"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("g_c -> g_a at src/margolite/cycle_b.cpp:18"),
            std::string::npos)
      << f.message;
}

TEST(SymlintCrossTu, L1CycleSuppressedByAllowAtAnAcquisitionSite) {
  // Annotate the acquisition that closes the cycle (g_a taken while g_c is
  // held, in take_ca): an allow(lock-order) covering any witness edge kills
  // the report.
  std::string half_b = read_fixture("l1_lock_cycle_b.cpp");
  const std::string anchor = "  sym::abt::LockGuard second(g_a);";
  const auto at = half_b.find(anchor);
  ASSERT_NE(at, std::string::npos);
  half_b.insert(at,
                "  // symlint: allow(lock-order) reason=ca ordering is "
                "guarded by the window barrier\n");
  std::vector<symlint::TuIndex> tus;
  tus.push_back(symlint::build_tu_index(
      "src/margolite/cycle_a.cpp", read_fixture("l1_lock_cycle_a.cpp")));
  tus.push_back(symlint::build_tu_index("src/margolite/cycle_b.cpp", half_b));
  EXPECT_TRUE(symlint::analyze_project(tus).empty());
}

TEST(SymlintCrossTu, E1EscapedThreadLocalWithWorkerPathWitness) {
  const auto findings =
      analyze_fixtures({{"e1_escape.cpp", "src/simkit/fiber.fixture.cpp"}});
  ASSERT_EQ(findings.size(), 1u);
  const auto& f = findings.front();
  EXPECT_EQ(symlint::rule_id(f.rule), "E1");
  EXPECT_EQ(f.file, "src/simkit/fiber.fixture.cpp");
  EXPECT_EQ(f.line, 9);  // the thread_local declaration
  EXPECT_EQ(f.key, "static:src/simkit/fiber.fixture.cpp:t_scratch_depth");
  EXPECT_NE(f.message.find("thread_local"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("Worker path: worker_entry"), std::string::npos)
      << f.message;
}

TEST(SymlintCrossTu, E1SuppressedByLaneBindOrAnnotation) {
  // A lane-ownership bind in a referencing function claims the state.
  const std::string bound =
      "namespace sym::sim {\n"
      "thread_local int t_depth = 0;\n"
      "void worker_entry(void* self) {\n"
      "  sym::sim::debug::bind_home_lane(self, 0);\n"
      "  t_depth += 1;\n"
      "}\n"
      "}\n";
  std::vector<symlint::TuIndex> tus;
  tus.push_back(
      symlint::build_tu_index("src/simkit/fiber.fixture.cpp", bound));
  EXPECT_TRUE(symlint::analyze_project(tus).empty());

  // An allow(shared-state-escape) on the declaration does the same.
  const std::string annotated =
      "namespace sym::sim {\n"
      "// symlint: allow(shared-state-escape) reason=worker-confined\n"
      "thread_local int t_depth = 0;\n"
      "void worker_entry() { t_depth += 1; }\n"
      "}\n";
  tus.clear();
  tus.push_back(
      symlint::build_tu_index("src/simkit/fiber.fixture.cpp", annotated));
  EXPECT_TRUE(symlint::analyze_project(tus).empty());
}

TEST(SymlintCrossTu, T1ClockTaintReachesTimestampThroughCallAndLocal) {
  const auto findings =
      analyze_fixtures({{"t1_taint.cpp", "src/margolite/fixture_t1.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << [&] {
    std::ostringstream os;
    for (const auto& f : findings) os << f.format() << "\n";
    return os.str();
  }();
  const auto& f = findings.front();
  EXPECT_EQ(symlint::rule_id(f.rule), "T1");
  EXPECT_EQ(f.file, "src/margolite/fixture_t1.cpp");
  EXPECT_EQ(f.line, 16);  // the eng.after(delay, ...) sink
  EXPECT_EQ(f.key, "taint:src/margolite/fixture_t1.cpp:schedule_with_skew:after");
  // The allow(nondeterminism) on the source suppressed D1 but not the taint;
  // the message names the origin primitive and site.
  EXPECT_NE(f.message.find("'time' at src/margolite/fixture_t1.cpp:11"),
            std::string::npos)
      << f.message;
}

TEST(SymlintCrossTu, T1SuppressedOnlyByDeterminismTaintAllowAtSink) {
  std::string fixture = read_fixture("t1_taint.cpp");
  const std::string sink = "  eng.after(delay, [] {});";
  const auto at = fixture.find(sink);
  ASSERT_NE(at, std::string::npos);
  fixture.insert(at,
                 "  // symlint: allow(determinism-taint) reason=skew is "
                 "config, frozen before the run\n");
  std::vector<symlint::TuIndex> tus;
  tus.push_back(
      symlint::build_tu_index("src/margolite/fixture_t1.cpp", fixture));
  EXPECT_TRUE(symlint::analyze_project(tus).empty());
}

// ---------------------------------------------------------------------------
// B1 / B2: hot-path may-block / may-allocate, direct and reach faces
// ---------------------------------------------------------------------------

TEST(SymlintCrossTu, B2DirectFaceFlagsRawAllocationOnHotPathFiles) {
  // The retired per-TU D3 allocation face, now the B2 direct face: raw
  // allocation inside a lane-executed hot-path file. Placement new and the
  // annotated spill site pass.
  const auto findings =
      analyze_fixtures({{"d3_hotpath_alloc.cpp", "src/simkit/lane.cpp"}});
  ASSERT_EQ(findings.size(), 3u) << [&] {
    std::ostringstream os;
    for (const auto& f : findings) os << f.format() << "\n";
    return os.str();
  }();
  const std::vector<std::pair<int, std::string>> expected = {
      {18, "alloc:src/simkit/lane.cpp:bad_new:new"},
      {22, "alloc:src/simkit/lane.cpp:bad_malloc:malloc()"},
      {26, "alloc:src/simkit/lane.cpp:bad_realloc:realloc()"},
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(symlint::rule_id(findings[i].rule), "B2");
    EXPECT_EQ(findings[i].file, "src/simkit/lane.cpp");
    EXPECT_EQ(findings[i].line, expected[i].first) << findings[i].format();
    EXPECT_EQ(findings[i].key, expected[i].second);
  }
}

TEST(SymlintCrossTu, B2DirectFaceDoesNotApplyOffTheHotPath) {
  // The same fixture under a simkit file that is off the per-event path
  // (fiber pool): allocation there is setup cost, not steady-state cost.
  EXPECT_TRUE(
      analyze_fixtures({{"d3_hotpath_alloc.cpp", "src/simkit/fiber.cpp"}})
          .empty());
}

TEST(SymlintCrossTu, B1ReachCrossesTwoHelperHopsIntoAnotherTu) {
  // Lane::pop_and_run (hot-path root) -> flush_stage_one -> flush_stage_two
  // -> usleep(): the blocking leaf is two hops deep in a different TU, and
  // the witness chain carries file:line at every hop.
  const auto findings = analyze_fixtures(
      {{"b1_reach_root.cpp", "src/simkit/lane.fixture.cpp"},
       {"b1_reach_helper.cpp", "src/margolite/flush.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << [&] {
    std::ostringstream os;
    for (const auto& f : findings) os << f.format() << "\n";
    return os.str();
  }();
  const auto& f = findings.front();
  EXPECT_EQ(symlint::rule_id(f.rule), "B1");
  EXPECT_EQ(f.file, "src/simkit/lane.fixture.cpp");
  EXPECT_EQ(f.line, 15);  // the root definition
  EXPECT_EQ(f.key, "block:src/simkit/lane.fixture.cpp:Lane::pop_and_run");
  EXPECT_NE(
      f.message.find("Lane::pop_and_run -> flush_stage_one "
                     "[src/simkit/lane.fixture.cpp:16] -> flush_stage_two "
                     "[src/margolite/flush.cpp:12]"),
      std::string::npos)
      << f.message;
  EXPECT_NE(
      f.message.find("blocking site 'usleep()' at src/margolite/flush.cpp:8"),
      std::string::npos)
      << f.message;
}

TEST(SymlintCrossTu, B1ReachSuppressedByAllowAtTheRoot) {
  // allow(may-block) on the root definition accepts the whole reachability
  // class for that root (the site annotation works the same way).
  std::string root = read_fixture("b1_reach_root.cpp");
  const std::string anchor = "void Lane::pop_and_run() {";
  const auto at = root.find(anchor);
  ASSERT_NE(at, std::string::npos);
  root.insert(at,
              "// symlint: allow(may-block) reason=drains under the window "
              "barrier\n");
  std::vector<symlint::TuIndex> tus;
  tus.push_back(
      symlint::build_tu_index("src/simkit/lane.fixture.cpp", root));
  tus.push_back(symlint::build_tu_index("src/margolite/flush.cpp",
                                        read_fixture("b1_reach_helper.cpp")));
  EXPECT_TRUE(symlint::analyze_project(tus).empty());
}

TEST(SymlintCrossTu, B2ReachFollowsAFunctionPointerStoredInASlot) {
  // The allocating callee is never called directly — only its address is
  // taken (`slot_.emplace(&make_burst)`); the fn-ref edge carries the
  // reachability and renders as "&make_burst" in the witness chain.
  const auto findings = analyze_fixtures(
      {{"b2_fnref_spill.cpp", "src/workloads/loadgen.fixture.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << [&] {
    std::ostringstream os;
    for (const auto& f : findings) os << f.format() << "\n";
    return os.str();
  }();
  const auto& f = findings.front();
  EXPECT_EQ(symlint::rule_id(f.rule), "B2");
  EXPECT_EQ(f.file, "src/workloads/loadgen.fixture.cpp");
  EXPECT_EQ(f.line, 31);  // the root definition
  EXPECT_EQ(f.key,
            "alloc:src/workloads/loadgen.fixture.cpp:LoadgenWorld::pump_tick");
  EXPECT_NE(f.message.find("LoadgenWorld::pump_tick -> &make_burst "
                           "[src/workloads/loadgen.fixture.cpp:32]"),
            std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("allocating site 'new' at "
                           "src/workloads/loadgen.fixture.cpp:15"),
            std::string::npos)
      << f.message;
}

// ---------------------------------------------------------------------------
// P1: PVAR / action-span contract against the doc catalogue
// ---------------------------------------------------------------------------

TEST(SymlintCrossTu, P1PvarContractReportsDriftInBothDirections) {
  std::vector<symlint::TuIndex> tus;
  tus.push_back(symlint::build_tu_index("src/merclite/pvar_drift.cpp",
                                        read_fixture("p1_pvar_drift.cpp")));
  // Declares one never-registered PVAR (line 7) and span (line 13), plus
  // the policy:fixture_capacity span the fixture registers dynamically
  // ("policy:" + name expanded against add_rule literals) — no drift there.
  const std::string doc =
      "# fixture doc\n"
      "\n"
      "## PVARs\n"
      "\n"
      "| name | class |\n"
      "|---|---|\n"
      "| `fixture_documented_only_pvar` | COUNTER |\n"
      "\n"
      "## Action spans\n"
      "\n"
      "| name | notes |\n"
      "|---|---|\n"
      "| `fixture_declared_only_span` | never registered |\n"
      "| `policy:fixture_capacity` | declared dynamic expansion |\n";
  const auto findings =
      symlint::check_pvar_contract(tus, doc, "docs/PVARS.md");
  ASSERT_EQ(findings.size(), 4u) << [&] {
    std::ostringstream os;
    for (const auto& f : findings) os << f.format() << "\n";
    return os.str();
  }();
  // Sorted by file then line: the two doc-side rows first.
  EXPECT_EQ(findings[0].file, "docs/PVARS.md");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_EQ(findings[0].key, "pvar:unregistered:fixture_documented_only_pvar");
  EXPECT_EQ(findings[1].file, "docs/PVARS.md");
  EXPECT_EQ(findings[1].line, 13);
  EXPECT_EQ(findings[1].key, "span:unregistered:fixture_declared_only_span");
  EXPECT_EQ(findings[2].file, "src/merclite/pvar_drift.cpp");
  EXPECT_EQ(findings[2].line, 12);
  EXPECT_EQ(findings[2].key, "pvar:undocumented:fixture_undocumented_pvar");
  EXPECT_EQ(findings[3].file, "src/merclite/pvar_drift.cpp");
  EXPECT_EQ(findings[3].line, 15);
  EXPECT_EQ(findings[3].key, "span:undocumented:fixture_undeclared_span");
  for (const auto& f : findings) {
    EXPECT_EQ(symlint::rule_id(f.rule), "P1");
    EXPECT_EQ(f.message.find("fixture_capacity"), std::string::npos)
        << "policy:<rule> expansion should have matched: " << f.message;
  }
}

// ---------------------------------------------------------------------------
// SARIF emission and the baseline
// ---------------------------------------------------------------------------

TEST(SymlintEmit, SarifIsValidJsonWithStableStructure) {
  auto findings =
      analyze_fixtures({{"l1_lock_cycle_a.cpp", "src/margolite/cycle_a.cpp"},
                        {"l1_lock_cycle_b.cpp", "src/margolite/cycle_b.cpp"},
                        {"e1_escape.cpp", "src/simkit/fiber.fixture.cpp"},
                        {"t1_taint.cpp", "src/margolite/fixture_t1.cpp"}});
  ASSERT_EQ(findings.size(), 3u);
  const std::string sarif = symlint::to_sarif(findings);

  symlint::json::Value doc;
  std::string err;
  ASSERT_TRUE(symlint::json::parse(sarif, doc, err)) << err;
  ASSERT_EQ(doc.kind, symlint::json::Value::kObject);
  ASSERT_NE(doc.find("version"), nullptr);
  EXPECT_EQ(doc.find("version")->str, "2.1.0");

  const auto* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->arr.size(), 1u);
  const auto& run = runs->arr.front();
  const auto* driver = run.find("tool")->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->find("name")->str, "symlint");
  // A0, D1-D4, L1, E1, T1, B1, B2, P1
  EXPECT_EQ(driver->find("rules")->arr.size(), 11u);

  const auto* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->arr.size(), findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& r = results->arr[i];
    EXPECT_EQ(r.find("ruleId")->str, symlint::rule_id(findings[i].rule));
    const auto& loc = r.find("locations")->arr.front();
    const auto* phys = loc.find("physicalLocation");
    EXPECT_EQ(phys->find("artifactLocation")->find("uri")->str,
              findings[i].file);
    EXPECT_EQ(static_cast<int>(phys->find("region")->find("startLine")->number),
              findings[i].line);
    EXPECT_EQ(r.find("partialFingerprints")->find("symlintKey")->str,
              findings[i].key);
  }
}

TEST(SymlintEmit, BaselineSuppressesByKeyAndReportsStaleEntries) {
  auto findings =
      analyze_fixtures({{"e1_escape.cpp", "src/simkit/fiber.fixture.cpp"},
                        {"t1_taint.cpp", "src/margolite/fixture_t1.cpp"}});
  ASSERT_EQ(findings.size(), 2u);

  const std::string text = R"({
    "findings": [
      {"rule": "E1", "file": "src/simkit/fiber.fixture.cpp",
       "key": "static:src/simkit/fiber.fixture.cpp:t_scratch_depth",
       "reason": "fixture"},
      {"rule": "L1", "file": "src/nowhere.cpp", "key": "cycle:x->y->x",
       "reason": "stale"}
    ]
  })";
  symlint::Baseline baseline;
  std::string err;
  ASSERT_TRUE(symlint::load_baseline(text, baseline, err)) << err;

  std::vector<const symlint::BaselineEntry*> unused;
  const auto suppressed =
      symlint::apply_baseline(baseline, findings, &unused);
  EXPECT_EQ(suppressed, 1u);
  ASSERT_EQ(findings.size(), 1u);  // the T1 survives
  EXPECT_EQ(symlint::rule_id(findings.front().rule), "T1");
  ASSERT_EQ(unused.size(), 1u);  // the stale L1 entry is reported
  EXPECT_EQ(unused.front()->rule, "L1");
}

TEST(SymlintEmit, SerializeBaselineRoundTripsAndPreservesComment) {
  // --prune-baseline rewrites the file through serialize_baseline; the
  // canonical form must survive a load round-trip, comment included.
  symlint::Baseline b;
  b.comment = "triage ledger";
  symlint::BaselineEntry e;
  e.rule = "E1";
  e.file = "src/x.cpp";
  e.key = "static:src/x.cpp:g_state";
  e.reason = "fixture";
  b.entries.push_back(e);
  const std::string text = symlint::serialize_baseline(b);
  symlint::Baseline back;
  std::string err;
  ASSERT_TRUE(symlint::load_baseline(text, back, err)) << err << "\n" << text;
  EXPECT_EQ(back.comment, "triage ledger");
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries.front().rule, "E1");
  EXPECT_EQ(back.entries.front().key, "static:src/x.cpp:g_state");
  EXPECT_EQ(back.entries.front().reason, "fixture");
}

TEST(SymlintEmit, MalformedBaselineIsAnError) {
  symlint::Baseline baseline;
  std::string err;
  EXPECT_FALSE(symlint::load_baseline("{\"findings\": [{}]}", baseline, err));
  EXPECT_FALSE(symlint::load_baseline("not json", baseline, err));
  EXPECT_FALSE(symlint::load_baseline("[]", baseline, err));
}

// The repository itself must stay clean: this is the same gate the `symlint`
// ctest target enforces via the CLI, asserted here against the real tree so
// a lint regression fails in-process with the offending findings printed.
TEST(Symlint, RepositorySourceTreeIsClean) {
  // Walk the list the CLI would: every .cpp/.hpp under src/.
  const std::string root = std::string(SYM_SOURCE_DIR) + "/src";
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp" && ext != ".h" && ext != ".cc") {
      continue;
    }
    const auto tu = symlint::index_file(entry.path().string());
    for (const auto& f : tu.tu_findings) ADD_FAILURE() << f.format();
  }
}

}  // namespace
