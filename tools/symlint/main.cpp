// symlint CLI. Usage:
//
//   symlint [--root DIR]... [--baseline FILE] [--sarif FILE]
//           [--pvars-doc FILE] [--prune-baseline] [FILE]...
//
// One cold pass: every .cpp/.hpp under each --root (recursively) plus any
// explicit files is read and indexed (pass 1, which also runs the per-TU
// rules of pass 0); pass 2 runs the interprocedural rules over the whole
// index (L1 lock-order, E1 shared-state-escape, T1 determinism-taint, B1/B2
// hot-path may-block/may-allocate, and — when --pvars-doc names the PVAR
// catalogue — P1 pvar-contract). Findings print one per line, optionally
// also as SARIF 2.1.0, and are gated by the checked-in baseline; a baseline
// entry that matches nothing is itself a gate failure (fix the baseline, or
// pass --prune-baseline to rewrite it without the stale entries). Exits 1
// if any unbaselined finding survives the allow() annotations or the
// baseline is stale, 2 on usage errors (an unknown option, a missing
// option argument, a directory given as an input file). Run as the
// `symlint` ctest target over src/ (see tools/symlint/CMakeLists.txt and
// scripts/run_lint.sh).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "emit.hpp"
#include "index.hpp"
#include "lint.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;

namespace {

bool read_text(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string baseline_path;
  std::string sarif_path;
  std::string pvars_doc_path;
  bool prune_baseline = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "symlint: %s requires %s\n", arg.c_str(), what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const fs::path root = next("a directory");
      std::error_code ec;
      if (!fs::is_directory(root, ec)) {
        std::fprintf(stderr, "symlint: not a directory: %s\n",
                     root.string().c_str());
        return 2;
      }
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file()) continue;
        const auto ext = entry.path().extension().string();
        if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc") {
          files.push_back(entry.path().string());
        }
      }
    } else if (arg == "--baseline") {
      baseline_path = next("a file");
    } else if (arg == "--sarif") {
      sarif_path = next("a file");
    } else if (arg == "--pvars-doc") {
      pvars_doc_path = next("a file");
    } else if (arg == "--prune-baseline") {
      prune_baseline = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: symlint [--root DIR]... [--baseline FILE] [--sarif FILE]\n"
          "               [--pvars-doc FILE] [--prune-baseline] [FILE]...\n");
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::fprintf(stderr, "symlint: unknown option %s (try --help)\n",
                   arg.c_str());
      return 2;
    } else {
      // A directory would read as an empty file and lint nothing.
      std::error_code ec;
      if (fs::is_directory(arg, ec)) {
        std::fprintf(stderr,
                     "symlint: %s is a directory (use --root to scan it)\n",
                     arg.c_str());
        return 2;
      }
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "symlint: no inputs (try --root src)\n");
    return 2;
  }
  std::sort(files.begin(), files.end());  // deterministic report order
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<symlint::TuIndex> tus;
  tus.reserve(files.size());
  for (const auto& path : files) tus.push_back(symlint::index_file(path));

  std::vector<symlint::Finding> findings;
  for (const auto& tu : tus) {
    findings.insert(findings.end(), tu.tu_findings.begin(),
                    tu.tu_findings.end());
  }
  for (auto& f : symlint::analyze_project(tus)) {
    findings.push_back(std::move(f));
  }
  if (!pvars_doc_path.empty()) {
    std::string doc;
    if (!read_text(pvars_doc_path, doc)) {
      std::fprintf(stderr, "symlint: cannot read pvars doc %s\n",
                   pvars_doc_path.c_str());
      return 2;
    }
    for (auto& f : symlint::check_pvar_contract(tus, doc, pvars_doc_path)) {
      findings.push_back(std::move(f));
    }
  }
  symlint::sort_findings(findings);

  std::size_t baselined = 0;
  symlint::Baseline baseline;
  std::vector<const symlint::BaselineEntry*> unused;
  if (!baseline_path.empty()) {
    std::string text;
    if (!read_text(baseline_path, text)) {
      std::fprintf(stderr, "symlint: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::string err;
    if (!symlint::load_baseline(text, baseline, err)) {
      std::fprintf(stderr, "symlint: %s\n", err.c_str());
      return 2;
    }
    baselined = symlint::apply_baseline(baseline, findings, &unused);
  }

  if (!sarif_path.empty()) {
    std::ofstream sarif(sarif_path, std::ios::binary | std::ios::trunc);
    if (!sarif) {
      std::fprintf(stderr, "symlint: cannot write %s\n", sarif_path.c_str());
      return 2;
    }
    sarif << symlint::to_sarif(findings);
  }

  for (const auto& f : findings) std::printf("%s\n", f.format().c_str());
  bool stale = false;
  for (const auto* entry : unused) {
    std::printf(
        "symlint: stale baseline entry (matched nothing): rule=%s file=%s "
        "key=%s\n",
        entry->rule.c_str(), entry->file.c_str(), entry->key.c_str());
    stale = true;
  }
  if (stale && prune_baseline) {
    std::set<const symlint::BaselineEntry*> drop(unused.begin(),
                                                 unused.end());
    symlint::Baseline pruned;
    pruned.comment = baseline.comment;
    for (const auto& e : baseline.entries) {
      if (drop.count(&e) == 0) pruned.entries.push_back(e);
    }
    std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "symlint: cannot rewrite baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    out << symlint::serialize_baseline(pruned);
    std::printf("symlint: pruned %zu stale baseline entr%s from %s\n",
                unused.size(), unused.size() == 1 ? "y" : "ies",
                baseline_path.c_str());
    stale = false;
  }
  if (!findings.empty() || stale) {
    std::printf("symlint: %zu finding(s) in %zu file(s) scanned",
                findings.size(), files.size());
    if (baselined != 0) std::printf(" (%zu baselined)", baselined);
    if (stale) std::printf(" (stale baseline entries fail the gate)");
    std::printf("\n");
    return 1;
  }
  std::printf("symlint: OK (%zu files scanned", files.size());
  if (baselined != 0) std::printf(", %zu baselined", baselined);
  std::printf(")\n");
  return 0;
}
