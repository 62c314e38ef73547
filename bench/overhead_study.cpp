// overhead_study: the §VI-B staged overhead study (Fig. 13) on the
// large-scale HEPnOS data-loader.
//
// Paper setup: 32 providers over 16 nodes, 224 data-loader clients over 112
// nodes, 30 ESs, 16 databases per provider, batch 8192. Stages:
//   OFF      instrumentation and measurement disabled
//   STAGE1   metadata (breadcrumb / trace id) propagation only
//   STAGE2   callpath profiling, tracing, system sampling; no PVARs
//   FULL     everything, PVARs integrated on the fly
// The paper's finding: even with ~1M trace samples, overheads are minimal
// and indistinguishable from run-to-run variation.
//
// The world is bench::overhead_params(): the paper's client:server ratio
// and batch size at a quarter of its topology and a bench-scale event volume,
// so the study completes in seconds (the stage ratios are what matters).
// Each stage runs three seeds (the paper averages five runs). For each stage
// we report the virtual-time makespan over the seeds (what the simulated
// instrumentation costs do to the workload) and the mean host wall-clock of
// world.run() (what the measurement pipeline itself costs the simulator
// process). The acceptance bar is FULL <= 1.5x OFF.
//
// The profile store's host cost per record is timed by the
// BM_ProfileStoreRecord* micro benchmarks (bench/micro_benchmarks.cpp).
//
// Results are emitted to BENCH_overhead.json (override with --out PATH).
// --smoke runs the smoke-sized world on one seed for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/common.hpp"

using namespace bench;

namespace {

struct StageResult {
  double virtual_ms = 0;   ///< mean simulated makespan over the seeds
  double virtual_min_ms = 0;
  double virtual_max_ms = 0;
  double wall_ms = 0;      ///< mean host wall-clock of world.run()
  std::size_t trace_events = 0;
  std::size_t profile_entries = 0;
};

StageResult run_stage(prof::Level level, bool smoke) {
  const int repeats = smoke ? 1 : 3;
  StageResult res;
  for (int r = 0; r < repeats; ++r) {
    const std::uint64_t seed = 42 + 1000ULL * static_cast<std::uint64_t>(r);
    sym::workloads::HepnosWorld world(overhead_params(smoke, level, seed));
    const auto t0 = std::chrono::steady_clock::now();
    world.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = sim::to_millis(world.makespan());
    res.virtual_ms += ms;
    res.virtual_min_ms = r == 0 ? ms : std::min(res.virtual_min_ms, ms);
    res.virtual_max_ms = std::max(res.virtual_max_ms, ms);
    res.wall_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0) {
      for (const auto* t : world.all_traces()) res.trace_events += t->size();
      for (const auto* s : world.all_profiles()) {
        res.profile_entries += s->size();
      }
    }
  }
  res.virtual_ms /= repeats;
  res.wall_ms /= repeats;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Report report("overhead_study",
                parse_study_args(argc, argv, "BENCH_overhead.json"));
  const bool smoke = report.smoke();

  print_header(
      "HEPnOS: data-loader execution time under the four measurement stages",
      "Fig. 13 / §VI-B; paper: overheads minimal, within run-to-run "
      "variation");

  const prof::Level levels[] = {prof::Level::kOff, prof::Level::kStage1,
                                prof::Level::kStage2, prof::Level::kFull};
  auto& json = report.json();
  json.begin_array("stages");
  double off_virtual = 0;
  double slowdown = 0;  // of the last (FULL) stage after the loop
  for (const auto level : levels) {
    const StageResult r = run_stage(level, smoke);
    if (level == prof::Level::kOff) off_virtual = r.virtual_ms;
    slowdown = off_virtual > 0 ? r.virtual_ms / off_virtual : 0;
    std::printf("%-13s virtual mean %8.3f ms [min %8.3f, max %8.3f] "
                "overhead %+5.2f%%  wall %8.2f ms  trace events %6zu  "
                "profile entries %4zu\n",
                prof::to_string(level), r.virtual_ms, r.virtual_min_ms,
                r.virtual_max_ms, 100.0 * (slowdown - 1.0), r.wall_ms,
                r.trace_events, r.profile_entries);
    json.begin_object()
        .field("level", prof::to_string(level))
        .field("virtual_ms", r.virtual_ms)
        .field("virtual_min_ms", r.virtual_min_ms)
        .field("virtual_max_ms", r.virtual_max_ms)
        .field("wall_ms", r.wall_ms)
        .field("slowdown_vs_off", slowdown)
        .field("trace_events", r.trace_events)
        .field("profile_entries", r.profile_entries)
        .end();
  }
  json.end();

  std::printf("\n(run-to-run spread across seeds provides the variation band "
              "the paper compares against)\n");
  report.gate("full_slowdown", slowdown <= 1.5,
              "acceptance: FULL slowdown %.3f <= 1.5x OFF", slowdown);
  return report.finish();
}
