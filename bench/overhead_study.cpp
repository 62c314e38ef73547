// overhead_study: the §VI-B staged overhead study on the Mobject write
// workload.
//
// The ior+Mobject write workload runs at each of the four measurement
// stages (§VI-B):
//   OFF      instrumentation and measurement disabled
//   STAGE1   metadata (breadcrumb / trace id) propagation only
//   STAGE2   callpath profiling, tracing, system sampling; no PVARs
//   FULL     everything, PVARs integrated on the fly
// For each stage we report the virtual-time makespan (what the simulated
// instrumentation costs do to the workload) and the host wall-clock (what
// the measurement pipeline itself costs the simulator process). The paper's
// acceptance bar is FULL <= 1.5x OFF.
//
// The profile store's host cost per record is timed by the
// BM_ProfileStoreRecord* micro benchmarks (bench/micro_benchmarks.cpp).
//
// Results are emitted to BENCH_overhead.json (override with --out PATH).
// --smoke shrinks every iteration count for CI.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "workloads/mobject_world.hpp"

using namespace bench;

namespace {

struct StageResult {
  double virtual_ms = 0;   ///< mean simulated makespan
  double wall_ms = 0;      ///< mean host wall-clock of world.run()
  std::size_t trace_events = 0;
  std::size_t profile_entries = 0;
};

StageResult run_stage(prof::Level level, bool smoke) {
  sym::workloads::MobjectWorld::Params p;
  p.ior.clients = smoke ? 4 : 16;
  p.ior.ops_per_client = smoke ? 4 : 64;
  p.ior.object_bytes = 64 * 1024;
  p.ior.read_fraction = 0.0;  // pure write workload (§V-A write path)
  p.instr = level;

  const int repeats = smoke ? 1 : 3;
  StageResult res;
  for (int r = 0; r < repeats; ++r) {
    p.seed = 42 + 1000ULL * static_cast<std::uint64_t>(r);
    sym::workloads::MobjectWorld world(p);
    const auto t0 = std::chrono::steady_clock::now();
    world.run();
    const auto t1 = std::chrono::steady_clock::now();
    res.virtual_ms += sim::to_millis(world.makespan());
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

  print_header("Mobject writes: measurement overhead per stage",
               "§VI-B staged overhead study");

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
    std::printf("%-8s virtual %9.3f ms (x%.3f vs OFF)  wall %8.2f ms  "
                "trace events %6zu  profile entries %4zu\n",
                prof::to_string(level), r.virtual_ms, slowdown, r.wall_ms,
                r.trace_events, r.profile_entries);
    json.begin_object()
        .field("level", prof::to_string(level))
        .field("virtual_ms", r.virtual_ms)
        .field("wall_ms", r.wall_ms)
        .field("slowdown_vs_off", slowdown)
        .field("trace_events", r.trace_events)
        .field("profile_entries", r.profile_entries)
        .end();
  }
  json.end();

  std::printf("\n");
  report.gate("full_slowdown", slowdown <= 1.5,
              "acceptance: FULL slowdown %.3f <= 1.5x OFF", slowdown);
  return report.finish();
}
