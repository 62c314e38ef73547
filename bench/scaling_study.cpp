// scaling_study: weak-scaling sweep of the sharded (multi-lane) engine.
//
// The HEPnOS data-loader workload is grown with the cluster (per-node work
// held constant: one process per node, a fixed event volume per client)
// while the engine runs with one lane per node and an increasing worker
// pool. For every (nodes, workers) cell we record the simulated makespan,
// the host wall-clock of world.run(), the event throughput and the
// window-protocol counters (windows executed, mailbox pairs merged, quiet
// extensions, causality clamps); the speedup column is
// wall(workers=1) / wall(workers=N) at the same node count.
//
// The ablation section compares each full-mode node scale with the
// recorded window counts of the global-lookahead lockstep protocol and its
// dense lanes^2 merge sweep (kLegacyWindows* below):
//   window_ratio = legacy windows / matrix windows
//   pair_ratio   = legacy windows * lanes * (lanes-1) / matrix merge pairs
// (the dense sweep visited every (dst, src) pair every window; the sparse
// sweep visits only pairs that actually received a post).
//
// The safe-window protocol guarantees bit-identical simulations for every
// worker count, so the sweep doubles as a large-scale determinism check:
// events_processed and the event digest (a fold of every executed event's
// timestamp and FIFO sequence, kept in every build) must match across the
// worker column or the bench fails. The sparse merge must also never visit
// more pairs than the lanes registered dirty — both gates run in smoke
// mode, so CI catches a regression.
//
// Workers beyond the host's cores time-slice and cannot beat workers=1, so
// the parallel-efficiency target (>= 2.5x at 4 workers, >= 64 nodes) is
// evaluated only when host_cpus >= 4 and recorded as SKIPPED otherwise —
// see EXPERIMENTS.md. The window/pair-ratio gates (>= 5x fewer windows,
// >= 10x fewer merged pairs at 64 nodes) are host-independent; smoke mode
// has no recorded legacy counts and records them as SKIPPED.
//
// Results land in BENCH_scaling.json (override with --out PATH), with
// host_cpus and every gate verdict. --smoke shrinks node counts and event
// volumes for CI.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "workloads/hepnos_world.hpp"

using namespace bench;

namespace {

// Window counts of the lockstep protocol (global lookahead, no quiet
// extension), which the engine no longer has, on this bench's full-mode
// deployments, as recorded in the weak-scaling table of EXPERIMENTS.md. A
// schedule is a pure function of deployment and seed, so they are exact.
constexpr std::uint64_t kLegacyWindows16Nodes = 501;
constexpr std::uint64_t kLegacyWindows64Nodes = 974;

/// Recorded legacy window count for a node scale; 0 if none.
std::uint64_t legacy_windows(std::uint32_t nodes, bool smoke) {
  if (smoke) return 0;
  return nodes == 16 ? kLegacyWindows16Nodes
         : nodes == 64 ? kLegacyWindows64Nodes
                       : 0;
}

struct Cell {
  std::uint32_t nodes = 0;
  std::uint32_t lanes = 0;
  std::uint32_t workers = 0;
  double virtual_ms = 0;  ///< simulated data-loader makespan
  double wall_ms = 0;     ///< host wall-clock of world.run()
  std::uint64_t events_processed = 0;
  std::uint64_t events_stored = 0;
  std::uint64_t windows = 0;
  std::uint64_t merge_pairs = 0;   ///< (dst, src) pairs the merge absorbed
  std::uint64_t dirty_pairs = 0;   ///< pairs registered by first posts
  std::uint64_t quiet_windows = 0; ///< windows stretched by quiet extension
  std::uint64_t clamps = 0;        ///< events clamped by a lost extension bet
  std::uint64_t digest = 0;        ///< Engine::event_digest()
  std::uint64_t allocations = 0;   ///< arena growths + SmallFn heap spills
  double alloc_per_event = 0;      ///< allocations / events_processed
  std::uint64_t peak_rss = 0;      ///< ru_maxrss after the cell (monotonic)
  double speedup_vs_1w = 0;
};

struct Ablation {
  std::uint32_t nodes = 0;
  std::uint32_t lanes = 0;
  std::uint64_t legacy_windows = 0;
  std::uint64_t legacy_dense_pairs = 0;  ///< windows * lanes * (lanes-1)
  std::uint64_t matrix_windows = 0;
  std::uint64_t matrix_merge_pairs = 0;
  double window_ratio = 0;
  double pair_ratio = 0;
};

/// Weak-scaling deployment: one process per node, a quarter of the nodes
/// serve, the rest run data-loader clients.
sym::workloads::HepnosWorld::Params scaled_params(std::uint32_t nodes,
                                                  std::uint32_t workers,
                                                  bool smoke) {
  const std::uint32_t servers = nodes / 4;
  sym::workloads::HepnosWorld::Params p;
  p.config.name = "weak-scaling";
  p.config.total_servers = servers;
  p.config.servers_per_node = 1;
  p.config.total_clients = nodes - servers;
  p.config.clients_per_node = 1;
  p.config.databases = 2 * servers;
  p.config.threads_es = 4;
  p.config.batch_size = 512;
  p.file_model.events_per_file = smoke ? 16 : 96;
  p.file_model.payload_bytes = 256;
  p.files_per_client = 1;
  p.seed = 42;
  p.exec.lane_count = 0;  // one lane per node
  p.exec.worker_count = workers;
  // Deeper speculation than the engine default: the study measures how far
  // adaptive extension can push window count down. Fidelity cost is tracked
  // in the causality_clamps column.
  p.exec.quiet_extension_cap = 16;
  return p;
}

Cell run_cell(std::uint32_t nodes, std::uint32_t workers, bool smoke) {
  Cell c;
  c.nodes = nodes;
  c.workers = workers;
  sym::workloads::HepnosWorld world(scaled_params(nodes, workers, smoke));
  c.lanes = world.engine().lane_count();
  const auto t0 = std::chrono::steady_clock::now();
  world.run();
  const auto t1 = std::chrono::steady_clock::now();
  c.virtual_ms = sim::to_millis(world.makespan());
  c.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  c.events_processed = world.engine().events_processed();
  c.events_stored = world.events_stored();
  c.windows = world.engine().windows_executed();
  c.merge_pairs = world.engine().merge_pairs_visited();
  c.dirty_pairs = world.engine().dirty_pairs_posted();
  c.quiet_windows = world.engine().quiet_extended_windows();
  c.clamps = world.engine().causality_clamps();
  c.digest = world.engine().event_digest();
  c.allocations = world.engine().arena_stats().allocations();
  c.alloc_per_event =
      c.events_processed > 0
          ? static_cast<double>(c.allocations) / c.events_processed
          : 0;
  c.peak_rss = peak_rss_bytes();
  return c;
}

void print_cell(const Cell& c) {
  std::printf("nodes %3u  lanes %3u  workers %u  virtual %9.3f ms  "
              "wall %8.2f ms  events %9llu  windows %7llu  pairs %8llu  "
              "speedup x%.2f\n",
              c.nodes, c.lanes, c.workers, c.virtual_ms, c.wall_ms,
              static_cast<unsigned long long>(c.events_processed),
              static_cast<unsigned long long>(c.windows),
              static_cast<unsigned long long>(c.merge_pairs), c.speedup_vs_1w);
}

void write_cell(JsonWriter& json, const Cell& c) {
  json.begin_object()
      .field("nodes", c.nodes)
      .field("lanes", c.lanes)
      .field("workers", c.workers)
      .field("protocol", "matrix")
      .field("virtual_ms", c.virtual_ms)
      .field("wall_ms", c.wall_ms)
      .field("events_processed", c.events_processed)
      .field("events_stored", c.events_stored)
      .field("windows", c.windows)
      .field("merge_pairs", c.merge_pairs)
      .field("dirty_pairs", c.dirty_pairs)
      .field("quiet_windows", c.quiet_windows)
      .field("causality_clamps", c.clamps)
      .field("allocations", c.allocations)
      .field("alloc_per_event", c.alloc_per_event)
      .field("peak_rss_bytes", c.peak_rss)
      .field("speedup_vs_1w", c.speedup_vs_1w)
      .end();
}

}  // namespace

int main(int argc, char** argv) {
  Report report("scaling_study",
                parse_study_args(argc, argv, "BENCH_scaling.json"));
  const bool smoke = report.smoke();

  print_header("HEPnOS weak scaling: lanes x workers sweep",
               "sharded-engine scaling study");

  const unsigned host_cpus = report.host_cpus();
  const std::vector<std::uint32_t> node_scales =
      smoke ? std::vector<std::uint32_t>{8, 16}
            : std::vector<std::uint32_t>{16, 64};
  const std::uint32_t worker_scales[] = {1, 2, 4, 8};

  std::printf("host cpus: %u%s\n\n", host_cpus,
              host_cpus < 4 ? "  (speedup columns are time-sliced; see "
                              "EXPERIMENTS.md)"
                            : "");

  auto& json = report.json();
  json.begin_array("cells");
  std::vector<Ablation> ablations;
  bool deterministic = true;
  bool merge_sparse = true;
  double speedup_4w_large = 0;
  double window_ratio_large = 0;
  double pair_ratio_large = 0;
  for (const auto nodes : node_scales) {
    Ablation ab;
    ab.nodes = nodes;
    ab.legacy_windows = legacy_windows(nodes, smoke);

    double wall_1w = 0;
    std::uint64_t events_1w = 0;
    std::uint64_t digest_1w = 0;
    for (const auto workers : worker_scales) {
      Cell c = run_cell(nodes, workers, smoke);
      if (workers == 1) {
        wall_1w = c.wall_ms;
        events_1w = c.events_processed;
        digest_1w = c.digest;
        ab.lanes = c.lanes;
        ab.matrix_windows = c.windows;
        ab.matrix_merge_pairs = c.merge_pairs;
      }
      c.speedup_vs_1w = c.wall_ms > 0 ? wall_1w / c.wall_ms : 0;
      if (c.events_processed != events_1w || c.digest != digest_1w) {
        deterministic = false;
      }
      if (c.merge_pairs > c.dirty_pairs) merge_sparse = false;
      if (workers == 4 && nodes >= 64) speedup_4w_large = c.speedup_vs_1w;
      print_cell(c);
      write_cell(json, c);
    }
    if (ab.legacy_windows == 0) continue;  // no recorded reference

    ab.legacy_dense_pairs = ab.legacy_windows *
                            static_cast<std::uint64_t>(ab.lanes) *
                            (ab.lanes - 1);
    ab.window_ratio =
        ab.matrix_windows > 0
            ? static_cast<double>(ab.legacy_windows) /
                  static_cast<double>(ab.matrix_windows)
            : 0;
    ab.pair_ratio =
        ab.matrix_merge_pairs > 0
            ? static_cast<double>(ab.legacy_dense_pairs) /
                  static_cast<double>(ab.matrix_merge_pairs)
            : 0;
    std::printf("  ablation @ %u nodes (recorded legacy): windows %llu -> "
                "%llu (x%.1f), merge pairs %llu -> %llu (x%.1f)\n",
                nodes, static_cast<unsigned long long>(ab.legacy_windows),
                static_cast<unsigned long long>(ab.matrix_windows),
                ab.window_ratio,
                static_cast<unsigned long long>(ab.legacy_dense_pairs),
                static_cast<unsigned long long>(ab.matrix_merge_pairs),
                ab.pair_ratio);
    if (nodes >= 64) {
      window_ratio_large = ab.window_ratio;
      pair_ratio_large = ab.pair_ratio;
    }
    ablations.push_back(ab);
  }
  json.end();
  json.begin_array("ablation");
  for (const auto& a : ablations) {
    json.begin_object()
        .field("nodes", a.nodes)
        .field("lanes", a.lanes)
        .field("legacy_windows", a.legacy_windows)
        .field("legacy_dense_pairs", a.legacy_dense_pairs)
        .field("matrix_windows", a.matrix_windows)
        .field("matrix_merge_pairs", a.matrix_merge_pairs)
        .field("window_ratio", a.window_ratio)
        .field("pair_ratio", a.pair_ratio)
        .end();
  }
  json.end();

  std::printf("\n");
  report.gate("determinism", deterministic,
              "determinism: events_processed and digest identical across "
              "all worker counts");
  report.gate("sparse_merge", merge_sparse,
              "sparse merge: pairs visited <= pairs registered dirty in "
              "every cell");
  if (smoke) {
    report.skip("window_ratio", "smoke run has no recorded legacy reference");
    report.skip("pair_ratio", "smoke run has no recorded legacy reference");
  } else {
    report.gate("window_ratio", window_ratio_large >= 5.0,
                "acceptance: window ratio at >=64 nodes: x%.1f >= 5",
                window_ratio_large);
    report.gate("pair_ratio", pair_ratio_large >= 10.0,
                "acceptance: merge-pair ratio at >=64 nodes: x%.1f >= 10",
                pair_ratio_large);
  }
  if (smoke || host_cpus < 4) {
    report.skip("speedup_4w",
                smoke ? "smoke run" : "host has fewer than 4 cpus");
  } else {
    report.gate("speedup_4w", speedup_4w_large >= 2.5,
                "acceptance: speedup at 4 workers / >=64 nodes: x%.2f >= 2.5",
                speedup_4w_large);
  }
  return report.finish();
}
