// scale_study: the million-request open-loop scale sweep.
//
// Drives the loadgen worlds (workloads/loadgen) through a ladder of
// (nodes, client population) cells up to >= 1,000,000 concurrent in-flight
// requests on >= 128 simulated nodes, plus one mix cell per replayed
// application preset (docs/SCENARIOS.md). For every cell it records:
//
//   * in_flight / peak_queued — open-loop pressure at the horizon,
//   * events/sec host throughput (wall clock, reported but never gated),
//   * allocations-per-event from the engine's arena counters — a pure
//     simulation-state metric (vector growths + SmallFn heap spills per
//     executed event), identical for every worker count,
//   * steady-state allocations: the same counter restricted to the second
//     half of the horizon. Each cell first runs a warmup world to learn the
//     arena high-water marks, then pre-sizes the measured worlds with them;
//     after the midpoint every slot, heap entry, outbox and request record
//     recycles, so the acceptance gate is steady_allocations == 0 (the
//     million-request hot path does no malloc/free after warmup),
//   * peak_rss_bytes (getrusage ru_maxrss) — process-wide high-water, so
//     cells are swept smallest-to-largest to keep the column meaningful,
//   * arrival/completion checksums, gated bit-identical across the
//     1/2/4/8-worker column (the release-build determinism witness).
//
// The mix cells also print the per-scenario dominant-callpath table: per-op
// requests, bytes, busy/queue time and the busy-time share that makes one
// op class the scenario's dominant callpath.
//
// Results land in BENCH_scale.json (override with --out PATH). --smoke
// shrinks the ladder for CI but keeps every gate armed.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "simkit/dheap.hpp"
#include "workloads/loadgen/loadgen.hpp"

using namespace bench;
namespace lg = sym::workloads::loadgen;

namespace {

std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

struct Cell {
  const char* scenario = "";
  std::uint32_t nodes = 0;
  std::uint32_t lanes = 0;
  std::uint32_t workers = 0;
  std::uint64_t clients = 0;
  double horizon_ms = 0;
  double wall_ms = 0;
  std::uint64_t events = 0;
  double events_per_sec = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t peak_queued = 0;
  std::uint64_t request_slots = 0;
  std::uint64_t allocs = 0;         ///< whole-run arena allocations
  std::uint64_t steady_allocs = 0;  ///< second-half arena allocations
  std::uint64_t steady_events = 0;  ///< second-half executed events
  double alloc_per_event = 0;
  std::uint64_t request_growths = 0;  ///< request-arena vector reallocations
  std::uint64_t arrival_ck = 0;
  std::uint64_t completion_ck = 0;
  std::uint64_t clamps = 0;
  std::uint64_t rss_peak = 0;
};

struct CellSpec {
  const lg::Scenario* scenario;
  std::uint32_t nodes;
  std::uint64_t clients;
  sim::DurationNs horizon;
};

sim::DurationNs cycle_of(const lg::Scenario& sc) {
  sim::DurationNs total = 0;
  for (const auto& ph : sc.phases) total += ph.duration;
  return total;
}

/// Capacity plan learned from a warmup run: the measured worlds pre-size
/// every container to its observed high-water mark (with headroom), so the
/// steady-state allocation gate can demand exactly zero.
struct ReservePlan {
  std::vector<std::uint32_t> events_by_lane;
  std::vector<std::uint32_t> outbox_matrix;
  std::uint32_t requests_per_server = 0;
};

lg::LoadgenParams make_params(const CellSpec& spec, std::uint32_t workers,
                              const ReservePlan& plan) {
  lg::LoadgenParams p;
  p.scenario = *spec.scenario;
  p.node_count = spec.nodes;
  p.client_population = spec.clients;
  p.horizon = spec.horizon;
  p.reserve_events_by_lane = plan.events_by_lane;
  p.reserve_outbox_matrix = plan.outbox_matrix;
  p.reserve_requests_per_server = plan.requests_per_server;
  p.seed = 42;
  p.exec.lane_count = 0;  // one lane per node
  p.exec.worker_count = workers;
  return p;
}

/// Run one measured cell. The horizon is split at its midpoint so the
/// second-half allocation delta isolates steady state from warmup.
Cell run_cell(const CellSpec& spec, std::uint32_t workers,
              const ReservePlan& plan) {
  lg::LoadgenWorld world(make_params(spec, workers, plan));
  Cell c;
  c.scenario = spec.scenario->name;
  c.nodes = spec.nodes;
  c.lanes = world.engine().lane_count();
  c.workers = workers;
  c.clients = spec.clients;
  c.horizon_ms = sim::to_millis(spec.horizon);

  const auto t0 = std::chrono::steady_clock::now();
  world.engine().run_until(spec.horizon / 2);
  const auto mid_stats = world.engine().arena_stats();
  const std::uint64_t mid_events = world.engine().events_processed();
  world.engine().run_until(spec.horizon);
  const auto t1 = std::chrono::steady_clock::now();
  const auto end_stats = world.engine().arena_stats();

  c.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  c.events = world.engine().events_processed();
  c.events_per_sec = c.wall_ms > 0 ? c.events / (c.wall_ms / 1e3) : 0;
  c.generated = world.generated();
  c.completed = world.completed();
  c.in_flight = world.in_flight();
  c.peak_queued = world.peak_queued();
  c.request_slots = world.request_slots();
  c.allocs = end_stats.allocations();
  c.steady_allocs = end_stats.allocations() - mid_stats.allocations();
  c.steady_events = c.events - mid_events;
  c.alloc_per_event = c.events > 0 ? static_cast<double>(c.allocs) / c.events : 0;
  c.arrival_ck = world.arrival_checksum();
  c.completion_ck = world.completion_checksum();
  c.clamps = world.engine().causality_clamps();
  c.rss_peak = peak_rss_bytes();
  c.request_growths = world.request_growths();
  return c;
}

/// Warmup pass: learn the per-lane slot, per-pair outbox and per-server
/// request high-water marks so the measured worlds can pre-size every
/// container.
ReservePlan warmup_reserves(const CellSpec& spec) {
  lg::LoadgenWorld warm(make_params(spec, 1, ReservePlan{}));
  warm.engine().run_until(spec.horizon);
  ReservePlan plan;
  const std::uint32_t lanes = warm.engine().lane_count();
  plan.events_by_lane.resize(lanes);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    plan.events_by_lane[l] = static_cast<std::uint32_t>(
        warm.engine().arena_slot_count(l) * 2 + 64);
  }
  plan.outbox_matrix = warm.engine().outbox_highwater();
  for (auto& hw : plan.outbox_matrix) {
    if (hw != 0) hw = hw * 2 + 16;
  }
  plan.requests_per_server = static_cast<std::uint32_t>(
      warm.request_slots() / warm.server_count() * 2 + 256);
  return plan;
}

void print_cell(const Cell& c) {
  std::printf(
      "%-18s nodes %3u workers %u  gen %8llu  done %7llu  inflight %8llu  "
      "wall %8.1f ms  %9.0f ev/s  alloc/ev %.5f  steady %llu  rss %5.0f MiB\n",
      c.scenario, c.nodes, c.workers,
      static_cast<unsigned long long>(c.generated),
      static_cast<unsigned long long>(c.completed),
      static_cast<unsigned long long>(c.in_flight), c.wall_ms,
      c.events_per_sec, c.alloc_per_event,
      static_cast<unsigned long long>(c.steady_allocs),
      static_cast<double>(c.rss_peak) / (1024.0 * 1024.0));
}

struct MixReport {
  const char* scenario = "";
  const char* summary = "";
  std::vector<lg::OpTotals> ops;
  std::vector<const char*> op_names;
  std::vector<const char*> op_services;
  std::uint32_t dominant = 0;
};

void print_mix(const MixReport& m) {
  std::uint64_t busy_total = 0;
  for (const auto& ot : m.ops) busy_total += ot.busy_ns;
  std::printf("\n%s — dominant callpaths (%s)\n", m.scenario, m.summary);
  std::printf("  %-14s %-10s %9s %9s %11s %10s %10s %6s\n", "op", "service",
              "requests", "done", "bytes", "busy ms", "queue ms", "share");
  for (std::size_t i = 0; i < m.ops.size(); ++i) {
    const auto& ot = m.ops[i];
    const double share =
        busy_total > 0 ? 100.0 * ot.busy_ns / busy_total : 0.0;
    std::printf("  %-14s %-10s %9llu %9llu %11llu %10.2f %10.2f %5.1f%%%s\n",
                m.op_names[i], m.op_services[i],
                static_cast<unsigned long long>(ot.requests),
                static_cast<unsigned long long>(ot.completed),
                static_cast<unsigned long long>(ot.bytes),
                ot.busy_ns / 1e6, ot.queue_ns / 1e6, share,
                i == m.dominant ? "  <- dominant" : "");
  }
}

void write_json(const std::string& path, bool smoke, unsigned host_cpus,
                const std::vector<Cell>& cells,
                const std::vector<MixReport>& mixes, bool det_pass,
                bool steady_pass, std::uint64_t peak_inflight,
                std::uint32_t peak_nodes) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"scale_study\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"host_cpus\": " << host_cpus << ",\n"
      << "  \"heap_fanout\": " << sim::kHeapFanout << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"scenario\": \"%s\", \"nodes\": %u, \"lanes\": %u, "
        "\"workers\": %u, \"clients\": %llu, \"horizon_ms\": %.3f, "
        "\"wall_ms\": %.3f, \"events\": %llu, \"events_per_sec\": %.0f, "
        "\"generated\": %llu, \"completed\": %llu, \"in_flight\": %llu, "
        "\"peak_queued\": %llu, \"request_slots\": %llu, "
        "\"allocations\": %llu, \"alloc_per_event\": %.6f, "
        "\"steady_allocations\": %llu, \"steady_events\": %llu, "
        "\"request_growths\": %llu, "
        "\"arrival_checksum\": %llu, \"completion_checksum\": %llu, "
        "\"causality_clamps\": %llu, \"peak_rss_bytes\": %llu}%s\n",
        c.scenario, c.nodes, c.lanes, c.workers,
        static_cast<unsigned long long>(c.clients), c.horizon_ms, c.wall_ms,
        static_cast<unsigned long long>(c.events), c.events_per_sec,
        static_cast<unsigned long long>(c.generated),
        static_cast<unsigned long long>(c.completed),
        static_cast<unsigned long long>(c.in_flight),
        static_cast<unsigned long long>(c.peak_queued),
        static_cast<unsigned long long>(c.request_slots),
        static_cast<unsigned long long>(c.allocs), c.alloc_per_event,
        static_cast<unsigned long long>(c.steady_allocs),
        static_cast<unsigned long long>(c.steady_events),
        static_cast<unsigned long long>(c.request_growths),
        static_cast<unsigned long long>(c.arrival_ck),
        static_cast<unsigned long long>(c.completion_ck),
        static_cast<unsigned long long>(c.clamps),
        static_cast<unsigned long long>(c.rss_peak),
        i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"mixes\": [\n";
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const auto& m = mixes[i];
    out << "    {\"scenario\": \"" << m.scenario << "\", \"dominant_op\": \""
        << m.op_names[m.dominant] << "\", \"ops\": [\n";
    for (std::size_t j = 0; j < m.ops.size(); ++j) {
      const auto& ot = m.ops[j];
      char buf[384];
      std::snprintf(
          buf, sizeof(buf),
          "      {\"op\": \"%s\", \"service\": \"%s\", \"requests\": %llu, "
          "\"completed\": %llu, \"bytes\": %llu, \"busy_ms\": %.3f, "
          "\"queue_ms\": %.3f}%s\n",
          m.op_names[j], m.op_services[j],
          static_cast<unsigned long long>(ot.requests),
          static_cast<unsigned long long>(ot.completed),
          static_cast<unsigned long long>(ot.bytes), ot.busy_ns / 1e6,
          ot.queue_ns / 1e6, j + 1 < m.ops.size() ? "," : "");
      out << buf;
    }
    out << "    ]}" << (i + 1 < mixes.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"gates\": {\"determinism\": \""
      << (det_pass ? "PASS" : "FAIL") << "\", \"steady_zero_alloc\": \""
      << (steady_pass ? "PASS" : "FAIL") << "\", \"peak_in_flight\": "
      << peak_inflight << ", \"peak_nodes\": " << peak_nodes << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  print_header("Open-loop scale study: nodes x in-flight ladder + app mixes",
               "SYMBIOSYS scale methodology; see EXPERIMENTS.md");

  const unsigned host_cpus = std::thread::hardware_concurrency();
  const auto& presets = lg::presets();
  const lg::Scenario& dl = presets[0];

  // Ladder: grow nodes and population together; the last rung is the
  // million-request gate cell. Horizons span two full phase cycles so the
  // two halves of the steady-state split see the same mix.
  std::vector<CellSpec> ladder;
  if (smoke) {
    ladder.push_back(CellSpec{&dl, 16, 5'000, 2 * cycle_of(dl)});
  } else {
    ladder.push_back(CellSpec{&dl, 16, 10'000, 2 * cycle_of(dl)});
    ladder.push_back(CellSpec{&dl, 64, 50'000, 2 * cycle_of(dl)});
    ladder.push_back(CellSpec{&dl, 128, 150'000, 2 * cycle_of(dl)});
  }
  const std::vector<std::uint32_t> worker_scales =
      smoke ? std::vector<std::uint32_t>{1, 2}
            : std::vector<std::uint32_t>{1, 2, 4, 8};

  std::printf("host cpus: %u  heap fanout: %u\n\n", host_cpus,
              sim::kHeapFanout);

  std::vector<Cell> cells;
  bool det_pass = true;
  bool steady_pass = true;
  std::uint64_t peak_inflight = 0;
  std::uint32_t peak_nodes = 0;
  for (const auto& spec : ladder) {
    const ReservePlan plan = warmup_reserves(spec);

    std::uint64_t ck_1w[2] = {0, 0};
    std::uint64_t events_1w = 0;
    for (const auto workers : worker_scales) {
      Cell c = run_cell(spec, workers, plan);
      if (workers == 1) {
        ck_1w[0] = c.arrival_ck;
        ck_1w[1] = c.completion_ck;
        events_1w = c.events;
      } else if (c.arrival_ck != ck_1w[0] || c.completion_ck != ck_1w[1] ||
                 c.events != events_1w) {
        det_pass = false;
      }
      if (c.steady_allocs != 0) steady_pass = false;
      if (c.in_flight > peak_inflight) {
        peak_inflight = c.in_flight;
        peak_nodes = c.nodes;
      }
      print_cell(c);
      cells.push_back(c);
    }
    std::printf("\n");
  }

  // One mix cell per replayed application preset: the dominant-callpath
  // tables. Worker pair {1, max} re-checks checksum identity per preset.
  std::vector<MixReport> mixes;
  const std::uint32_t mix_nodes = smoke ? 8 : 64;
  const std::uint64_t mix_clients = smoke ? 2'000 : 20'000;
  for (const auto& sc : presets) {
    const CellSpec spec{&sc, mix_nodes, mix_clients,
                        (smoke ? 1 : 2) * cycle_of(sc)};
    const ReservePlan plan = warmup_reserves(spec);
    Cell base = run_cell(spec, 1, plan);
    print_cell(base);
    cells.push_back(base);
    if (!smoke) {
      Cell par = run_cell(spec, worker_scales.back(), plan);
      if (par.arrival_ck != base.arrival_ck ||
          par.completion_ck != base.completion_ck ||
          par.events != base.events) {
        det_pass = false;
      }
      if (par.steady_allocs != 0) steady_pass = false;
      print_cell(par);
      cells.push_back(par);
    }

    lg::LoadgenWorld world(make_params(spec, 1, plan));
    world.run();
    MixReport m;
    m.scenario = sc.name;
    m.summary = sc.summary;
    m.ops = world.op_totals();
    m.dominant = world.dominant_op();
    for (const auto& op : sc.ops) {
      m.op_names.push_back(op.name);
      m.op_services.push_back(lg::service_name(op.service));
    }
    print_mix(m);
    mixes.push_back(m);
    std::printf("\n");
  }

  write_json(out_path, smoke, host_cpus, cells, mixes, det_pass, steady_pass,
             peak_inflight, peak_nodes);
  std::printf("wrote %s\n", out_path.c_str());

  bool ok = true;
  std::printf("determinism: arrival/completion checksums and event counts "
              "identical across worker column: %s\n",
              det_pass ? "PASS" : "FAIL");
  if (!det_pass) ok = false;
  std::printf("steady-state zero allocation: second-half arena allocations "
              "== 0 in every reserved cell: %s\n",
              steady_pass ? "PASS" : "FAIL");
  if (!steady_pass) ok = false;
  if (!smoke) {
    const bool scale_ok = peak_inflight >= 1'000'000 && peak_nodes >= 128;
    std::printf("acceptance: %llu concurrent in-flight requests on %u nodes "
                "(>= 1,000,000 on >= 128): %s\n",
                static_cast<unsigned long long>(peak_inflight), peak_nodes,
                scale_ok ? "PASS" : "FAIL");
    if (!scale_ok) ok = false;
  } else {
    const bool open_loop_ok = peak_inflight > 0;
    std::printf("acceptance: open-loop backlog observed (in-flight %llu > 0): "
                "%s\n",
                static_cast<unsigned long long>(peak_inflight),
                open_loop_ok ? "PASS" : "FAIL");
    if (!open_loop_ok) ok = false;
  }
  return ok ? 0 : 1;
}
