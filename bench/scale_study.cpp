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
//   * peak_rss_bytes (the ru_maxrss high-water) — process-wide, so
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
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "simkit/dheap.hpp"
#include "workloads/loadgen/loadgen.hpp"

using namespace bench;
namespace lg = sym::workloads::loadgen;

namespace {

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

/// What the gates read from one measured cell.
struct Witness {
  std::uint64_t arrival_ck = 0;
  std::uint64_t completion_ck = 0;
  std::uint64_t events = 0;
  std::uint64_t steady_allocs = 0;  ///< second-half arena allocations
  std::uint64_t in_flight = 0;

  /// Same simulation: identical checksums and executed-event counts.
  [[nodiscard]] bool same_run(const Witness& o) const {
    return arrival_ck == o.arrival_ck && completion_ck == o.completion_ck &&
           events == o.events;
  }
};

/// Run one measured cell, print its line and write its JSON row. The
/// horizon is split at its midpoint so the second-half allocation delta
/// isolates steady state from warmup.
Witness run_cell(JsonWriter& json, const CellSpec& spec, std::uint32_t workers,
                 const ReservePlan& plan) {
  lg::LoadgenWorld world(make_params(spec, workers, plan));
  auto& engine = world.engine();
  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(spec.horizon / 2);
  const std::uint64_t mid_allocs = engine.arena_stats().allocations();
  const std::uint64_t mid_events = engine.events_processed();
  engine.run_until(spec.horizon);
  const auto t1 = std::chrono::steady_clock::now();

  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const std::uint64_t events = engine.events_processed();
  const std::uint64_t allocs = engine.arena_stats().allocations();
  const double events_per_sec = wall_ms > 0 ? events / (wall_ms / 1e3) : 0;
  const double alloc_per_event =
      events > 0 ? static_cast<double>(allocs) / events : 0;
  const std::uint64_t rss = peak_rss_bytes();
  const Witness w{world.arrival_checksum(), world.completion_checksum(),
                  events, allocs - mid_allocs, world.in_flight()};

  std::printf(
      "%-18s nodes %3u workers %u  gen %8llu  done %7llu  inflight %8llu  "
      "wall %8.1f ms  %9.0f ev/s  alloc/ev %.5f  steady %llu  rss %5.0f MiB\n",
      spec.scenario->name, spec.nodes, workers,
      static_cast<unsigned long long>(world.generated()),
      static_cast<unsigned long long>(world.completed()),
      static_cast<unsigned long long>(w.in_flight), wall_ms, events_per_sec,
      alloc_per_event, static_cast<unsigned long long>(w.steady_allocs),
      static_cast<double>(rss) / (1024.0 * 1024.0));
  json.begin_object()
      .field("scenario", spec.scenario->name)
      .field("nodes", spec.nodes)
      .field("lanes", engine.lane_count())
      .field("workers", workers)
      .field("clients", spec.clients)
      .field("horizon_ms", sim::to_millis(spec.horizon))
      .field("wall_ms", wall_ms)
      .field("events", events)
      .field("events_per_sec", events_per_sec)
      .field("generated", world.generated())
      .field("completed", world.completed())
      .field("in_flight", w.in_flight)
      .field("peak_queued", world.peak_queued())
      .field("request_slots", world.request_slots())
      .field("allocations", allocs)
      .field("alloc_per_event", alloc_per_event)
      .field("steady_allocations", w.steady_allocs)
      .field("steady_events", events - mid_events)
      .field("request_growths", world.request_growths())
      .field("arrival_checksum", w.arrival_ck)
      .field("completion_checksum", w.completion_ck)
      .field("causality_clamps", engine.causality_clamps())
      .field("peak_rss_bytes", rss)
      .end();
  return w;
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

struct MixReport {
  const lg::Scenario* scenario = nullptr;
  std::vector<lg::OpTotals> ops;  ///< one per scenario->ops entry
  std::uint32_t dominant = 0;
};

void print_mix(const MixReport& m) {
  std::uint64_t busy_total = 0;
  for (const auto& ot : m.ops) busy_total += ot.busy_ns;
  std::printf("\n%s — dominant callpaths (%s)\n", m.scenario->name,
              m.scenario->summary);
  std::printf("  %-14s %-10s %9s %9s %11s %10s %10s %6s\n", "op", "service",
              "requests", "done", "bytes", "busy ms", "queue ms", "share");
  for (std::size_t i = 0; i < m.ops.size(); ++i) {
    const auto& ot = m.ops[i];
    const double share =
        busy_total > 0 ? 100.0 * ot.busy_ns / busy_total : 0.0;
    std::printf("  %-14s %-10s %9llu %9llu %11llu %10.2f %10.2f %5.1f%%%s\n",
                m.scenario->ops[i].name,
                lg::service_name(m.scenario->ops[i].service),
                static_cast<unsigned long long>(ot.requests),
                static_cast<unsigned long long>(ot.completed),
                static_cast<unsigned long long>(ot.bytes),
                ot.busy_ns / 1e6, ot.queue_ns / 1e6, share,
                i == m.dominant ? "  <- dominant" : "");
  }
}

void write_mix(JsonWriter& json, const MixReport& m) {
  json.begin_object()
      .field("scenario", m.scenario->name)
      .field("dominant_op", m.scenario->ops[m.dominant].name)
      .begin_array("ops");
  for (std::size_t j = 0; j < m.ops.size(); ++j) {
    const auto& ot = m.ops[j];
    json.begin_object()
        .field("op", m.scenario->ops[j].name)
        .field("service", lg::service_name(m.scenario->ops[j].service))
        .field("requests", ot.requests)
        .field("completed", ot.completed)
        .field("bytes", ot.bytes)
        .field("busy_ms", ot.busy_ns / 1e6)
        .field("queue_ms", ot.queue_ns / 1e6)
        .end();
  }
  json.end().end();
}

}  // namespace

int main(int argc, char** argv) {
  Report report("scale_study",
                parse_study_args(argc, argv, "BENCH_scale.json"));
  const bool smoke = report.smoke();

  print_header("Open-loop scale study: nodes x in-flight ladder + app mixes",
               "SYMBIOSYS scale methodology; see EXPERIMENTS.md");

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

  std::printf("host cpus: %u  heap fanout: %u\n\n", report.host_cpus(),
              sim::kHeapFanout);

  auto& json = report.json();
  json.field("heap_fanout", sim::kHeapFanout);
  json.begin_array("cells");
  bool det_pass = true;
  bool steady_pass = true;
  std::uint64_t peak_inflight = 0;
  std::uint32_t peak_nodes = 0;
  for (const auto& spec : ladder) {
    const ReservePlan plan = warmup_reserves(spec);

    Witness w_1w;
    for (const auto workers : worker_scales) {
      const Witness w = run_cell(json, spec, workers, plan);
      if (workers == 1) {
        w_1w = w;
      } else if (!w.same_run(w_1w)) {
        det_pass = false;
      }
      if (w.steady_allocs != 0) steady_pass = false;
      if (w.in_flight > peak_inflight) {
        peak_inflight = w.in_flight;
        peak_nodes = spec.nodes;
      }
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
    const Witness base = run_cell(json, spec, 1, plan);
    if (!smoke) {
      const Witness par = run_cell(json, spec, worker_scales.back(), plan);
      if (!par.same_run(base)) det_pass = false;
      if (par.steady_allocs != 0) steady_pass = false;
    }

    lg::LoadgenWorld world(make_params(spec, 1, plan));
    world.run();
    mixes.push_back(MixReport{&sc, world.op_totals(), world.dominant_op()});
    print_mix(mixes.back());
    std::printf("\n");
  }

  json.end();
  json.begin_array("mixes");
  for (const auto& m : mixes) write_mix(json, m);
  json.end();
  json.field("peak_in_flight", peak_inflight);
  json.field("peak_nodes", peak_nodes);

  report.gate("determinism", det_pass,
              "determinism: arrival/completion checksums and event counts "
              "identical across worker column");
  report.gate("steady_zero_alloc", steady_pass,
              "steady-state zero allocation: second-half arena allocations "
              "== 0 in every reserved cell");
  if (smoke) {
    report.skip("million_in_flight", "smoke run");
    report.gate("open_loop_backlog", peak_inflight > 0,
                "acceptance: open-loop backlog observed (in-flight %llu > 0)",
                static_cast<unsigned long long>(peak_inflight));
  } else {
    report.gate("million_in_flight",
                peak_inflight >= 1'000'000 && peak_nodes >= 128,
                "acceptance: %llu concurrent in-flight requests on %u nodes "
                "(>= 1,000,000 on >= 128)",
                static_cast<unsigned long long>(peak_inflight), peak_nodes);
  }
  return report.finish();
}
