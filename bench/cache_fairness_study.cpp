// cache_fairness_study: placement A/B and multi-tenant fairness study of
// the blockcache tier (src/services/blockcache), the bbThemis/ThemisIO
// scenario pair the cache exists to reproduce.
//
// Scenario 1 "seq-readers" — placement A/B. Streaming readers run against
// hash vs. locality-aligned placement. Aligned placement keeps stripe-long
// runs of consecutive blocks on one server, so the server's sequential-miss
// readahead batches whole runs into single large backend reads (bbThemis's
// OST-alignment effect); hash placement scatters adjacent blocks and every
// miss pays its own backend round trip. Acceptance: aligned issues at most
// half the backend reads and finishes strictly earlier.
//
// Scenario 2 "two-tenant-contention" — fairness A/B/C. A wide job (4
// clients) and a narrow job (1 client) stream through one cache server
// whose device bandwidth is throttled so the server is the contended
// resource. Under FIFO the wide job captures a queue-proportional share and
// the delivered byte-rates gap apart; size-fair equalizes byte-rates
// regardless of width; job-fair grants width-weighted shares. Acceptance:
// the size-fair rate gap is smaller than the FIFO gap.
//
// Every cell is run at several worker counts and the full measurement
// digest (zipkin trace export + dominant-callpath table + events_processed
// + final virtual time) must be bit-identical — the study doubles as a
// determinism check over the cache tier; any divergence fails the bench.
//
// Results land in BENCH_cache.json (override with --out PATH). --smoke
// shrinks volumes and the worker sweep for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "symbiosys/zipkin.hpp"
#include "workloads/cache_world.hpp"

using namespace bench;

namespace {

namespace bc = sym::blockcache;
using sym::workloads::CachePattern;
using sym::workloads::CacheWorld;
using sym::workloads::TenantSpec;

struct Digest {
  std::string zipkin;
  std::string profile;
  std::uint64_t events_processed = 0;
  sim::TimeNs final_now = 0;

  bool operator==(const Digest&) const = default;
};

struct Cell {
  std::string scenario;
  std::string placement;
  std::string policy;
  std::uint32_t workers_checked = 0;
  bool deterministic = true;
  double virtual_ms = 0;
  double wall_ms = 0;
  std::uint64_t backend_reads = 0;
  std::uint64_t backend_read_bytes = 0;
  double hit_ratio = 0;
  std::uint64_t writeback_ops = 0;
  std::uint64_t evictions = 0;
  std::uint64_t events_processed = 0;
  // Fairness cells: delivered byte-rate per tenant and the relative gap.
  double rate_wide = 0;
  double rate_narrow = 0;
  double rate_gap = 0;
  std::string dominant_callpath;
};

/// Scenario 1: streaming readers, 4 cache servers, stripe-long readahead.
CacheWorld::Params seq_reader_params(bc::Placement placement, bool smoke) {
  CacheWorld::Params p;
  p.cache_servers = 4;
  p.placement = placement;
  p.stripe_blocks = 16;
  p.cache.readahead_blocks = 16;
  p.cache.policy = bc::SchedPolicy::kSizeFair;
  p.cache.flush_period = 0;  // read-only scenario: no flusher
  TenantSpec t;
  t.width = 2;
  t.blocks_per_client = smoke ? 32 : 64;
  t.passes = 2;
  t.pattern = CachePattern::kSeqRead;
  p.tenants = {t, t};
  p.exec.lane_count = 0;  // one lane per node
  p.exec.lookahead = sim::usec(2);
  return p;
}

/// Scenario 2: wide vs. narrow tenant contending for one throttled server.
CacheWorld::Params contention_params(bc::SchedPolicy policy, bool smoke) {
  CacheWorld::Params p;
  p.cache_servers = 1;
  p.cache.policy = policy;
  p.cache.capacity_blocks = 320;  // both working sets stay resident
  // Throttle the cache device so per-block service (~262 us) dominates the
  // client RPC round trip and the dispatcher's policy decides the rates.
  p.cache.service_bw_bytes_per_ns = 0.25;
  TenantSpec wide;  // 4 client processes
  wide.width = 4;
  wide.blocks_per_client = smoke ? 16 : 32;
  wide.passes = smoke ? 4 : 8;
  wide.pattern = CachePattern::kSeqRead;
  TenantSpec narrow = wide;  // same total blocks through 1 client
  narrow.width = 1;
  narrow.blocks_per_client = 4 * wide.blocks_per_client;
  p.tenants = {wide, narrow};
  p.exec.lane_count = 0;
  p.exec.lookahead = sim::usec(2);
  return p;
}

/// Run one configuration once and fill the cell + digest from it.
Digest run_once(const CacheWorld::Params& params, std::uint32_t workers,
                Cell* cell) {
  CacheWorld::Params p = params;
  p.exec.worker_count = workers;
  CacheWorld world(p);
  const auto t0 = std::chrono::steady_clock::now();
  world.run();
  const auto t1 = std::chrono::steady_clock::now();

  Digest d;
  d.zipkin = prof::to_zipkin_json(prof::TraceSummary::build(world.all_traces()));
  const auto summary = prof::ProfileSummary::build(world.all_profiles());
  d.profile = summary.format(10);
  d.events_processed = world.engine().events_processed();
  d.final_now = world.engine().now();

  if (cell != nullptr) {
    cell->virtual_ms = sim::to_millis(world.makespan());
    cell->wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    cell->backend_reads = world.total_backend_reads();
    cell->backend_read_bytes = world.total_backend_read_bytes();
    const auto total = world.total_hits() + world.total_misses();
    cell->hit_ratio =
        total == 0 ? 0.0
                   : static_cast<double>(world.total_hits()) /
                         static_cast<double>(total);
    cell->writeback_ops = world.total_writeback_ops();
    cell->evictions = world.total_evictions();
    cell->events_processed = d.events_processed;
    cell->rate_wide = world.tenant_byte_rate(0);
    cell->rate_narrow = world.tenant_byte_rate(1);
    const double hi = std::max(cell->rate_wide, cell->rate_narrow);
    const double lo = std::min(cell->rate_wide, cell->rate_narrow);
    cell->rate_gap = hi > 0 ? (hi - lo) / hi : 0.0;
    if (!summary.callpaths.empty()) {
      cell->dominant_callpath = summary.callpaths.front().name;
    }
    std::printf("-- dominant callpaths [%s / %s / %s] --\n%s\n",
                cell->scenario.c_str(), cell->placement.c_str(),
                cell->policy.c_str(), d.profile.c_str());
  }
  return d;
}

/// Run a cell at every worker count, asserting digest bit-identity.
Cell run_cell(std::string scenario, const CacheWorld::Params& params,
              const std::vector<std::uint32_t>& workers) {
  Cell c;
  c.scenario = std::move(scenario);
  c.placement = bc::to_string(params.placement);
  c.policy = bc::to_string(params.cache.policy);
  const Digest baseline = run_once(params, workers.front(), &c);
  c.workers_checked = static_cast<std::uint32_t>(workers.size());
  for (std::size_t i = 1; i < workers.size(); ++i) {
    const Digest got = run_once(params, workers[i], nullptr);
    if (!(got == baseline)) {
      c.deterministic = false;
      std::printf("!! digest mismatch at workers=%u (%s/%s/%s)\n",
                  workers[i], c.scenario.c_str(), c.placement.c_str(),
                  c.policy.c_str());
    }
  }
  std::printf("cell %-22s placement %-7s policy %-9s  virtual %9.3f ms  "
              "backend reads %5llu  hit %.3f  gap %.3f  digests[x%u] %s\n\n",
              c.scenario.c_str(), c.placement.c_str(), c.policy.c_str(),
              c.virtual_ms,
              static_cast<unsigned long long>(c.backend_reads), c.hit_ratio,
              c.rate_gap, c.workers_checked,
              c.deterministic ? "PASS" : "FAIL");
  return c;
}

void write_cell(JsonWriter& json, const Cell& c) {
  json.begin_object()
      .field("scenario", c.scenario)
      .field("placement", c.placement)
      .field("policy", c.policy)
      .field("workers_checked", c.workers_checked)
      .field("deterministic", c.deterministic)
      .field("virtual_ms", c.virtual_ms)
      .field("wall_ms", c.wall_ms)
      .field("backend_reads", c.backend_reads)
      .field("backend_read_bytes", c.backend_read_bytes)
      .field("hit_ratio", c.hit_ratio)
      .field("writeback_ops", c.writeback_ops)
      .field("evictions", c.evictions)
      .field("events_processed", c.events_processed)
      .field("rate_wide_bps", c.rate_wide)
      .field("rate_narrow_bps", c.rate_narrow)
      .field("rate_gap", c.rate_gap)
      .field("dominant_callpath", c.dominant_callpath)
      .end();
}

}  // namespace

int main(int argc, char** argv) {
  Report report("cache_fairness_study",
                parse_study_args(argc, argv, "BENCH_cache.json"));
  const bool smoke = report.smoke();

  print_header("Blockcache placement & fair-share scheduling study",
               "bbThemis OST-alignment / ThemisIO fair-share scenarios");

  const std::vector<std::uint32_t> workers =
      smoke ? std::vector<std::uint32_t>{1, 2}
            : std::vector<std::uint32_t>{1, 2, 4};

  // Scenario 1: placement A/B under streaming readers; scenario 2: fairness
  // policies under two-tenant contention.
  std::vector<Cell> cells;
  for (const auto placement :
       {bc::Placement::kHash, bc::Placement::kLocalityAligned}) {
    cells.push_back(run_cell("seq-readers",
                             seq_reader_params(placement, smoke), workers));
  }
  for (const auto policy : {bc::SchedPolicy::kFifo, bc::SchedPolicy::kSizeFair,
                            bc::SchedPolicy::kJobFair}) {
    cells.push_back(run_cell("two-tenant-contention",
                             contention_params(policy, smoke), workers));
  }
  const Cell& hash = cells[0];
  const Cell& aligned = cells[1];
  const Cell& fifo = cells[2];
  const Cell& size_fair = cells[3];

  auto& json = report.json();
  json.begin_array("cells");
  bool deterministic = true;
  for (const auto& c : cells) {
    write_cell(json, c);
    deterministic = deterministic && c.deterministic;
  }
  json.end();

  report.gate("determinism", deterministic,
              "determinism: digests identical across worker counts at every "
              "cell");

  const double read_ratio =
      aligned.backend_reads > 0
          ? static_cast<double>(hash.backend_reads) /
                static_cast<double>(aligned.backend_reads)
          : 0.0;
  report.gate("placement",
              read_ratio >= 2.0 && aligned.virtual_ms < hash.virtual_ms,
              "acceptance: aligned placement batches backend reads "
              "(%llu -> %llu, x%.1f fewer) and finishes earlier "
              "(%.3f ms vs %.3f ms)",
              static_cast<unsigned long long>(hash.backend_reads),
              static_cast<unsigned long long>(aligned.backend_reads),
              read_ratio, aligned.virtual_ms, hash.virtual_ms);
  report.gate("fairness", size_fair.rate_gap < fifo.rate_gap,
              "acceptance: size-fair narrows the tenant byte-rate gap vs "
              "FIFO (%.3f -> %.3f)",
              fifo.rate_gap, size_fair.rate_gap);
  return report.finish();
}
