// bench/common.hpp
//
// Shared helpers for the experiment benches. Each bench regenerates one
// table or figure from the paper's evaluation; the Table IV configurations
// are used verbatim (clients, servers, ESs, databases, batch sizes), with
// the per-client event volume scaled so a bench completes in seconds on a
// laptop-class host.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "bench/report.hpp"
#include "symbiosys/analysis.hpp"
#include "symbiosys/records.hpp"
#include "workloads/hepnos_world.hpp"
#include "workloads/table4.hpp"

namespace bench {

namespace sim = sym::sim;
namespace prof = sym::prof;

/// Build HepnosWorld params for a Table IV config with a bench-scale event
/// volume (events per client = events_per_file * files).
inline sym::workloads::HepnosWorld::Params hepnos_params(
    sym::workloads::HepnosConfig cfg, std::uint32_t events_per_client = 2048,
    std::uint64_t seed = 42) {
  sym::workloads::HepnosWorld::Params p;
  p.config = std::move(cfg);
  p.file_model.events_per_file = events_per_client;
  p.file_model.payload_bytes = 512;
  p.files_per_client = 1;
  p.seed = seed;
  return p;
}

/// The §VI-B staged-overhead (Fig. 13) world: overhead_study_config(),
/// whose batch 8192 and 30 ESs are the paper's, scaled to one host process
/// at the paper's 7:1 client:server ratio and 16 databases per server.
/// Full size is 56 clients / 8 servers at 2048 events per client. Smoke
/// size, which test_workloads also pins as the Fig. 13 shape contract, is
/// 14 clients / 2 servers at 64 events per client.
inline sym::workloads::HepnosWorld::Params overhead_params(
    bool smoke, prof::Level level, std::uint64_t seed) {
  auto cfg = sym::workloads::overhead_study_config();
  cfg.total_servers = smoke ? 2 : 8;
  cfg.total_clients = 7 * cfg.total_servers;
  cfg.databases = 16 * cfg.total_servers;
  auto p = hepnos_params(std::move(cfg), smoke ? 64 : 2048, seed);
  p.instr = level;
  return p;
}

/// Sum one interval over all target-side entries whose leaf matches an RPC.
inline double sum_target_interval(
    const std::vector<const prof::ProfileStore*>& stores, prof::Interval iv,
    std::uint16_t leaf) {
  double total = 0;
  for (const auto* store : stores) {
    for (const auto& [key, stats] : store->entries()) {
      if (key.side != prof::Side::kTarget) continue;
      if (prof::leaf_of(key.breadcrumb) != leaf) continue;
      total += stats.at(iv).sum_ns;
    }
  }
  return total;
}

/// Process-wide peak resident set (getrusage ru_maxrss, KiB on Linux), in
/// bytes. A high-water mark: it never decreases within a run.
inline std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("(reproduces %s)\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace bench
