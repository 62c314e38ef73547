// perfbench/perfbench.hpp
//
// Shared declarations of the host-time benchmark. One round of a workload
// builds its world, runs the timed phase and the analysis, checks the
// outputs and reports what it measured from outside the program: host
// seconds around its own calls, heap allocations from the benchmark's own
// operator new, and counters read through public accessors and PVARs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "simkit/rng.hpp"
#include "symbiosys/records.hpp"

namespace perfbench {

/// Heap allocations made by this process (every operator new variant).
extern std::atomic<std::uint64_t> g_allocs;

[[nodiscard]] inline std::uint64_t allocs_now() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

[[nodiscard]] inline double host_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-sensitive fold for the simulated-statistics digest.
[[nodiscard]] inline std::uint64_t fold(std::uint64_t acc,
                                        std::uint64_t v) noexcept {
  std::uint64_t s = acc ^ (v + 0x9E3779B97F4A7C15ULL);
  return sym::sim::splitmix64(s);
}

/// What one round runs with. Everything but the seed and the size is fixed
/// by the workload; `instr` and `workers` only vary in the traced run.
struct RoundConfig {
  std::uint64_t seed = 1;
  bool reduced = false;
  sym::prof::Level instr = sym::prof::Level::kFull;
  std::uint32_t workers = 1;
};

struct RoundResult {
  // Correctness.
  bool ok = true;
  std::string error;  ///< first failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Fold of the round's virtual-time results; identical for every round of
  /// one (workload, seed, instr) whatever the host did.
  std::uint64_t sim_digest = 0;

  // Host seconds per phase.
  double build_s = 0;
  double warmup_s = 0;
  double run_s = 0;
  double profile_s = 0;
  double stitch_s = 0;
  double sysstats_s = 0;
  double zipkin_s = 0;

  // Heap allocations per phase.
  std::uint64_t allocs_setup = 0;
  std::uint64_t allocs_run = 0;
  std::uint64_t allocs_analyze = 0;

  // Program counters, read after the run.
  std::uint64_t requests = 0;  ///< completed top-level requests
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t merge_pairs = 0;
  std::uint64_t clamps = 0;
  std::uint64_t ults = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t eager_overflows = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t trace_events = 0;
  /// Stitched spans breaking t1 <= t5 <= t8 <= t14 across endpoints.
  std::uint64_t skew_violations = 0;
  /// Loadgen only: arrival/completion checksums (worker-count witness).
  std::uint64_t arrival_ck = 0;
  std::uint64_t completion_ck = 0;

  [[nodiscard]] double setup_s() const noexcept { return build_s + warmup_s; }
  [[nodiscard]] double analyze_s() const noexcept {
    return profile_s + stitch_s + sysstats_s + zipkin_s;
  }

  void fail(std::string what) {
    if (ok) error = std::move(what);
    ok = false;
  }
};

RoundResult run_hepnos_loader(const RoundConfig& cfg);
RoundResult run_mobject_ior(const RoundConfig& cfg);
RoundResult run_loadgen_montage(const RoundConfig& cfg);

}  // namespace perfbench
