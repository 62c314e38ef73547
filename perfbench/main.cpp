// perfbench/main.cpp
//
// Host-time benchmark, one workload per process:
//
//   perfbench --workload <hepnos_loader|mobject_ior|loadgen_montage>
//             --seed <n> --seconds <s> --trace <0|1> [--reduced]
//
// It repeats whole rounds of the workload until --seconds of host time have
// passed (after one warm-up round) and prints, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (README.md). Exit
// code 0 means every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "sampler.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  RoundResult (*run)(const RoundConfig&);
  /// Traced-run reference: the RPC-stack workloads repeat at
  /// instrumentation kOff, the loadgen at two workers.
  bool stack;
};

const Workload kWorkloads[] = {
    {"hepnos_loader", run_hepnos_loader, true},
    {"mobject_ior", run_mobject_ior, true},
    {"loadgen_montage", run_loadgen_montage, false},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void add(const RoundResult& r, const char* label) {
    attempted += r.attempted;
    failed += r.failed;
    if (!r.ok) fail(std::string(label) + ": " + r.error);
  }
  void fail(const std::string& what) {
    if (correct) first_error = what;
    correct = false;
  }
};

/// Runs rounds of one configuration; all of them must agree on the
/// simulated statistics.
struct Series {
  std::vector<RoundResult> rounds;

  const RoundResult& run(const Workload& w, const RoundConfig& cfg,
                         Tally& tally, const char* label) {
    rounds.push_back(w.run(cfg));
    const RoundResult& r = rounds.back();
    tally.add(r, label);
    if (r.sim_digest != rounds.front().sim_digest) {
      tally.fail(std::string(label) +
                 ": simulated statistics differ between identical rounds");
    }
    std::fprintf(stderr,
                 "  %-9s setup %.4f s  run %.4f s  analyze %.4f s  "
                 "requests %llu  failed %llu  skewed %llu  digest %016llx\n",
                 label, r.setup_s(), r.run_s, r.analyze_s(),
                 static_cast<unsigned long long>(r.requests),
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.skew_violations),
                 static_cast<unsigned long long>(r.sim_digest));
    return r;
  }

  template <typename F>
  double med(F f) const {
    std::vector<double> v;
    for (const auto& r : rounds) v.push_back(f(r));
    return median(v);
  }
};

double per_request(double x, const RoundResult& r) {
  return r.requests != 0 ? x / static_cast<double>(r.requests) : 0;
}

double round_wall(const RoundResult& r) {
  return r.setup_s() + r.run_s + r.analyze_s();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += t.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit);
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <hepnos_loader|mobject_ior|"
               "loadgen_montage> --seed N --seconds S --trace 0|1 "
               "[--reduced]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool reduced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--reduced") {
      reduced = true;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr || (trace != 0 && trace != 1) || !(seconds > 0)) {
    return usage();
  }

  RoundConfig cfg;
  cfg.seed = seed;
  cfg.reduced = reduced;
  Tally tally;
  std::fprintf(stderr, "perfbench %s seed %llu seconds %g trace %d%s\n",
               w->name, static_cast<unsigned long long>(seed), seconds, trace,
               reduced ? " (reduced)" : "");

  // Warm-up round: lazy set-up (stack pools, static tables) happens here,
  // so every reported round sees the same process state.
  Series warm;
  warm.run(*w, cfg, tally, "warm-up");
  const std::uint64_t digest = warm.rounds.front().sim_digest;

  // Whole rounds until the time is up; at least three for a median.
  // `iteration` runs one round of each configuration being compared.
  auto until_time_is_up = [&](const std::function<void()>& iteration) {
    const double t0 = host_now();
    for (int i = 0; i < 3 || host_now() - t0 < seconds; ++i) iteration();
  };

  std::vector<Metric> metrics;
  if (trace == 0) {
    Series s;
    until_time_is_up([&] { s.run(*w, cfg, tally, "round"); });
    if (s.rounds.front().sim_digest != digest) {
      tally.fail("round differs from the warm-up round");
    }
    metrics = {
        {"setup_s", s.med([](const RoundResult& r) { return r.setup_s(); }),
         "s"},
        {"requests_per_s", s.med([](const RoundResult& r) {
           return static_cast<double>(r.requests) / (r.run_s + r.analyze_s());
         }), "req/s"},
        {"allocs_per_request", s.med([](const RoundResult& r) {
           const auto all = r.allocs_setup + r.allocs_run + r.allocs_analyze;
           return per_request(static_cast<double>(all), r);
         }), "count"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    // Three configurations, interleaved round by round so that they see
    // the same host conditions: untraced, a reference (kOff for the RPC
    // stack, two workers for the loadgen), and traced under the sampler.
    Series plain, ref, traced;
    RoundConfig ref_cfg = cfg;
    if (w->stack) {
      ref_cfg.instr = sym::prof::Level::kOff;
    } else {
      ref_cfg.workers = 2;
    }
    std::clock_t traced_cpu = 0;
    until_time_is_up([&] {
      const RoundResult& a = plain.run(*w, cfg, tally, "untraced");
      const RoundResult& b = ref.run(*w, ref_cfg, tally,
                                     w->stack ? "kOff" : "2-worker");
      if (!w->stack && (a.arrival_ck != b.arrival_ck ||
                        a.completion_ck != b.completion_ck ||
                        a.sim_digest != b.sim_digest)) {
        tally.fail("loadgen results differ between one and two workers");
      }
      const std::clock_t c0 = std::clock();
      sampler_start(1000);
      traced.run(*w, cfg, tally, "traced");
      sampler_stop();
      traced_cpu += std::clock() - c0;
    });
    if (plain.rounds.front().sim_digest != digest ||
        traced.rounds.front().sim_digest != digest) {
      tally.fail("untraced or traced round differs from the warm-up round");
    }
    const double cpu_s = static_cast<double>(traced_cpu) / CLOCKS_PER_SEC;
    const auto shares = sampler_shares(PERFBENCH_SRC_DIR);
    if (shares.empty()) tally.fail("sampled stacks could not be symbolised");
    const double n = static_cast<double>(traced.rounds.size());

    // Medians over the traced rounds of a phase time, a count, or a count
    // per completed request.
    auto med_of = [&](double RoundResult::*f) {
      return traced.med([f](const RoundResult& r) { return r.*f; });
    };
    auto count_of = [&](std::uint64_t RoundResult::*f) {
      return traced.med(
          [f](const RoundResult& r) { return static_cast<double>(r.*f); });
    };
    auto per_req = [&](std::uint64_t RoundResult::*f) {
      return traced.med([f](const RoundResult& r) {
        return per_request(static_cast<double>(r.*f), r);
      });
    };
    auto run_s = [](const RoundResult& r) { return r.run_s; };
    // kFull / kOff for the RPC stack, one worker / two for the loadgen.
    const double plain_over_ref = plain.med(run_s) / ref.med(run_s);
    using R = RoundResult;
    metrics = {
        {"workloads.build_s", med_of(&R::build_s), "s"},
        {"workloads.warmup_s", med_of(&R::warmup_s), "s"},
        {"simkit.run_s", med_of(&R::run_s), "s"},
        {"simkit.events_per_request", per_req(&R::events), "count"},
        {"simkit.ns_per_event", traced.med([](const R& r) {
           return r.run_s * 1e9 / static_cast<double>(r.events);
         }), "ns"},
        {"simkit.windows", count_of(&R::windows), "count"},
        {"simkit.merge_pairs", count_of(&R::merge_pairs), "count"},
        {"simkit.clamps", count_of(&R::clamps), "count"},
        {"simkit.parallel_speedup_2w", w->stack ? 0.0 : plain_over_ref,
         "ratio"},
        {"argolite.ults_per_request", per_req(&R::ults), "count"},
        {"sofi.messages_per_request", per_req(&R::messages), "count"},
        {"sofi.bytes_per_request", per_req(&R::bytes), "B"},
        {"merclite.eager_overflows_per_request", per_req(&R::eager_overflows),
         "count"},
        {"merclite.wire_pool_hit_ratio", traced.med([](const R& r) {
           const auto all = static_cast<double>(r.pool_hits + r.pool_misses);
           return all > 0 ? static_cast<double>(r.pool_hits) / all : 0.0;
         }), "ratio"},
        {"margolite.rpcs_per_request", per_req(&R::rpcs), "count"},
        {"margolite.instr_host_ratio", w->stack ? plain_over_ref : 0.0,
         "ratio"},
        {"symbiosys.profile_summary_s", med_of(&R::profile_s), "s"},
        {"symbiosys.trace_stitch_s", med_of(&R::stitch_s), "s"},
        {"symbiosys.sysstats_summary_s", med_of(&R::sysstats_s), "s"},
        {"symbiosys.zipkin_export_s", med_of(&R::zipkin_s), "s"},
        {"symbiosys.trace_events_per_request", per_req(&R::trace_events),
         "count"},
        {"symbiosys.skewed_spans", count_of(&R::skew_violations), "count"},
        {"alloc.setup", count_of(&R::allocs_setup), "count"},
        {"alloc.run_per_request", per_req(&R::allocs_run), "count"},
        {"alloc.analyze_per_request", per_req(&R::allocs_analyze), "count"},
    };
    // Self time per module and traced round: its samples times the CPU
    // seconds per timer tick (ticks outside the timed phases record no
    // stack but still count).
    const double s_per_sample = cpu_s / static_cast<double>(sampler_ticks()) *
                                static_cast<double>(sampler_count()) / n;
    for (const char* m : kModules) {
      const auto it = shares.find(m);
      metrics.push_back({std::string(m) + ".self_s",
                         it == shares.end() ? 0.0 : it->second * s_per_sample,
                         "s"});
    }
    metrics.push_back({"trace.overhead_ratio",
                       traced.med(round_wall) / plain.med(round_wall),
                       "ratio"});
    std::fprintf(stderr, "  samples %zu over %.2f s CPU\n", sampler_count(),
                 cpu_s);
  }

  std::printf("sim_digest %016llx\n", static_cast<unsigned long long>(digest));
  if (!tally.correct) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", tally.first_error.c_str());
  }
  print_result(tally, metrics);
  return tally.correct ? 0 : 1;
}
