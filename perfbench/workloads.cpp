// perfbench/workloads.cpp
//
// The three workloads. Each round times the benchmark's own calls into the
// program (world construction, warm-up, engine run, each analysis call),
// reads counters through public accessors and PVARs, and checks the outputs
// against figures computed here, never against a stored copy of an earlier
// run. Virtual-time results only feed the checks and the digest.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "sampler.hpp"
#include "services/mobject/mobject.hpp"
#include "services/sonata/json.hpp"
#include "symbiosys/analysis.hpp"
#include "symbiosys/zipkin.hpp"
#include "workloads/hepnos_world.hpp"
#include "workloads/loadgen/loadgen.hpp"

namespace perfbench {

namespace sim = sym::sim;
namespace prof = sym::prof;
namespace margo = sym::margo;
namespace lg = sym::workloads::loadgen;

namespace {

// ---------------------------------------------------------------------------
// Counters shared by the RPC-stack workloads
// ---------------------------------------------------------------------------

double pvar(margo::Instance& mid, const char* name, RoundResult& r) {
  auto& reg = mid.hg_class().pvars();
  const int i = reg.find(name);
  if (i < 0) {
    r.fail(std::string("PVAR missing: ") + name);
    return 0;
  }
  return reg.read(i, nullptr);
}

struct StackCounters {
  std::uint64_t invoked = 0;  ///< origin num_rpcs_invoked
  std::uint64_t handled = 0;  ///< target num_rpcs_handled
};

/// Adds one instance's layer counters to the round.
StackCounters read_instance(margo::Instance& mid, RoundResult& r) {
  auto& ep = mid.hg_class().endpoint();
  r.ults += mid.runtime().ults_created();
  r.messages += ep.sends_posted();
  r.bytes += ep.bytes_sent() + ep.bytes_rdma();
  r.eager_overflows +=
      static_cast<std::uint64_t>(pvar(mid, "eager_overflow_count", r));
  r.pool_hits +=
      static_cast<std::uint64_t>(pvar(mid, "wire_buffer_pool_hits", r));
  r.pool_misses += mid.hg_class().buffer_pool_misses();
  StackCounters c;
  c.invoked = static_cast<std::uint64_t>(pvar(mid, "num_rpcs_invoked", r));
  c.handled = static_cast<std::uint64_t>(pvar(mid, "num_rpcs_handled", r));
  r.rpcs += c.invoked;
  return c;
}

void read_engine(sim::Engine& eng, RoundResult& r) {
  r.events = eng.events_processed();
  r.windows = eng.windows_executed();
  r.merge_pairs = eng.merge_pairs_visited();
  r.clamps = eng.causality_clamps();
}

/// The SYMBIOSYS analysis a user runs after a measured execution, timed
/// call by call.
struct Analysis {
  prof::ProfileSummary profile;
  prof::TraceSummary traces;
  prof::SysStatsSummary sysstats;
  std::string zipkin;
};

Analysis analyze(
    const std::vector<const prof::ProfileStore*>& profiles,
    const std::vector<const prof::TraceStore*>& traces,
    const std::vector<std::pair<std::string, const prof::SysStatStore*>>& stats,
    RoundResult& r) {
  Analysis a;
  const std::uint64_t a0 = allocs_now();
  double t = host_now();
  a.profile = prof::ProfileSummary::build(profiles);
  double t2 = host_now();
  r.profile_s = t2 - t;
  t = t2;
  a.traces = prof::TraceSummary::build(traces);
  t2 = host_now();
  r.stitch_s = t2 - t;
  t = t2;
  a.sysstats = prof::SysStatsSummary::build(stats);
  t2 = host_now();
  r.sysstats_s = t2 - t;
  t = t2;
  a.zipkin = prof::to_zipkin_json(a.traces);
  r.zipkin_s = host_now() - t;
  r.allocs_analyze = allocs_now() - a0;
  r.trace_events = a.traces.total_events;
  return a;
}

/// Properties of the stitched traces. Each endpoint's two stamps share
/// one clock, so t1 <= t14 and t5 <= t8 must hold after any skew
/// correction. Across endpoints (t1 <= t5 <= t8 <= t14) the program's skew
/// estimate can break causality; those spans are counted, not failed
/// (README.md, "Known faults").
void check_traces(const Analysis& a, RoundResult& r) {
  std::size_t spans = 0;
  for (const auto& rt : a.traces.requests) {
    for (const auto& sp : rt.spans) {
      ++spans;
      if (sp.origin_start > sp.origin_end || sp.target_start > sp.target_end) {
        r.fail("span ends before it starts on one endpoint's clock");
        return;
      }
      if (sp.origin_start > sp.target_start || sp.target_end > sp.origin_end) {
        ++r.skew_violations;
      }
    }
  }
  if (spans != a.traces.total_spans || spans == 0) {
    r.fail("stitched span count disagrees with total_spans");
    return;
  }
  // The export must be valid JSON holding exactly the stitched spans.
  try {
    const sym::json::Value doc = sym::json::parse(a.zipkin);
    if (!doc.is_array() || doc.as_array().size() != spans) {
      r.fail("Zipkin export does not hold every stitched span");
    }
  } catch (const std::exception& e) {
    r.fail(std::string("Zipkin export does not parse: ") + e.what());
  }
}

std::uint64_t put_packed_calls(const prof::ProfileSummary& p) {
  std::uint64_t n = 0;
  for (const auto& cp : p.callpaths) {
    const auto pos = cp.name.rfind("sdskv_put_packed_rpc");
    if (pos != std::string::npos &&
        pos + std::strlen("sdskv_put_packed_rpc") == cp.name.size()) {
      n += cp.call_count;
    }
  }
  return n;
}

/// Run `fn` as a ULT of a throwaway one-node world. Backend calls charge
/// virtual compute time, so they only work inside a ULT; this lets the
/// checks read a finished world's databases without touching its engine.
void in_ult(const std::function<void()>& fn) {
  sim::Engine eng;
  sim::ClusterParams cp;
  cp.node_count = 1;
  sim::Cluster cluster(eng, cp);
  sym::ofi::Fabric fabric(cluster);
  margo::InstanceConfig mc;
  mc.instr = prof::Level::kOff;
  margo::Instance mid(fabric, cluster.spawn_process(0, "checker"), mc);
  mid.start();
  mid.spawn([&] {
    fn();
    mid.finalize();
  });
  eng.run();
}

// ---------------------------------------------------------------------------
// Seeded content
// ---------------------------------------------------------------------------

/// Bytes of one object version, derived from the workload seed alone.
std::vector<std::byte> object_bytes(std::uint64_t seed, std::uint32_t client,
                                    std::uint32_t object, std::uint32_t version,
                                    std::size_t size) {
  std::uint64_t s = fold(fold(fold(seed, client), object), version);
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t w = sim::splitmix64(s);
    std::memcpy(out.data() + i, &w, std::min<std::size_t>(8, size - i));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// hepnos_loader: Table IV C2 data-loader, closed loop
// ---------------------------------------------------------------------------

RoundResult run_hepnos_loader(const RoundConfig& cfg) {
  sampler_record(true);
  RoundResult r;
  sym::workloads::HepnosWorld::Params p;
  p.config = sym::workloads::table4_c2();
  p.file_model.events_per_file = cfg.reduced ? 512 : 4096;
  p.file_model.payload_bytes = 512;
  p.files_per_client = 1;
  p.seed = cfg.seed;
  p.instr = cfg.instr;
  const std::uint32_t clients = p.config.total_clients;
  const std::uint32_t events = p.file_model.events_per_file;
  // One construction takes milliseconds: too short to time steadily, so
  // set-up builds the world this many times and keeps the last.
  const int constructions = cfg.reduced ? 4 : 512;

  const std::uint64_t a0 = allocs_now();
  const double t0 = host_now();
  std::unique_ptr<sym::workloads::HepnosWorld> world;
  for (int i = 0; i < constructions; ++i) {
    world.reset();
    world = std::make_unique<sym::workloads::HepnosWorld>(p);
  }
  const double t1 = host_now();
  const std::uint64_t a1 = allocs_now();
  r.build_s = t1 - t0;
  r.allocs_setup = a1 - a0;

  world->run();
  r.run_s = host_now() - t1;
  r.allocs_run = allocs_now() - a1;

  const Analysis a = analyze(world->all_profiles(), world->all_traces(),
                             world->all_sysstats(), r);
  sampler_record(false);

  // Counters.
  read_engine(world->engine(), r);
  std::uint64_t invoked = 0, handled = 0, client_invoked = 0;
  std::uint64_t loader_rpcs = 0, loaded = 0;
  for (std::size_t i = 0; i < world->server_count(); ++i) {
    const auto c = read_instance(world->server_instance(i), r);
    invoked += c.invoked;
    handled += c.handled;
  }
  for (std::size_t i = 0; i < world->client_count(); ++i) {
    const auto c = read_instance(world->client_instance(i), r);
    invoked += c.invoked;
    handled += c.handled;
    client_invoked += c.invoked;
  }
  for (const auto& s : world->loader_stats()) {
    loader_rpcs += s.rpcs;
    loaded += s.events;
  }
  r.requests = loader_rpcs;
  r.attempted = loader_rpcs;

  // Every event each loader wrote is stored exactly once, with its payload.
  const std::uint64_t expected = static_cast<std::uint64_t>(clients) * events;
  if (loaded != expected) r.fail("loaders report the wrong event count");
  std::vector<std::uint8_t> seen(expected, 0);
  std::uint64_t stored = 0;
  const std::string payload(p.file_model.payload_bytes, 'x');
  std::vector<sym::sdskv::KeyValue> kvs;
  for (std::size_t s = 0; s < world->server_count() && r.ok; ++s) {
    auto& kv = world->hepnos_server(s).kv();
    for (std::uint32_t d = 0; d < kv.db_count() && r.ok; ++d) {
      in_ult([&] { kvs = kv.db(d).list_keyvals("", ~std::size_t{0}); });
      for (const auto& [key, value] : kvs) {
        ++stored;
        // Key layout: dataset "%<run:8 hex>%<subrun:8 hex>%<event:16 hex>".
        unsigned run = 0, subrun = 0;
        unsigned long long ev = 0;
        if (std::sscanf(key.c_str(), "NOvA%%%8x%%%8x%%%16llx", &run, &subrun,
                        &ev) != 3 ||
            run >= clients || subrun != 0 || ev >= events) {
          r.fail("unexpected key stored: " + key);
          break;
        }
        std::uint8_t& mark = seen[std::uint64_t{run} * events + ev];
        if (mark != 0) r.fail("event stored twice: " + key);
        mark = 1;
        if (value != payload) r.fail("event payload corrupted: " + key);
      }
    }
  }
  if (r.ok && stored != expected) r.fail("events missing from the databases");

  // The loader's RPC count, the origin and target PVARs and the profile
  // agree. Each client also makes one SSG observe RPC to bootstrap.
  if (client_invoked != loader_rpcs + clients) {
    r.fail("origin num_rpcs_invoked disagrees with the loader RPC count");
  }
  if (handled != invoked) {
    r.fail("target num_rpcs_handled disagrees with origin num_rpcs_invoked");
  }
  if (cfg.instr == prof::Level::kFull) {
    if (put_packed_calls(a.profile) != loader_rpcs) {
      r.fail("profile put_packed call count disagrees with the loader");
    }
    check_traces(a, r);
  }

  std::uint64_t d = fold(0, static_cast<std::uint64_t>(world->makespan()));
  d = fold(d, world->events_stored());
  d = fold(d, r.events);
  d = fold(d, loader_rpcs);
  d = fold(d, a.traces.total_events);
  d = fold(d, a.traces.total_spans);
  d = fold(d, std::hash<std::string>{}(a.zipkin));
  r.sim_digest = d;
  return r;
}

// ---------------------------------------------------------------------------
// mobject_ior: ior over Mobject, preloaded objects, checked reads
// ---------------------------------------------------------------------------

RoundResult run_mobject_ior(const RoundConfig& cfg) {
  RoundResult r;
  const std::uint32_t clients = cfg.reduced ? 4 : 10;
  const std::uint32_t objects = cfg.reduced ? 4 : 16;  ///< preloaded per client
  const std::uint32_t ops = cfg.reduced ? 8 : 64;      ///< timed, per client
  const std::size_t object_size = 64 * 1024;
  // The engine seed is fixed: virtual timing, and so which extents a read
  // sees, must not depend on the workload seed. Object contents do.
  constexpr std::uint64_t kEngineSeed = 42;

  struct Read {
    std::uint32_t client, object, version;
    std::vector<std::byte> got;
  };
  struct ClientPlan {
    std::vector<std::vector<std::byte>> preload;  ///< per object, version 0
    std::vector<std::vector<std::byte>> writes;   ///< timed writes, in order
    std::vector<Read> reads;
  };

  // Inputs, made before any timing: every byte written derives from the
  // seed.
  std::vector<ClientPlan> plans(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    for (std::uint32_t o = 0; o < objects; ++o) {
      plans[c].preload.push_back(object_bytes(cfg.seed, c, o, 0, object_size));
    }
    for (std::uint32_t k = 0; k < ops; k += 2) {
      const std::uint32_t o = (k / 2) % objects;
      plans[c].writes.push_back(
          object_bytes(cfg.seed, c, o, 1 + k / 2 / objects, object_size));
    }
    plans[c].reads.reserve(ops / 2);
  }

  sampler_record(true);
  const std::uint64_t a0 = allocs_now();
  const double t0 = host_now();
  sim::Engine eng(kEngineSeed);
  sim::ClusterParams cp;
  cp.node_count = 1;
  sim::Cluster cluster(eng, cp);
  sym::ofi::Fabric fabric(cluster);
  margo::InstanceConfig sc;
  sc.server = true;
  sc.handler_es = 8;
  sc.instr = cfg.instr;
  margo::Instance server(fabric, cluster.spawn_process(0, "mobject-provider"),
                         sc);
  sym::mobject::Server mobject(server);
  std::vector<std::unique_ptr<margo::Instance>> mids;
  std::vector<std::unique_ptr<sym::mobject::Client>> mcs;
  for (std::uint32_t c = 0; c < clients; ++c) {
    margo::InstanceConfig cc;
    cc.instr = cfg.instr;
    mids.push_back(std::make_unique<margo::Instance>(
        fabric, cluster.spawn_process(0, "ior-" + std::to_string(c)), cc));
    mcs.push_back(std::make_unique<sym::mobject::Client>(*mids.back()));
  }
  const double t1 = host_now();
  r.build_s = t1 - t0;

  const auto target = server.addr();
  const auto provider = mobject.config().mobject_provider;
  auto name_of = [](std::uint32_t c, std::uint32_t o) {
    return "ior-c" + std::to_string(c) + "-o" + std::to_string(o);
  };

  // Warm-up: preload every object, then stop the engine.
  server.start();
  for (auto& m : mids) m->start();
  std::uint32_t remaining = clients;
  for (std::uint32_t c = 0; c < clients; ++c) {
    mids[c]->spawn([&, c] {
      for (std::uint32_t o = 0; o < objects; ++o) {
        mcs[c]->write_op(target, provider, name_of(c, o),
                         std::move(plans[c].preload[o]));
      }
      if (--remaining == 0) eng.stop();
    });
  }
  eng.run();
  eng.reset_stop();
  const double t2 = host_now();
  const std::uint64_t a2 = allocs_now();
  r.warmup_s = t2 - t1;
  r.allocs_setup = a2 - a0;
  const std::uint64_t preload_events = eng.events_processed();

  // Timed phase: each client alternates a write of a new version and a read
  // of one of its own objects, so "last written" is program order.
  remaining = clients;
  for (std::uint32_t c = 0; c < clients; ++c) {
    mids[c]->spawn([&, c] {
      std::vector<std::uint32_t> version(objects, 0);
      std::size_t w = 0;
      for (std::uint32_t k = 0; k < ops; ++k) {
        if (k % 2 == 0) {
          const std::uint32_t o = (k / 2) % objects;
          mcs[c]->write_op(target, provider, name_of(c, o),
                           std::move(plans[c].writes[w++]));
          ++version[o];
        } else {
          const std::uint32_t o = (k / 2 * 3 + 1) % objects;
          plans[c].reads.push_back(Read{
              c, o, version[o],
              mcs[c]->read_op(target, provider, name_of(c, o))});
        }
      }
      mids[c]->finalize();
      if (--remaining == 0) server.finalize();
    });
  }
  eng.run();
  r.run_s = host_now() - t2;
  r.allocs_run = allocs_now() - a2;

  std::vector<margo::Instance*> instances{&server};
  for (auto& m : mids) instances.push_back(m.get());
  std::vector<const prof::ProfileStore*> profiles;
  std::vector<const prof::TraceStore*> traces;
  std::vector<std::pair<std::string, const prof::SysStatStore*>> stats;
  for (margo::Instance* m : instances) {
    profiles.push_back(&m->profile());
    traces.push_back(&m->trace());
    stats.emplace_back(m->process().name(), &m->sysstats());
  }
  const Analysis a = analyze(profiles, traces, stats, r);
  sampler_record(false);

  read_engine(eng, r);
  r.events -= preload_events;
  std::uint64_t invoked = 0, handled = 0;
  for (margo::Instance* m : instances) {
    const auto c = read_instance(*m, r);
    invoked += c.invoked;
    handled += c.handled;
  }
  const std::uint64_t preload_ops = std::uint64_t{clients} * objects;
  r.requests = static_cast<std::uint64_t>(clients) * ops;
  r.attempted = r.requests;

  // Each read must return the bytes last written to its object.
  std::uint64_t d = fold(0, eng.now());
  for (const auto& plan : plans) {
    for (const auto& rd : plan.reads) {
      const auto want = object_bytes(cfg.seed, rd.client, rd.object,
                                     rd.version, object_size);
      const bool match = rd.got == want;
      if (!match) ++r.failed;
      d = fold(d, match ? 1 : 0);
    }
  }
  if (mobject.write_ops() != preload_ops + r.requests / 2 ||
      mobject.read_ops() != r.requests / 2) {
    r.fail("server op counters disagree with the ops sent");
  }
  if (handled != invoked) {
    r.fail("target num_rpcs_handled disagrees with origin num_rpcs_invoked");
  }

  // Fig. 5: every write_op trace holds exactly 12 child calls.
  if (cfg.instr == prof::Level::kFull) {
    const auto write_leaf = prof::hash16("mobject_write_op");
    std::uint64_t write_traces = 0;
    for (const auto& rt : a.traces.requests) {
      const auto root = std::find_if(
          rt.spans.begin(), rt.spans.end(),
          [](const prof::Span& sp) { return sp.parent < 0; });
      if (root == rt.spans.end() || prof::depth(root->breadcrumb) != 1 ||
          prof::leaf_of(root->breadcrumb) != write_leaf) {
        continue;
      }
      ++write_traces;
      const auto root_index = root - rt.spans.begin();
      std::size_t children = 0;
      for (const auto& sp : rt.spans) children += sp.parent == root_index;
      if (children != 12) {
        r.fail("write_op trace with " + std::to_string(children) +
               " child calls, expected 12");
        break;
      }
    }
    if (r.ok && write_traces != preload_ops + r.requests / 2) {
      r.fail("write_op trace count disagrees with the writes sent");
    }
    check_traces(a, r);
  }

  d = fold(d, r.events);
  d = fold(d, r.rpcs);
  d = fold(d, a.traces.total_events);
  d = fold(d, std::hash<std::string>{}(a.zipkin));
  r.sim_digest = d;
  return r;
}

// ---------------------------------------------------------------------------
// loadgen_montage: open-loop montage_smallfiles below saturation
// ---------------------------------------------------------------------------

namespace {

/// Mean of the bounded Pareto on [lo, hi] with tail index a (a != 1):
/// E[X] = a lo^a (hi^(1-a) - lo^(1-a)) / ((1-a) (1 - (lo/hi)^a)).
/// Derived here rather than taken from BoundedPareto::mean(), so the
/// service-time check does not trust the code it checks.
double bounded_pareto_mean(double lo, double hi, double a) {
  return a * std::pow(lo, a) * (std::pow(hi, 1 - a) - std::pow(lo, 1 - a)) /
         ((1 - a) * (1 - std::pow(lo / hi, a)));
}

double service_ns(const lg::OpClass& op) {
  return static_cast<double>(op.base_ns) +
         bounded_pareto_mean(op.size_bytes.lo, op.size_bytes.hi,
                             op.size_bytes.alpha) /
             op.bytes_per_ns;
}

constexpr std::uint32_t kNodes = 32;
constexpr std::uint32_t kServers = kNodes / 4;  ///< LoadgenWorld's default
constexpr double kTargetUtilisation = 0.7;

struct LoadPlan {
  std::uint64_t clients = 0;
  double utilisation = 0;       ///< predicted server busy share
  double arrivals_per_ms = 0;   ///< per client, averaged over a cycle
};

/// Clients that keep the servers kTargetUtilisation busy, and what that
/// population should produce, from the scenario's stated rates alone.
LoadPlan plan_load(const lg::Scenario& sc) {
  double cycle_ms = 0, arrivals = 0, work_ns = 0;
  for (const auto& ph : sc.phases) {
    const double ms = sim::to_millis(ph.duration);
    double wsum = 0, wserv = 0;
    for (std::size_t i = 0; i < sc.ops.size(); ++i) {
      const double scale =
          ph.weight_scale.empty() ? 1.0 : ph.weight_scale[i];
      const double w = sc.ops[i].weight * scale;
      wsum += w;
      wserv += w * service_ns(sc.ops[i]);
    }
    const double n = sc.arrivals_per_client_per_ms * ph.rate_scale * ms;
    cycle_ms += ms;
    arrivals += n;
    work_ns += n * wserv / wsum;
  }
  const double util_per_client = work_ns / (cycle_ms * 1e6) / kServers;
  LoadPlan lp;
  lp.clients = static_cast<std::uint64_t>(
      std::llround(kTargetUtilisation / util_per_client));
  lp.utilisation = util_per_client * static_cast<double>(lp.clients);
  lp.arrivals_per_ms = arrivals / cycle_ms;
  return lp;
}

lg::LoadgenParams loadgen_params(const lg::Scenario& sc, std::uint64_t clients,
                                 sim::DurationNs horizon, std::uint64_t seed,
                                 std::uint32_t workers) {
  lg::LoadgenParams p;
  p.scenario = sc;
  p.node_count = kNodes;
  p.client_population = clients;
  p.horizon = horizon;
  p.seed = seed;
  p.exec.lane_count = 0;  // one lane per node
  p.exec.worker_count = workers;
  return p;
}

}  // namespace

RoundResult run_loadgen_montage(const RoundConfig& cfg) {
  sampler_record(true);
  RoundResult r;
  const lg::Scenario& sc = *lg::find_preset("montage_smallfiles");
  sim::DurationNs cycle = 0;
  for (const auto& ph : sc.phases) cycle += ph.duration;
  const std::uint32_t cycles = cfg.reduced ? 10 : 400;
  const sim::DurationNs horizon = cycle * cycles;
  const LoadPlan plan = plan_load(sc);

  // Set-up: the capacity-planning pass of bench/scale_study.cpp on a fifth
  // of the horizon, then the measured world pre-sized from its marks.
  const std::uint64_t a0 = allocs_now();
  const double t0 = host_now();
  lg::LoadgenParams p =
      loadgen_params(sc, plan.clients, horizon / 5, cfg.seed, 1);
  double build = 0;
  {
    lg::LoadgenWorld warm(p);
    const double tb = host_now();
    build += tb - t0;
    warm.run();
    const std::uint32_t lanes = warm.engine().lane_count();
    p.reserve_events_by_lane.resize(lanes);
    for (std::uint32_t l = 0; l < lanes; ++l) {
      const auto slots = warm.engine().arena_slot_count(l);
      p.reserve_events_by_lane[l] = static_cast<std::uint32_t>(slots * 2 + 64);
    }
    p.reserve_outbox_matrix = warm.engine().outbox_highwater();
    for (auto& hw : p.reserve_outbox_matrix) {
      if (hw != 0) hw = hw * 2 + 16;
    }
    p.reserve_requests_per_server = static_cast<std::uint32_t>(
        warm.request_slots() / warm.server_count() * 2 + 256);
    r.warmup_s = host_now() - tb;
  }
  p.horizon = horizon;
  p.exec.worker_count = cfg.workers;
  const double tc = host_now();
  lg::LoadgenWorld world(p);
  const double t1 = host_now();
  build += t1 - tc;
  r.build_s = build;
  const std::uint64_t a1 = allocs_now();
  r.allocs_setup = a1 - a0;

  world.run();
  r.run_s = host_now() - t1;
  r.allocs_run = allocs_now() - a1;
  sampler_record(false);

  read_engine(world.engine(), r);
  r.requests = world.completed();
  r.attempted = world.generated();
  r.arrival_ck = world.arrival_checksum();
  r.completion_ck = world.completion_checksum();

  // Arrivals: clients x rate x phase-weighted horizon.
  const double want_arrivals = static_cast<double>(plan.clients) *
                               plan.arrivals_per_ms * sim::to_millis(horizon);
  const double gen = static_cast<double>(world.generated());
  if (std::fabs(gen / want_arrivals - 1) > 0.03) {
    r.fail("arrivals " + std::to_string(gen) + " not within 3% of " +
           std::to_string(want_arrivals));
  }
  // Each op class is served in base_ns + mean size / bandwidth on average.
  const auto totals = world.op_totals();
  std::uint64_t delivered = 0, busy = 0;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    delivered += totals[i].requests;
    busy += totals[i].busy_ns;
    if (totals[i].completed == 0) {
      r.fail(std::string("op class never served: ") + sc.ops[i].name);
      continue;
    }
    const double mean = static_cast<double>(totals[i].busy_ns) /
                        static_cast<double>(totals[i].completed);
    const double want = service_ns(sc.ops[i]);
    if (std::fabs(mean / want - 1) > (cfg.reduced ? 0.10 : 0.03)) {
      r.fail(std::string("mean service time of ") + sc.ops[i].name + " is " +
             std::to_string(mean) + " ns, expected " + std::to_string(want));
    }
  }
  // Below saturation: utilisation under 1 and near the planned share, and
  // nearly everything generated completes within the horizon.
  const double util = static_cast<double>(busy) /
                      (static_cast<double>(world.server_count()) *
                       static_cast<double>(horizon));
  if (!(util < 1.0) || std::fabs(util - plan.utilisation) > 0.05) {
    r.fail("server utilisation " + std::to_string(util) + ", planned " +
           std::to_string(plan.utilisation));
  }
  if (world.server_count() != kServers) r.fail("unexpected server count");
  if (world.completed() + world.in_flight() != world.generated() ||
      delivered > world.generated() || world.completed() > delivered ||
      static_cast<double>(world.in_flight()) > 0.01 * gen) {
    r.fail("generated != completed + in flight, or a backlog grew");
  }

  std::uint64_t d = fold(r.arrival_ck, r.completion_ck);
  d = fold(d, world.generated());
  d = fold(d, world.completed());
  d = fold(d, r.events);
  d = fold(d, r.windows);
  d = fold(d, r.clamps);
  r.sim_digest = d;
  return r;
}

}  // namespace perfbench
