// Tests for the workloads layer: Table IV configurations and the HEPnOS /
// Mobject deployment harnesses (small-scale end-to-end runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bench/common.hpp"
#include "symbiosys/analysis.hpp"
#include "workloads/hepnos_world.hpp"
#include "workloads/mobject_world.hpp"
#include "workloads/table4.hpp"

namespace sim = sym::sim;
namespace prof = sym::prof;
using namespace sym::workloads;

// ---------------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------------

TEST(Table4, MatchesPaperRows) {
  const auto c1 = table4_c1();
  EXPECT_EQ(c1.total_clients, 32u);
  EXPECT_EQ(c1.clients_per_node, 16u);
  EXPECT_EQ(c1.total_servers, 4u);
  EXPECT_EQ(c1.servers_per_node, 2u);
  EXPECT_EQ(c1.batch_size, 1024u);
  EXPECT_EQ(c1.threads_es, 5u);
  EXPECT_EQ(c1.databases, 32u);
  EXPECT_FALSE(c1.client_progress_thread);
  EXPECT_EQ(c1.ofi_max_events, 16u);

  EXPECT_EQ(table4_c2().threads_es, 20u);
  EXPECT_EQ(table4_c3().databases, 8u);
  EXPECT_EQ(table4_c4().total_clients, 2u);
  EXPECT_EQ(table4_c4().threads_es, 16u);
  EXPECT_EQ(table4_c5().batch_size, 1u);
  EXPECT_EQ(table4_c6().ofi_max_events, 64u);
  EXPECT_TRUE(table4_c7().client_progress_thread);
  EXPECT_FALSE(table4_c6().client_progress_thread);
  EXPECT_EQ(table4_all().size(), 7u);
}

TEST(Table4, FormatListsAllConfigs) {
  const auto text = format_table4();
  for (const char* name : {"C1", "C2", "C3", "C4", "C5", "C6", "C7"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(Table4, OverheadStudyConfig) {
  const auto c = overhead_study_config();
  EXPECT_EQ(c.total_servers, 32u);
  EXPECT_EQ(c.total_clients, 224u);
  EXPECT_EQ(c.threads_es, 30u);
  EXPECT_EQ(c.batch_size, 8192u);
}

// ---------------------------------------------------------------------------
// HepnosWorld
// ---------------------------------------------------------------------------

namespace {

HepnosWorld::Params small_params(HepnosConfig cfg,
                                 std::uint32_t events = 256) {
  HepnosWorld::Params p;
  p.config = std::move(cfg);
  p.config.total_clients = 4;
  p.config.clients_per_node = 2;
  p.file_model.events_per_file = events;
  p.file_model.payload_bytes = 128;
  p.files_per_client = 1;
  return p;
}

}  // namespace

TEST(HepnosWorld, RunsToCompletionAndStoresAllEvents) {
  auto params = small_params(table4_c3());
  HepnosWorld world(params);
  EXPECT_EQ(world.server_count(), 4u);
  EXPECT_EQ(world.client_count(), 4u);
  world.run();
  EXPECT_EQ(world.events_stored(), 4u * 256u);
  EXPECT_GT(world.makespan(), 0u);
  for (const auto& s : world.loader_stats()) {
    EXPECT_EQ(s.events, 256u);
    EXPECT_GT(s.rpcs, 0u);
  }
}

TEST(HepnosWorld, RejectsUnevenDatabaseSplit) {
  auto params = small_params(table4_c3());
  params.config.databases = 7;  // not divisible by 4 servers
  EXPECT_THROW(HepnosWorld w(params), std::invalid_argument);
}

TEST(HepnosWorld, ProfilesCoverPutPacked) {
  auto params = small_params(table4_c3());
  HepnosWorld world(params);
  world.run();
  const auto summary = prof::ProfileSummary::build(world.all_profiles());
  // The paper: sdskv_put_packed is the only dominant callpath.
  ASSERT_FALSE(summary.callpaths.empty());
  EXPECT_EQ(summary.callpaths[0].name, "sdskv_put_packed_rpc");
  EXPECT_EQ(summary.callpaths[0].per_target_ns.size(), 4u);  // all servers
  EXPECT_EQ(summary.callpaths[0].per_origin_ns.size(), 4u);  // all clients
}

TEST(HepnosWorld, TracesStitchAcrossProcesses) {
  auto params = small_params(table4_c3(), 64);
  HepnosWorld world(params);
  world.run();
  const auto summary = prof::TraceSummary::build(world.all_traces());
  EXPECT_GT(summary.total_spans, 0u);
  // Every span must pair an origin (client) with a target (server).
  for (const auto& rt : summary.requests) {
    for (const auto& sp : rt.spans) {
      EXPECT_NE(sp.origin_ep, sp.target_ep);
      EXPECT_LE(sp.origin_start, sp.origin_end);
    }
  }
}

TEST(HepnosWorld, DeterministicForSameSeed) {
  auto run_once = [] {
    auto params = small_params(table4_c3(), 128);
    HepnosWorld world(params);
    world.run();
    return std::make_pair(world.makespan(),
                          world.engine().events_processed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(HepnosWorld, SeedChangesSchedule) {
  auto run_with_seed = [](std::uint64_t seed) {
    auto params = small_params(table4_c3(), 128);
    params.seed = seed;
    HepnosWorld world(params);
    world.run();
    return world.makespan();
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(HepnosWorld, InstrumentationOffStillStoresEvents) {
  auto params = small_params(table4_c3());
  params.instr = prof::Level::kOff;
  HepnosWorld world(params);
  world.run();
  EXPECT_EQ(world.events_stored(), 4u * 256u);
  for (const auto* t : world.all_traces()) EXPECT_EQ(t->size(), 0u);
  for (const auto* p : world.all_profiles()) EXPECT_EQ(p->size(), 0u);
}

TEST(HepnosWorld, DedicatedProgressEsReducesOfiBacklog) {
  // The C5 vs C7 contrast at miniature scale.
  auto run_cfg = [](HepnosConfig cfg) {
    HepnosWorld::Params p;
    p.config = std::move(cfg);
    p.config.total_clients = 2;
    p.file_model.events_per_file = 256;
    p.file_model.payload_bytes = 128;
    HepnosWorld world(p);
    world.run();
    double max_read = 0;
    for (const auto* ts : world.client_traces()) {
      for (const auto& ev : ts->events()) {
        if (ev.kind == prof::TraceEventKind::kOriginEnd) {
          max_read = std::max(max_read,
                              static_cast<double>(ev.num_ofi_events_read));
        }
      }
    }
    return max_read;
  };
  const double c5 = run_cfg(table4_c5());
  const double c7 = run_cfg(table4_c7());
  EXPECT_GE(c5, 16.0);  // shared ES: reads hit the OFI_max_events cap
  EXPECT_LT(c7, 16.0);  // dedicated progress ES: queue stays drained
}

TEST(HepnosWorld, Fig13OverheadStagesShape) {
  // The §VI-B staged-overhead shape on overhead_study's smoke-sized world.
  // Strict per-seed ordering of all four stages does not hold (Full can end
  // a hair before Stage 2, and Stage 1 before OFF), so the contract is:
  // the two recording stages are slower than the two that record nothing,
  // metadata propagation alone is within 0.5% of OFF, Full stays within the
  // paper's 1.5x bar, and only the recording stages emit trace events.
  const prof::Level levels[] = {prof::Level::kOff, prof::Level::kStage1,
                                prof::Level::kStage2, prof::Level::kFull};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    double ms[4] = {};
    std::size_t events[4] = {};
    for (int i = 0; i < 4; ++i) {
      HepnosWorld world(bench::overhead_params(true, levels[i], seed));
      world.run();
      ms[i] = sim::to_millis(world.makespan());
      for (const auto* t : world.all_traces()) events[i] += t->size();
    }
    const double off = ms[0], stage1 = ms[1], stage2 = ms[2], full = ms[3];
    EXPECT_GT(std::min(stage2, full), std::max(off, stage1));
    EXPECT_LT(std::abs(stage1 - off) / off, 0.005);
    EXPECT_LE(full, 1.5 * off);
    EXPECT_EQ(events[0], 0u);
    EXPECT_EQ(events[1], 0u);
    EXPECT_GT(events[2], 0u);
    EXPECT_EQ(events[3], events[2]);
  }
}

// ---------------------------------------------------------------------------
// MobjectWorld
// ---------------------------------------------------------------------------

TEST(MobjectWorld, IorWorkloadCompletes) {
  MobjectWorld::Params p;
  p.ior.clients = 4;
  p.ior.ops_per_client = 6;
  p.ior.object_bytes = 8 * 1024;
  MobjectWorld world(p);
  world.run();
  EXPECT_GT(world.mobject_server().write_ops(), 0u);
  EXPECT_EQ(world.mobject_server().write_ops() +
                world.mobject_server().read_ops(),
            4u * 6u);
}

TEST(MobjectWorld, DominantCallpathsDiscovered) {
  MobjectWorld::Params p;
  p.ior.clients = 4;
  p.ior.ops_per_client = 8;
  p.ior.read_fraction = 0.5;
  MobjectWorld world(p);
  world.run();
  const auto summary = prof::ProfileSummary::build(world.all_profiles());
  EXPECT_GE(summary.callpaths.size(), 5u);
  // Depth-2 paths (mobject op => sdskv/bake) must be present.
  bool found_depth2 = false;
  for (const auto& cb : summary.callpaths) {
    if (prof::depth(cb.breadcrumb) == 2) found_depth2 = true;
  }
  EXPECT_TRUE(found_depth2);
}
