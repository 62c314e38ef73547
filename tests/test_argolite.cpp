// Unit tests for argolite: ULT scheduling, ES occupancy, pools, sync
// primitives, ULT-local keys, and the queueing behaviour the HEPnOS
// experiments depend on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "argolite/runtime.hpp"
#include "argolite/sync.hpp"
#include "simkit/cluster.hpp"
#include "simkit/engine.hpp"

namespace sim = sym::sim;
namespace abt = sym::abt;

namespace {

/// Common fixture: one engine, one node, one process, one runtime.
struct AbtFixture {
  sim::Engine eng{42};
  sim::Cluster cluster{eng, sim::ClusterParams{.node_count = 1}};
  sim::Process& proc{cluster.spawn_process(0, "test")};
  abt::Runtime rt{eng, proc};
};

}  // namespace

TEST(Argolite, UltRunsToCompletion) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  bool ran = false;
  f.rt.create_ult(pool, [&] { ran = true; });
  f.eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(f.rt.ults_created(), 1u);
  EXPECT_EQ(f.rt.ults_finished(), 1u);
  EXPECT_EQ(f.rt.live_ults(), 0u);
}

TEST(Argolite, ComputeAdvancesVirtualTime) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  sim::TimeNs end = 0;
  f.rt.create_ult(pool, [&] {
    abt::compute(sim::usec(100));
    end = f.eng.now();
  });
  f.eng.run();
  EXPECT_GE(end, sim::usec(100));
  // Dispatch overhead is small relative to the computation.
  EXPECT_LT(end, sim::usec(101));
  EXPECT_EQ(f.proc.cpu_time(), sim::usec(100));
}

TEST(Argolite, SingleEsSerializesComputingUlts) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  std::vector<sim::TimeNs> ends;
  for (int i = 0; i < 3; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::compute(sim::usec(10));
      ends.push_back(f.eng.now());
    });
  }
  f.eng.run();
  ASSERT_EQ(ends.size(), 3u);
  // Each ULT must wait for the previous one's compute: ends are >= 10, 20,
  // 30 us apart.
  EXPECT_GE(ends[1], ends[0] + sim::usec(10));
  EXPECT_GE(ends[2], ends[1] + sim::usec(10));
}

TEST(Argolite, TwoEsRunUltsConcurrently) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  std::vector<sim::TimeNs> ends;
  for (int i = 0; i < 2; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::compute(sim::usec(10));
      ends.push_back(f.eng.now());
    });
  }
  f.eng.run();
  ASSERT_EQ(ends.size(), 2u);
  // Both finish at ~10us: true concurrency in virtual time.
  EXPECT_LT(ends[1], sim::usec(11));
}

TEST(Argolite, YieldInterleavesUlts) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  std::vector<int> order;
  f.rt.create_ult(pool, [&] {
    order.push_back(1);
    abt::yield();
    order.push_back(3);
  });
  f.rt.create_ult(pool, [&] { order.push_back(2); });
  f.eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Argolite, SleepForDoesNotOccupyEs) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  sim::TimeNs sleeper_end = 0, worker_end = 0;
  f.rt.create_ult(pool, [&] {
    abt::sleep_for(sim::usec(100));
    sleeper_end = f.eng.now();
  });
  f.rt.create_ult(pool, [&] {
    abt::compute(sim::usec(10));
    worker_end = f.eng.now();
  });
  f.eng.run();
  // Worker ran while the sleeper slept.
  EXPECT_LT(worker_end, sim::usec(50));
  EXPECT_GE(sleeper_end, sim::usec(100));
  // The sleeper consumed no CPU.
  EXPECT_EQ(f.proc.cpu_time(), sim::usec(10));
}

TEST(Argolite, HandlerTimeEmergesWhenEsStarved) {
  // With 1 ES and 4 compute-bound ULTs, later ULTs wait in the pool; their
  // first_run_at - created_at gap is the paper's "target ULT handler time".
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  std::vector<abt::Ult*> ults;
  for (int i = 0; i < 4; ++i) {
    auto& u = f.rt.create_ult(pool, [&] { abt::compute(sim::usec(100)); });
    ults.push_back(&u);
  }
  std::vector<sim::DurationNs> handler_times;
  // Sample the gap in a monitor ULT before destruction: easiest is to just
  // capture first_run_at via the engine after each compute slot.
  // ULTs are destroyed on finish, so record inside bodies instead.
  f.eng.run();
  // Re-run the experiment, this time recording from inside the ULTs.
  AbtFixture g;
  auto& pool2 = g.rt.create_pool("p");
  g.rt.create_xstream({&pool2});
  std::vector<sim::TimeNs> starts;
  for (int i = 0; i < 4; ++i) {
    g.rt.create_ult(pool2, [&] {
      starts.push_back(g.eng.now());
      abt::compute(sim::usec(100));
    });
  }
  g.eng.run();
  ASSERT_EQ(starts.size(), 4u);
  // ULT i starts roughly i*100us after creation (all created at t=0).
  EXPECT_LT(starts[0], sim::usec(1));
  EXPECT_GE(starts[3], sim::usec(300));
}

TEST(Argolite, UltLocalKeysIsolatedPerUlt) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  const auto key = abt::Runtime::key_create();
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    f.rt.create_ult(pool, [&, i] {
      abt::self_set(key, i * 1000);
      abt::yield();  // other ULTs run and set the same key
      seen.push_back(abt::self_get(key));
    });
  }
  f.eng.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1000, 2000, 3000}));
}

TEST(Argolite, UnsetKeyReadsZero) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  const auto key = abt::Runtime::key_create();
  std::uint64_t v = 99;
  f.rt.create_ult(pool, [&] { v = abt::self_get(key); });
  f.eng.run();
  EXPECT_EQ(v, 0u);
}

// The this-ULT calls need a running ULT to suspend; outside one they must
// fail cleanly in every build type, not dereference a null ULT.
TEST(Argolite, ThisUltCallsOutsideUltThrow) {
  AbtFixture f;
  EXPECT_EQ(abt::self(), nullptr);
  EXPECT_THROW(abt::yield(), std::logic_error);
  EXPECT_THROW(abt::compute(sim::usec(1)), std::logic_error);
  EXPECT_THROW(abt::sleep_for(sim::usec(1)), std::logic_error);
  EXPECT_THROW(abt::block_self(), std::logic_error);
  EXPECT_THROW(abt::self_set(abt::Runtime::key_create(), 1), std::logic_error);
  EXPECT_EQ(abt::self_get(0), 0u);
  EXPECT_EQ(f.eng.pending_events(), 0u);  // nothing was scheduled
}

TEST(Argolite, MutexMutualExclusion) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 4; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::LockGuard g(m);
      ++in_critical;
      max_in_critical = std::max(max_in_critical, in_critical);
      abt::compute(sim::usec(10));
      --in_critical;
    });
  }
  f.eng.run();
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_GE(m.contended_acquires(), 1u);
  EXPECT_FALSE(m.locked());
}

TEST(Argolite, MutexBlockedCountVisibleInPool) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  std::uint64_t observed_blocked = 0;
  // Holder grabs the lock and computes; two others block on it; an observer
  // samples the runtime's blocked count, as SYMBIOSYS does for Fig. 10.
  f.rt.create_ult(pool, [&] {
    abt::LockGuard g(m);
    abt::compute(sim::usec(100));
  });
  for (int i = 0; i < 2; ++i) {
    f.rt.create_ult(pool, [&] { abt::LockGuard g(m); });
  }
  f.eng.after(sim::usec(50), [&] { observed_blocked = f.rt.total_blocked(); });
  f.eng.run();
  EXPECT_EQ(observed_blocked, 2u);
  EXPECT_EQ(f.rt.total_blocked(), 0u);
}

TEST(Argolite, MutexFifoHandoff) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  std::vector<int> order;
  f.rt.create_ult(pool, [&] {
    m.lock();
    abt::compute(sim::usec(10));
    m.unlock();
  });
  for (int i = 0; i < 3; ++i) {
    f.rt.create_ult(pool, [&, i] {
      m.lock();
      order.push_back(i);
      m.unlock();
    });
  }
  f.eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Argolite, TryLock) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  bool first = false, second = true;
  f.rt.create_ult(pool, [&] {
    first = m.try_lock();
    second = m.try_lock();
    m.unlock();
  });
  f.eng.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(Argolite, EventualWaitBeforeSet) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Eventual ev;
  sim::TimeNs woke_at = 0;
  f.rt.create_ult(pool, [&] {
    ev.wait();
    woke_at = f.eng.now();
  });
  f.eng.after(sim::usec(500), [&] { ev.set(); });
  f.eng.run();
  EXPECT_GE(woke_at, sim::usec(500));
  EXPECT_TRUE(ev.is_set());
}

TEST(Argolite, EventualWaitAfterSetReturnsImmediately) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Eventual ev;
  ev.set();
  bool done = false;
  f.rt.create_ult(pool, [&] {
    ev.wait();
    done = true;
  });
  f.eng.run();
  EXPECT_TRUE(done);
  EXPECT_LT(f.eng.now(), sim::usec(1));
}

TEST(Argolite, EventualResetReuse) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Eventual ev;
  int wakes = 0;
  f.rt.create_ult(pool, [&] {
    ev.wait();
    ++wakes;
    ev.reset();
    ev.wait();
    ++wakes;
  });
  f.eng.after(sim::usec(10), [&] { ev.set(); });
  f.eng.after(sim::usec(20), [&] { ev.set(); });
  f.eng.run();
  EXPECT_EQ(wakes, 2);
}

TEST(Argolite, CondVarSignalWakesOne) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  abt::Mutex m;
  abt::CondVar cv;
  int woken = 0;
  for (int i = 0; i < 2; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::LockGuard g(m);
      cv.wait(m);
      ++woken;
    });
  }
  f.eng.after(sim::usec(10), [&] { cv.signal(); });
  f.eng.after(sim::usec(20), [&] { cv.broadcast(); });
  f.eng.run();
  EXPECT_EQ(woken, 2);
}

TEST(Argolite, BarrierReleasesCohortTogether) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  f.rt.create_xstream({&pool});
  abt::Barrier bar(3);
  std::vector<sim::TimeNs> done;
  for (int i = 0; i < 3; ++i) {
    f.rt.create_ult(pool, [&, i] {
      abt::compute(sim::usec(10) * (i + 1));  // staggered arrivals
      bar.wait();
      done.push_back(f.eng.now());
    });
  }
  f.eng.run();
  ASSERT_EQ(done.size(), 3u);
  // No one finishes before the slowest arrival at ~30us.
  for (auto t : done) EXPECT_GE(t, sim::usec(30));
}

TEST(Argolite, PoolCountersConsistent) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  f.rt.create_xstream({&pool});
  for (int i = 0; i < 5; ++i) {
    f.rt.create_ult(pool, [] { abt::compute(sim::usec(1)); });
  }
  EXPECT_EQ(pool.ready_count(), 5u);
  EXPECT_EQ(pool.total_pushed(), 5u);
  f.eng.run();
  EXPECT_EQ(pool.ready_count(), 0u);
  EXPECT_EQ(pool.blocked_count(), 0u);
  EXPECT_EQ(pool.running_count(), 0u);
}

TEST(Argolite, XstreamBusyTimeAccumulates) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  auto& xs = f.rt.create_xstream({&pool});
  f.rt.create_ult(pool, [] {
    abt::compute(sim::usec(30));
    abt::compute(sim::usec(20));
  });
  f.eng.run();
  EXPECT_EQ(xs.busy_time(), sim::usec(50));
  EXPECT_EQ(xs.ults_dispatched(), 1u);
}

TEST(Argolite, DeterministicScheduleForSameSeed) {
  auto run_once = [] {
    AbtFixture f;
    auto& pool = f.rt.create_pool("p");
    f.rt.create_xstream({&pool});
    f.rt.create_xstream({&pool});
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 10; ++i) {
      f.rt.create_ult(pool, [&, i] {
        abt::compute(f.eng.rng().uniform_range(100, 5000));
        trace.push_back(static_cast<std::uint64_t>(i) * 1'000'000 +
                        f.eng.now() % 1'000'000);
      });
    }
    f.eng.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Argolite, ManyUltsStressAndNoLeaks) {
  AbtFixture f;
  auto& pool = f.rt.create_pool("p");
  for (int i = 0; i < 4; ++i) f.rt.create_xstream({&pool});
  int completed = 0;
  for (int i = 0; i < 500; ++i) {
    f.rt.create_ult(pool, [&] {
      abt::compute(sim::nsec(500));
      abt::yield();
      abt::compute(sim::nsec(500));
      ++completed;
    });
  }
  f.eng.run();
  EXPECT_EQ(completed, 500);
  EXPECT_EQ(f.rt.live_ults(), 0u);
}
