#include "simkit/engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "simkit/dheap.hpp"
#include "simkit/window.hpp"

namespace sym::sim {

namespace {

/// Expand the engine seed into one seed per lane. Lane 0 receives the seed
/// verbatim so a single-lane engine draws exactly the historical stream;
/// higher lanes get splitmix64-derived independent streams.
std::uint64_t lane_seed(std::uint64_t seed, std::uint32_t lane) {
  if (lane == 0) return seed;
  std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL * lane;
  return splitmix64(state);
}

struct ActiveLaneTls {
  Engine* engine = nullptr;
  Lane* lane = nullptr;
};

// symlint: allow(shared-state-escape) reason=thread_local active-lane cursor; each worker reads and writes only its own copy inside ActiveLaneScope
thread_local ActiveLaneTls t_active;

/// a + b without wrapping past kTimeNever (which means "unbounded").
inline TimeNs sat_add(TimeNs a, DurationNs b) noexcept {
  return a > kTimeNever - b ? kTimeNever : a + b;
}

/// a * f saturating at kTimeNever.
inline TimeNs sat_mul(TimeNs a, std::uint64_t f) noexcept {
  if (f != 0 && a > kTimeNever / f) return kTimeNever;
  return a * f;
}

}  // namespace

// ---------------------------------------------------------------------------
// NextEventIndex
// ---------------------------------------------------------------------------

void NextEventIndex::resize(std::uint32_t lanes) {
  heap_.clear();
  pos_.assign(lanes, kAbsent);
}

void NextEventIndex::reseat(std::size_t i, Entry e) {
  const auto place = [this](std::size_t j, const Entry& x) {
    heap_[j] = x;
    pos_[x.lane] = static_cast<std::uint32_t>(j);
  };
  const std::size_t up =
      dheap_sift_up<kHeapFanout>(heap_, i, e, &NextEventIndex::before, place);
  dheap_sift_down<kHeapFanout>(heap_, up, e, &NextEventIndex::before, place);
}

void NextEventIndex::update(std::uint32_t lane, TimeNs t) {
  const std::uint32_t at = pos_[lane];
  if ((at == kAbsent ? kTimeNever : heap_[at].t) == t) return;
  if (t == kTimeNever) {
    // Remove: move the last entry into the hole and restore heap order.
    const Entry last = heap_.back();
    heap_.pop_back();
    pos_[lane] = kAbsent;
    if (last.lane != lane) reseat(at, last);
    return;
  }
  if (at == kAbsent) heap_.push_back(Entry{t, lane});
  reseat(at == kAbsent ? heap_.size() - 1 : at, Entry{t, lane});
}

// ---------------------------------------------------------------------------
// ActiveLaneScope
// ---------------------------------------------------------------------------

ActiveLaneScope::ActiveLaneScope(Engine& engine, Lane& lane) noexcept
    : prev_engine_(t_active.engine), prev_lane_(t_active.lane) {
  t_active.engine = &engine;
  t_active.lane = &lane;
  debug::set_current_lane(lane.index());
}

ActiveLaneScope::~ActiveLaneScope() {
  t_active.engine = prev_engine_;
  t_active.lane = prev_lane_;
  debug::set_current_lane(prev_lane_ != nullptr ? prev_lane_->index()
                                                : debug::kNoLane);
}

// ---------------------------------------------------------------------------
// Construction / lane topology
// ---------------------------------------------------------------------------

Engine::Engine(std::uint64_t seed, EngineConfig config)
    : seed_(seed), config_(config), lookahead_(config.lookahead) {
  auto_shard_ = (config_.lane_count == 0);
  const std::uint32_t n =
      auto_shard_ ? 1 : std::min(config_.lane_count, kMaxLanes);
  build_lanes(n);
}

void Engine::build_lanes(std::uint32_t count) {
  assert(count >= 1);
  lanes_.clear();
  lanes_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    // symlint: allow(may-allocate) reason=one-time lane construction at
    // engine setup, before any event executes
    lanes_.push_back(std::make_unique<Lane>(i, lane_seed(seed_, i), count));
  }
  const std::uint32_t w = config_.worker_count == 0 ? 1 : config_.worker_count;
  workers_ = std::min(w, count);
  next_index_.resize(count);  // lanes start with next_dirty set
  window_ends_.assign(count, 0);
  la_matrix_.clear();
  la_paths_.clear();
  la_roundtrip_.clear();
}

void Engine::shard_for_nodes(std::uint32_t node_count) {
  if (!auto_shard_ || node_count == 0) return;
  auto_shard_ = false;
  const std::uint32_t n = std::min(node_count, kMaxLanes);
  if (n == lane_count()) return;
  assert(pending_events() == 0 && events_processed() == 0 &&
         "lane topology must be fixed before any event is scheduled");
  build_lanes(n);
}

void Engine::set_lookahead(DurationNs d) noexcept {
  lookahead_ = d > 0 ? d : 1;
}

void Engine::set_lookahead_matrix(std::vector<DurationNs> matrix) {
  const std::size_t n = lanes_.size();
  assert(matrix.size() == n * n && "matrix must be lane_count^2");
  la_matrix_ = std::move(matrix);
  // Scalar floor = off-diagonal minimum: the tightest bound any cross-lane
  // insertion anywhere must respect.
  DurationNs min_la = kTimeNever;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d) continue;
      auto& e = la_matrix_[s * n + d];
      if (e == 0) e = 1;  // a zero-delay link would make windows vacuous
      min_la = std::min(min_la, e);
    }
  }
  set_lookahead(min_la == kTimeNever ? 1 : min_la);
  // All-pairs shortest paths over the lookahead graph (Floyd-Warshall;
  // lanes <= 256, one-time cost). A lane with no pending events can still
  // relay causality: src wakes it, it posts onward — so the window bound
  // for dst against a busy src must use the cheapest multi-hop route, not
  // just the direct entry.
  la_paths_ = la_matrix_;
  for (std::size_t i = 0; i < n; ++i) la_paths_[i * n + i] = 0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const DurationNs ik = la_paths_[i * n + k];
      if (ik == kTimeNever) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const TimeNs via = sat_add(ik, la_paths_[k * n + j]);
        if (via < la_paths_[i * n + j]) la_paths_[i * n + j] = via;
      }
    }
  }
  // Minimum round trip i -> j -> i: the earliest a lane's own execution can
  // feed back to itself through any peer (in any number of windows).
  la_roundtrip_.assign(n, kTimeNever);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      la_roundtrip_[i] =
          std::min(la_roundtrip_[i],
                   sat_add(la_paths_[i * n + j], la_paths_[j * n + i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Context-sensitive accessors
// ---------------------------------------------------------------------------

Lane* Engine::active_lane_here() const noexcept {
  return t_active.engine == this ? t_active.lane : nullptr;
}

Lane& Engine::scheduling_lane() noexcept {
  if (Lane* a = active_lane_here()) return *a;
  return *lanes_[0];
}

TimeNs Engine::now() const noexcept {
  if (const Lane* a = active_lane_here()) return a->now();
  if (lanes_.size() == 1) return lanes_[0]->now();
  return main_now_;
}

Rng& Engine::rng() noexcept { return scheduling_lane().rng(); }

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

Engine::EventId Engine::at(TimeNs t, Callback cb) {
  Lane& l = scheduling_lane();
  return make_id(l.index(), l.schedule(t, std::move(cb)));
}

Engine::EventId Engine::at_on(std::uint32_t lane, TimeNs t, Callback cb) {
  assert(lane < lanes_.size());
  Lane* a = active_lane_here();
  if (a != nullptr && a->index() != lane) {
    // Cross-lane insertion from inside a running lane: deterministic
    // mailbox, delivered at the next window barrier. The lookahead
    // guarantees t lands at or beyond the end of the current window.
    a->post_remote(lane, t, std::move(cb));
    return 0;
  }
  return make_id(lane, lanes_[lane]->schedule(t, std::move(cb)));
}

bool Engine::cancel(EventId id) {
  if (id == 0) return false;
  const auto lane = static_cast<std::uint32_t>(id >> 56);
  const auto gen = static_cast<std::uint32_t>((id >> 28) & 0x0FFFFFFFu);
  const auto slot = static_cast<std::uint32_t>(id & 0x0FFFFFFFu);
  if (lane >= lanes_.size()) return false;
#ifndef NDEBUG
  const Lane* a = active_lane_here();
  assert((a == nullptr || a->index() == lane) &&
         "cancel() must target the calling context's own lane");
#endif
  return lanes_[lane]->cancel(slot, gen);
}

// ---------------------------------------------------------------------------
// Execution — classic (single lane)
// ---------------------------------------------------------------------------

void Engine::run_classic() {
  Lane& l = *lanes_[0];
  ActiveLaneScope scope(*this, l);
  while (!stopped() && l.pop_and_run()) {
  }
}

void Engine::run_until_classic(TimeNs deadline) {
  Lane& l = *lanes_[0];
  ActiveLaneScope scope(*this, l);
  while (!stopped()) {
    // Surface the true next live event before testing the deadline.
    TimeNs t;
    if (!l.peek_next(t) || t > deadline) break;
    l.pop_and_run();
  }
}

// ---------------------------------------------------------------------------
// Execution — sharded (safe windows)
// ---------------------------------------------------------------------------

void Engine::refresh_next_index() {
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    Lane& l = *lanes_[i];
    if (!l.take_next_dirty()) continue;
    TimeNs t;
    next_index_.update(i, l.peek_next(t) ? t : kTimeNever);
  }
}

void Engine::compute_window_ends(TimeNs start, bool bounded, TimeNs deadline) {
  const auto n = static_cast<std::uint32_t>(lanes_.size());
  const TimeNs cap = bounded ? sat_add(deadline, 1) : kTimeNever;
  // Per-lane conservative bound: the earliest timestamp any event executed
  // by a peer this window — or any causal descendant of it, relayed through
  // currently idle lanes across later windows — could carry into this lane.
  // Peers contribute next_j + shortest-path(j, dst); the lane's own next
  // event contributes its minimum round trip. Idle lanes (no entry in the
  // index) generate nothing this window and are covered by the relay paths.
  const auto& active = next_index_.entries();
  for (std::uint32_t dst = 0; dst < n; ++dst) {
    TimeNs bound = kTimeNever;
    for (const auto& e : active) {
      const TimeNs via =
          e.lane == dst
              ? sat_add(e.t, roundtrip_lookahead(dst))
              : sat_add(e.t, path_lookahead(e.lane, dst));
      bound = std::min(bound, via);
    }
    if (quiet_factor_ > 1 && bound != kTimeNever && bound > start) {
      // Speculative quiet-window extension: multiply the window length.
      bound = sat_add(start, sat_mul(bound - start, quiet_factor_));
    }
    window_ends_[dst] = std::min(bound, cap);
  }
}

void Engine::run_windows(bool bounded, TimeNs deadline) {
  assert(lookahead_ > 0 &&
         "sharded engine requires a lookahead (set by the Cluster)");
  WindowCoordinator coord(*this, workers_);
  quiet_factor_ = 1;
  while (!stopped()) {
    refresh_next_index();
    if (next_index_.empty()) break;
    // Next window starts at the earliest cached event across all lanes.
    const TimeNs start = next_index_.top_time();
    if (bounded && start > deadline) break;
    main_now_ = start;
    compute_window_ends(start, bounded, deadline);
    if (quiet_factor_ > 1) ++quiet_extended_windows_;
    const std::uint64_t clamps_before = causality_clamps();
    coord.execute_window(window_ends_.data());
    ++windows_executed_;
    merge_pairs_visited_ += coord.last_merge_pairs();
    dirty_pairs_posted_ += coord.last_dirty_pairs();
    // Quiet-window extension state: depends only on simulation state (how
    // much this window's merge clamped), never on wall time.
    const std::uint64_t clamp_delta = causality_clamps() - clamps_before;
    if (clamp_delta * 2 > coord.last_merge_pairs() ||
        config_.quiet_extension_cap <= 1) {
      quiet_factor_ = std::max(1u, quiet_factor_ - quiet_factor_ / 4);
    } else {
      quiet_factor_ = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          2ULL * quiet_factor_, config_.quiet_extension_cap));
    }
  }
  TimeNs final = main_now_;
  for (auto& l : lanes_) final = std::max(final, l->now());
  main_now_ = final;
}

void Engine::run() {
  if (!parallel()) {
    run_classic();
    return;
  }
  run_windows(/*bounded=*/false, 0);
}

void Engine::run_until(TimeNs deadline) {
  if (!parallel()) {
    run_until_classic(deadline);
    return;
  }
  run_windows(/*bounded=*/true, deadline);
}

bool Engine::step() {
  // Shares the incremental next-event index with run_windows(): only lanes
  // whose heap top may have moved are re-peeked, and the (time, lane)
  // heap order reproduces the historical "earliest event, ties by lane
  // index" selection exactly.
  refresh_next_index();
  if (next_index_.empty()) return false;
  Lane* best = lanes_[next_index_.top_lane()].get();
  {
    ActiveLaneScope scope(*this, *best);
    best->pop_and_run();
  }
  if (parallel()) {
    // Deliver any cross-lane insertions immediately: step() is sequential,
    // so the mailbox discipline is not needed for determinism. Only the
    // destinations the event actually posted to are touched.
    for (const std::uint32_t dst : best->dirty_outboxes()) {
      lanes_[dst]->absorb_outbox_from(*best);
    }
    best->clear_dirty_outboxes();
    main_now_ = std::max(main_now_, best->now());
  }
  return true;
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

std::size_t Engine::pending_events() const noexcept {
  std::size_t n = 0;
  for (const auto& l : lanes_) n += l->pending();
  return n;
}

std::uint64_t Engine::events_processed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->processed();
  return n;
}

std::uint64_t Engine::causality_clamps() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->causality_clamps();
  return n;
}

std::uint64_t Engine::event_digest() const noexcept {
  std::uint64_t h = 0;
  for (const auto& l : lanes_) {
    h ^= l->digest() + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

ArenaStats Engine::arena_stats() const noexcept {
  ArenaStats total;
  for (const auto& l : lanes_) total += l->arena_stats();
  return total;
}

std::uint64_t Engine::arena_slot_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->arena_slot_count();
  return n;
}

void Engine::reserve_events_per_lane(std::uint32_t n) {
  for (auto& l : lanes_) l->reserve_events(n);
}

void Engine::reserve_events_on(std::uint32_t lane, std::uint32_t n) {
  lanes_[lane]->reserve_events(n);
}

std::uint64_t Engine::arena_slot_count(std::uint32_t lane) const noexcept {
  return lanes_[lane]->arena_slot_count();
}

std::vector<std::uint32_t> Engine::outbox_highwater() const {
  const std::uint32_t n = lane_count();
  std::vector<std::uint32_t> m(static_cast<std::size_t>(n) * n, 0);
  for (std::uint32_t src = 0; src < n; ++src) {
    for (std::uint32_t dst = 0; dst < n; ++dst) {
      m[static_cast<std::size_t>(src) * n + dst] =
          lanes_[src]->outbox_highwater(dst);
    }
  }
  return m;
}

void Engine::reserve_outboxes(const std::vector<std::uint32_t>& matrix) {
  const std::uint32_t n = lane_count();
  assert(matrix.size() == static_cast<std::size_t>(n) * n);
  for (std::uint32_t src = 0; src < n; ++src) {
    for (std::uint32_t dst = 0; dst < n; ++dst) {
      const std::uint32_t cap = matrix[static_cast<std::size_t>(src) * n + dst];
      if (cap != 0) lanes_[src]->reserve_outbox(dst, cap);
    }
  }
}

}  // namespace sym::sim
