#include "argolite/runtime.hpp"

#include <atomic>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace sym::abt {

// ---------------------------------------------------------------------------
// Ult
// ---------------------------------------------------------------------------

Ult::Ult(Id id, Pool& pool, std::function<void()> body)
    : id_(id),
      pool_(&pool),
      fiber_(std::make_unique<sim::Fiber>(std::move(body))) {}

void Ult::local_set(KeyId key, std::uint64_t value) {
  if (locals_.size() <= key) locals_.resize(key + 1, 0);
  locals_[key] = value;
}

std::uint64_t Ult::local_get(KeyId key) const noexcept {
  return key < locals_.size() ? locals_[key] : 0;
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

void Pool::push(Ult& ult) {
  assert(ult.state_ == UltState::kReady);
  ready_.push_back(&ult);
  if (ready_.size() > ready_hwm_) ready_hwm_ = ready_.size();
  ++total_pushed_;
  // Wake every idle consumer; each one self-guards against duplicate
  // dispatch scheduling, and an occupied ES re-checks its pools after the
  // current ULT releases it.
  for (Xstream* xs : consumers_) {
    if (!xs->busy()) xs->notify_work();
  }
}

Ult* Pool::pop() {
  if (ready_.empty()) return nullptr;
  Ult* u = ready_.front();
  ready_.pop_front();
  return u;
}

void Pool::wake_blocked(Ult& ult) {
  assert(ult.state_ == UltState::kBlocked);
  on_unblocked();
  ult.state_ = UltState::kReady;
  push(ult);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(sim::Engine& engine, sim::Process& process)
    : engine_(engine), process_(process) {}

Runtime::~Runtime() = default;

Pool& Runtime::create_pool(std::string name) {
  pools_.push_back(std::make_unique<Pool>(*this, std::move(name)));
  return *pools_.back();
}

Xstream& Runtime::create_xstream(std::vector<Pool*> pools) {
  const auto rank = static_cast<std::uint32_t>(xstreams_.size());
  xstreams_.push_back(std::make_unique<Xstream>(*this, rank, pools));
  Xstream& xs = *xstreams_.back();
  for (Pool* p : pools) p->attach(xs);
  // Work may already be queued.
  xs.notify_work();
  return xs;
}

Ult& Runtime::create_ult(Pool& pool, std::function<void()> body) {
  ++ults_created_;
  // symlint: allow(may-allocate) reason=ULT construction is control-plane
  // work counted in ults_created_; dispatch loops reuse live ULTs
  auto* ult = new Ult(next_ult_id_++, pool, std::move(body));
  ult->set_created_at(engine_.now());
  pool.push(*ult);
  return *ult;
}

void Runtime::destroy_ult(Ult& ult) {
  assert(ult.finished());
  ++ults_finished_;
  delete &ult;
}

KeyId Runtime::key_create() {
  // symlint: allow(shared-state-escape) reason=monotonic atomic key counter; ids are opaque handles and never ordered on, so allocation order cannot leak into results
  static std::atomic<KeyId> next{0};
  return next++;
}

std::uint64_t Runtime::total_blocked() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : pools_) n += p->blocked_count();
  return n;
}

std::uint64_t Runtime::total_runnable() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : pools_) n += p->ready_count();
  return n;
}

// ---------------------------------------------------------------------------
// this-ULT operations
// ---------------------------------------------------------------------------

Ult* self() noexcept { return Xstream::current_ult(); }

namespace {

/// The calling ULT (whose Xstream is then Xstream::current()); throws
/// std::logic_error naming `op` outside ULT context.
Ult& this_ult(const char* op) {
  Ult* u = self();
  if (u == nullptr) {
    throw std::logic_error(std::string("abt::") + op +
                           "() called outside ULT context");
  }
  return *u;
}

}  // namespace

void yield() {
  Ult& u = this_ult("yield");
  u.state_ = UltState::kReady;  // postprocess() requeues it
  sim::Fiber::switch_out();
}

void compute(sim::DurationNs d) {
  Ult& u = this_ult("compute");
  Xstream::current()->begin_compute(d, u);
  sim::Fiber::switch_out();
}

void sleep_for(sim::DurationNs d) {
  Ult* u = &this_ult("sleep_for");
  Pool& pool = u->pool();
  u->state_ = UltState::kBlocked;
  pool.on_blocked();
  Xstream::current()->runtime().engine().after(
      d, [&pool, u] { pool.wake_blocked(*u); });
  sim::Fiber::switch_out();
}

void self_set(KeyId key, std::uint64_t value) {
  this_ult("self_set").local_set(key, value);
}

std::uint64_t self_get(KeyId key) noexcept {
  Ult* u = self();
  return u != nullptr ? u->local_get(key) : 0;
}

void block_self() {
  Ult& u = this_ult("block_self");
  u.state_ = UltState::kBlocked;
  u.pool().on_blocked();
  sim::Fiber::switch_out();
}

}  // namespace sym::abt
