#include "margolite/instance.hpp"

#include <cassert>
#include <utility>

namespace sym::margo {

// ---------------------------------------------------------------------------
// ULT-local keys
// ---------------------------------------------------------------------------

abt::KeyId Instance::key_breadcrumb() {
  static const abt::KeyId k = abt::Runtime::key_create();
  return k;
}
abt::KeyId Instance::key_request_id() {
  static const abt::KeyId k = abt::Runtime::key_create();
  return k;
}
abt::KeyId Instance::key_order() {
  static const abt::KeyId k = abt::Runtime::key_create();
  return k;
}

// ---------------------------------------------------------------------------
// Construction / lifecycle
// ---------------------------------------------------------------------------

Instance::Instance(ofi::Fabric& fabric, sim::Process& process,
                   InstanceConfig config)
    : fabric_(fabric),
      process_(process),
      node_(fabric.cluster().node(process.node())),
      cfg_(config),
      runtime_(std::make_unique<abt::Runtime>(fabric.engine(), process)),
      hg_(std::make_unique<hg::Class>(fabric, process, config.hg)),
      pvar_session_(hg_->pvar_session_init()) {
  // Pool / ES layout. Servers always dedicate a progress ES (the paper's
  // "main service provider execution stream"); clients share by default.
  if (cfg_.server) {
    progress_pool_ = &runtime_->create_pool("progress");
    handler_pool_ = &runtime_->create_pool("handlers");
    main_pool_ = handler_pool_;
    runtime_->create_xstream({progress_pool_});
    for (unsigned i = 0; i < cfg_.handler_es; ++i) {
      handler_xs_.push_back(&runtime_->create_xstream({handler_pool_}));
    }
    total_es_ = 1 + cfg_.handler_es;
    handler_es_count_ = cfg_.handler_es;
  } else {
    main_pool_ = &runtime_->create_pool("main");
    handler_pool_ = main_pool_;
    if (cfg_.dedicated_progress_es) {
      progress_pool_ = &runtime_->create_pool("progress");
      runtime_->create_xstream({progress_pool_});
      runtime_->create_xstream({main_pool_});
      total_es_ = 2;
    } else {
      progress_pool_ = main_pool_;
      runtime_->create_xstream({main_pool_});
      total_es_ = 1;
    }
  }

  // Margo initializes its PVAR session with Mercury inside its init routine
  // and allocates all the handles it will sample (paper §IV-C, Fig. 3).
  pv_cq_size_ = pvar_session_.alloc("completion_queue_size");
  pv_ofi_read_ = pvar_session_.alloc("num_ofi_events_read");
  pv_posted_ = pvar_session_.alloc("num_posted_handles");
  pv_input_ser_ = pvar_session_.alloc("input_serialization_time");
  pv_input_deser_ = pvar_session_.alloc("input_deserialization_time");
  pv_output_ser_ = pvar_session_.alloc("output_serialization_time");
  pv_internal_rdma_ = pvar_session_.alloc("internal_rdma_transfer_time");
  pv_origin_cb_ = pvar_session_.alloc("origin_completion_callback_time");
  pv_output_deser_ = pvar_session_.alloc("output_deserialization_time");
}

Instance::~Instance() = default;

void Instance::start() {
  assert(!started_);
  started_ = true;
  process_.checkpoint_cpu(engine().now());
  runtime_->create_ult(*progress_pool_, [this] { progress_loop(); });
  if (cfg_.instr >= prof::Level::kStage2 && cfg_.sysstat_period > 0) {
    runtime_->create_ult(*progress_pool_, [this] { sampler_loop(); });
  }
}

void Instance::finalize() { finalize_requested_ = true; }

unsigned Instance::add_handler_xstream() {
  // Prefer unparking an ES over creating one: scale-down followed by
  // scale-up must not grow the ES population without bound.
  for (abt::Xstream* xs : handler_xs_) {
    if (!xs->enabled()) {
      xs->set_enabled(true);
      ++total_es_;
      return ++handler_es_count_;
    }
  }
  handler_xs_.push_back(&runtime_->create_xstream({handler_pool_}));
  ++total_es_;
  return ++handler_es_count_;
}

unsigned Instance::remove_handler_xstream() {
  if (handler_es_count_ <= 1) return handler_es_count_;
  // Park the highest-ranked still-enabled handler ES.
  for (auto it = handler_xs_.rbegin(); it != handler_xs_.rend(); ++it) {
    if ((*it)->enabled()) {
      (*it)->set_enabled(false);
      --total_es_;
      return --handler_es_count_;
    }
  }
  return handler_es_count_;
}

void Instance::set_admission_limit(std::size_t limit) noexcept {
  admission_limit_ = limit;
  if (handler_pool_ != nullptr) handler_pool_->set_capacity(limit);
}

void Instance::record_action_span(const std::string& action_name,
                                  sim::TimeNs started) {
  if (cfg_.instr < prof::Level::kStage2) return;
  prof::NameRegistry::global().register_name(action_name);
  const prof::Breadcrumb bc = prof::hash16(action_name);
  const auto events = prof::make_action_span(
      make_request_id(), bc, addr(), node_.local_clock(started), local_clock(),
      lamport_);
  lamport_ += 4;  // the four events bumped the clock
  for (const auto& ev : events) trace_.append(ev);
  charge(4 * kTraceEventCost);
}

void Instance::charge(sim::DurationNs d) {
  if (abt::self() != nullptr) abt::compute(d);
}

std::uint64_t Instance::make_request_id() noexcept {
  return (static_cast<std::uint64_t>(addr()) << 40) | ++req_counter_;
}

// ---------------------------------------------------------------------------
// Progress and sampling loops
// ---------------------------------------------------------------------------

void Instance::progress_loop() {
  while (!finalize_requested_) {
    const std::size_t n = hg_->progress();
    hg_->trigger();
    if (finalize_requested_) break;
    if (n == 0 && !hg_->has_pending_work()) {
      hg_->wait_for_events(cfg_.progress_timeout);
    } else {
      // Cooperative share of the ES with application / handler ULTs: this
      // is precisely the contention studied in HEPnOS C5 -> C7.
      abt::yield();
    }
  }
}

void Instance::sampler_loop() {
  while (!finalize_requested_) {
    abt::sleep_for(cfg_.sysstat_period);
    if (finalize_requested_) break;
    prof::SysStat s;
    s.local_ts = local_clock();
    s.rss_bytes = process_.rss_bytes();
    s.cpu_util = static_cast<float>(process_.cpu_utilization(
        last_cpu_checkpoint_, engine().now(), total_es_));
    s.blocked_ults = static_cast<std::uint32_t>(runtime_->total_blocked());
    s.runnable_ults = static_cast<std::uint32_t>(runtime_->total_runnable());
    if (cfg_.instr == prof::Level::kFull) {
      s.completion_queue_size =
          static_cast<float>(pvar_session_.read(pv_cq_size_));
      s.num_posted_handles =
          static_cast<float>(pvar_session_.read(pv_posted_));
      charge(2 * kPvarSampleCost);
    }
    last_cpu_checkpoint_ = engine().now();
    process_.checkpoint_cpu(last_cpu_checkpoint_);
    sysstats_.append(s);
  }
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

hg::RpcId Instance::register_rpc(const std::string& name,
                                 std::uint16_t provider_id, Handler handler) {
  const hg::RpcId id = register_client_rpc(name);
  auto& by_provider = handlers_[id];
  const bool first_provider = by_provider.empty();
  by_provider[provider_id] = std::move(handler);
  if (first_provider) {
    hg_->register_rpc(name, [this](hg::HandlePtr h) {
      on_request_arrival(std::move(h));
    });
  }
  return id;
}

hg::RpcId Instance::register_client_rpc(const std::string& name) {
  const hg::RpcId id = hg_->register_rpc(name, nullptr);
  rpc_hash16_[id] = prof::hash16(name);
  prof::NameRegistry::global().register_name(name);
  return id;
}

// ---------------------------------------------------------------------------
// Trace emission
// ---------------------------------------------------------------------------

void Instance::emit_trace(prof::TraceEventKind kind, std::uint64_t request_id,
                          std::uint32_t order, prof::Breadcrumb bc,
                          ofi::EpAddr peer) {
  if (cfg_.instr < prof::Level::kStage2) return;
  prof::TraceEvent ev;
  ev.request_id = request_id;
  ev.order = order;
  ev.kind = kind;
  ev.breadcrumb = bc;
  ev.self_ep = addr();
  ev.peer_ep = peer;
  ev.local_ts = local_clock();
  ev.lamport = bump_lamport();
  ev.blocked_ults = static_cast<std::uint32_t>(runtime_->total_blocked());
  ev.runnable_ults = static_cast<std::uint32_t>(runtime_->total_runnable());
  ev.rss_bytes = process_.rss_bytes();
  ev.cpu_util = static_cast<float>(process_.cpu_utilization(
      last_cpu_checkpoint_, engine().now(), total_es_));
  sim::DurationNs cost = kTraceEventCost;
  if (cfg_.instr == prof::Level::kFull) {
    ev.completion_queue_size =
        static_cast<float>(pvar_session_.read(pv_cq_size_));
    ev.num_ofi_events_read =
        static_cast<float>(pvar_session_.read(pv_ofi_read_));
    ev.num_posted_handles =
        static_cast<float>(pvar_session_.read(pv_posted_));
    cost += 3 * kPvarSampleCost;
  }
  charge(cost);
  trace_.append(ev);
}

// ---------------------------------------------------------------------------
// Origin path
// ---------------------------------------------------------------------------

PendingOpPtr Instance::forward_async(ofi::EpAddr dest,
                                     std::uint16_t provider_id, hg::RpcId rpc,
                                     std::vector<std::byte> input,
                                     std::shared_ptr<const void> attachment,
                                     std::uint64_t attachment_bytes,
                                     sim::DurationNs timeout) {
  assert(abt::self() != nullptr && "forward_async() outside ULT context");
  auto op = std::make_shared<PendingOp>();
  op->inst_ = this;
  op->t1 = engine().now();  // t1

  auto h = hg_->create_handle(dest, rpc, provider_id);
  h->attachment = std::move(attachment);
  h->attachment_bytes = attachment_bytes;

  if (cfg_.instr >= prof::Level::kStage1) {
    // Breadcrumb: extend this ULT's ancestry with the downstream call name
    // (16-bit left shift + OR, §IV-A1).
    auto hash_it = rpc_hash16_.find(rpc);
    const std::uint16_t leaf =
        hash_it != rpc_hash16_.end() ? hash_it->second : std::uint16_t{1};
    const prof::Breadcrumb parent = abt::self_get(key_breadcrumb());
    op->bc = prof::extend(parent, leaf);

    // Request id: reuse the propagated one if this call is a side effect of
    // servicing a request; mint a fresh one at the client edge.
    std::uint64_t rid = abt::self_get(key_request_id());
    if (rid == 0) rid = make_request_id();
    op->request_id = rid;
    op->base_order = static_cast<std::uint32_t>(abt::self_get(key_order()));
    // Reserve order slots for this call's four events so sibling calls from
    // the same ULT do not collide.
    abt::self_set(key_order(), op->base_order + 4);

    h->header.breadcrumb = op->bc;
    h->header.request_id = rid;
    h->header.trace_order = op->base_order + 1;
    h->header.flags |= hg::kFlagTracing;
    charge(kMetadataCost);
  }
  h->header.lamport = bump_lamport();

  emit_trace(prof::TraceEventKind::kOriginStart, op->request_id,
             op->base_order, op->bc, dest);

  if (timeout > 0) {
    op->deadline_event_ = engine().after(timeout, [op] {
      if (op->done_.is_set()) return;
      op->timed_out_ = true;
      op->t14 = op->inst_->engine().now();
      // Unpost the handle so a late response is discarded inside merclite
      // and the posted-handles PVAR does not linger (HG_Cancel).
      op->inst_->hg_class().cancel(op->handle_);
      op->done_.set();
    });
  }

  hg_->forward(h, std::move(input), [this, op](const hg::HandlePtr& done) {
    // Trigger context (progress ULT), t14. A response landing after the
    // deadline fired is absorbed: the waiter has already been released.
    if (op->done_.is_set()) return;
    if (op->deadline_event_ != 0) engine().cancel(op->deadline_event_);
    op->t14 = engine().now();
    lamport_receive(done->header.lamport);
    op->done_.set();
  });
  op->handle_ = std::move(h);
  return op;
}

void Instance::complete_op(PendingOp& op) {
  if (op.recorded_) return;
  op.recorded_ = true;
  const hg::HandlePtr& h = op.handle_;
  if (op.timed_out_) return;  // no response: nothing to decode or record

  // Decode cost for the response output (content decoding is the caller's).
  hg_->charge_output_deserialize(h);

  if (cfg_.instr < prof::Level::kStage2) return;

  emit_trace(prof::TraceEventKind::kOriginEnd, op.request_id,
             op.base_order + 3, op.bc, h->peer_addr());

  prof::CallpathKey key{op.bc, prof::Side::kOrigin, addr(), h->peer_addr()};
  sim::DurationNs cost = kProfileRecordCost;
  if (cfg_.instr == prof::Level::kFull) {
    // Origin-side HANDLE-bound PVARs, sampled at t14 (Table III) and
    // recorded in one batch with the execution envelope.
    record_profile_batch(
        key,
        prof::IntervalSample{prof::Interval::kOriginExec,
                             static_cast<double>(op.t14 - op.t1)},
        prof::IntervalSample{prof::Interval::kInputSer,
                             pvar_session_.read(pv_input_ser_, h.get())},
        prof::IntervalSample{prof::Interval::kOriginCallback,
                             pvar_session_.read(pv_origin_cb_, h.get())},
        prof::IntervalSample{prof::Interval::kOutputDeser,
                             pvar_session_.read(pv_output_deser_, h.get())});
    cost += 3 * kPvarSampleCost;
  } else {
    record_profile(key, prof::Interval::kOriginExec,
                   static_cast<double>(op.t14 - op.t1));
  }
  charge(cost);
}

const std::vector<std::byte>& PendingOp::wait() {
  done_.wait();
  inst_->complete_op(*this);
  return handle_->response_body;
}

const std::vector<std::byte>& PendingOp::wait_retry(
    unsigned max_attempts, sim::DurationNs initial_backoff) {
  wait();
  attempts_ = 1;
  sim::DurationNs backoff = initial_backoff;
  while (busy() && !timed_out_ && attempts_ < max_attempts) {
    abt::sleep_for(backoff);
    backoff *= 2;
    ++attempts_;
    // The origin handle still holds the request input and attachment, so
    // the op can be re-issued verbatim; adopt the retry's handle so the
    // caller sees the final attempt's response and flags.
    auto retry = inst_->forward_async(
        handle_->peer_addr(), handle_->header.provider_id,
        handle_->header.rpc_id, handle_->body, handle_->attachment,
        handle_->attachment_bytes);
    retry->wait();
    handle_ = retry->handle_;
  }
  return handle_->response_body;
}

std::vector<std::byte> Instance::forward(ofi::EpAddr dest,
                                         std::uint16_t provider_id,
                                         hg::RpcId rpc,
                                         std::vector<std::byte> input) {
  // Cooperates with target-side admission control: a kFlagBusy
  // early-reject is retried with exponential backoff before giving up, so
  // every service client participates in the backpressure protocol without
  // changes.
  return forward_retry(dest, provider_id, rpc, std::move(input)).response;
}

Instance::RetryResult Instance::forward_retry(ofi::EpAddr dest,
                                              std::uint16_t provider_id,
                                              hg::RpcId rpc,
                                              std::vector<std::byte> input,
                                              unsigned max_attempts,
                                              sim::DurationNs initial_backoff) {
  RetryResult result;
  auto op = forward_async(dest, provider_id, rpc, std::move(input));
  result.response = op->wait_retry(max_attempts, initial_backoff);
  result.attempts = op->attempts();
  result.busy = op->busy();
  return result;
}

void Instance::spawn(std::function<void()> fn) {
  runtime_->create_ult(*main_pool_, std::move(fn));
}

// ---------------------------------------------------------------------------
// Target path
// ---------------------------------------------------------------------------

void Instance::on_request_arrival(hg::HandlePtr h) {
  // Progress-ULT context; this is t4 — a fresh ULT is spawned for the
  // request and queued in the handler pool.
  if (admission_limit_ > 0 && handler_pool_->at_capacity()) {
    // Backpressure: the handler backlog is over the watermark. Early-reject
    // so the origin backs off instead of deepening the t4->t5 queue.
    ++admission_rejects_;
    h->header.flags |= hg::kFlagBusy;
    hg_->respond(h, {}, nullptr);
    return;
  }
  auto hit = handlers_.find(h->header.rpc_id);
  auto pit = hit != handlers_.end() ? hit->second.find(h->header.provider_id)
                                    : decltype(hit->second.end()){};
  if (hit == handlers_.end() || pit == hit->second.end()) {
    // No matching handler/provider: answer with a library-level error so
    // the origin does not hang (HG_NO_MATCH semantics).
    h->header.flags |= hg::kFlagError;
    hg_->respond(h, {}, nullptr);
    return;
  }
  const Handler& handler = pit->second;

  lamport_receive(h->header.lamport);
  const sim::TimeNs t4 = engine().now();
  runtime_->create_ult(*handler_pool_,
                       [this, h = std::move(h), &handler, t4]() mutable {
                         run_handler(std::move(h), handler, t4);
                       });
}

void Instance::run_handler(hg::HandlePtr h, const Handler& handler,
                           sim::TimeNs t4) {
  const sim::TimeNs t5 = engine().now();
  ++requests_handled_;

  if (cfg_.instr >= prof::Level::kStage1) {
    // Install the propagated callpath ancestry and request metadata in
    // ULT-local keys so downstream calls extend the correct chain.
    abt::self_set(key_breadcrumb(), h->header.breadcrumb);
    abt::self_set(key_request_id(), h->header.request_id);
    abt::self_set(key_order(), h->header.trace_order + 1);
  }

  emit_trace(prof::TraceEventKind::kTargetStart, h->header.request_id,
             h->header.trace_order, h->header.breadcrumb, h->peer_addr());

  // t6 -> t7: input deserialization (content decode is the handler's).
  hg_->charge_input_deserialize(h);

  Request req(*this, h);
  req.t5_ = t5;
  handler(req);
  if (!req.responded_) req.respond({});
  const sim::TimeNs t8 = req.t8_;

  emit_trace(prof::TraceEventKind::kTargetEnd, h->header.request_id,
             h->header.trace_order + 1, h->header.breadcrumb, h->peer_addr());

  if (cfg_.instr >= prof::Level::kStage2) {
    prof::CallpathKey key{h->header.breadcrumb, prof::Side::kTarget, addr(),
                          h->peer_addr()};
    sim::DurationNs cost = kProfileRecordCost;
    if (cfg_.instr == prof::Level::kFull) {
      // Target-side HANDLE-bound PVARs (Table III), batched with the
      // handler-wait and execution envelopes.
      record_profile_batch(
          key,
          prof::IntervalSample{prof::Interval::kHandlerWait,
                               static_cast<double>(t5 - t4)},
          prof::IntervalSample{prof::Interval::kTargetExec,
                               static_cast<double>(t8 - t5)},
          prof::IntervalSample{prof::Interval::kInputDeser,
                               pvar_session_.read(pv_input_deser_, h.get())},
          prof::IntervalSample{prof::Interval::kOutputSer,
                               pvar_session_.read(pv_output_ser_, h.get())},
          prof::IntervalSample{
              prof::Interval::kInternalRdma,
              pvar_session_.read(pv_internal_rdma_, h.get())});
      cost += 3 * kPvarSampleCost;
    } else {
      record_profile_batch(
          key,
          prof::IntervalSample{prof::Interval::kHandlerWait,
                               static_cast<double>(t5 - t4)},
          prof::IntervalSample{prof::Interval::kTargetExec,
                               static_cast<double>(t8 - t5)});
    }
    charge(cost);
  }
}

void Request::respond(std::vector<std::byte> output) {
  assert(!responded_ && "double respond()");
  responded_ = true;
  t8_ = inst_.engine().now();  // t8

  h_->header.lamport = inst_.bump_lamport();

  Instance* inst = &inst_;
  const prof::CallpathKey key{h_->header.breadcrumb, prof::Side::kTarget,
                              inst_.addr(), h_->peer_addr()};
  const sim::TimeNs t8 = t8_;
  hg::SentCallback on_sent;
  if (inst_.level() >= prof::Level::kStage2) {
    on_sent = [inst, key, t8](const hg::HandlePtr&) {
      // t13: the response left the node; record t8 -> t13.
      inst->record_profile(key, prof::Interval::kTargetCallback,
                           static_cast<double>(inst->engine().now() - t8));
    };
  }
  inst_.hg_class().respond(h_, std::move(output), std::move(on_sent));
}

void Request::bulk_pull(std::uint64_t bytes) {
  abt::Eventual done;
  inst_.hg_class().bulk_transfer(h_, bytes, [&done] { done.set(); });
  done.wait();
}

}  // namespace sym::margo
