#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <pthread.h>

#include <algorithm>
#include <cstring>
#include <iterator>

namespace hkws::net {

SocketTransport::SocketTransport(CommonConfig common, std::uint32_t max_pad)
    : common_(common), max_pad_(max_pad), start_(Clock::now()) {}

SocketTransport::~SocketTransport() {
  // Backends stop themselves in their destructors (they own the sockets and
  // io thread); this is the backstop so a half-constructed backend cannot
  // leak the dispatch thread.
  if (dispatch_thread_.joinable()) {
    begin_stop();
    dispatch_thread_.join();
  }
}

void SocketTransport::start_dispatch() {
  // Named so profilers, `top -H` and sanitizer reports can tell it apart.
  dispatch_thread_ = std::thread([this] {
    pthread_setname_np(pthread_self(), "hk-strand");
    dispatch_loop();
  });
}

bool SocketTransport::begin_stop() {
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (stopping_) return false;
    stopping_ = true;
  }
  halted_.store(true, std::memory_order_release);
  strand_cv_.notify_all();
  idle_cv_.notify_all();
  return true;
}

void SocketTransport::join_dispatch() {
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
}

// --- Endpoints (reader-writer-locked membership) ----------------------------

void SocketTransport::register_endpoint(EndpointId id) {
  std::unique_lock<std::shared_mutex> lk(peers_mu_);
  registered_.insert(id);
  down_reported_[id] = false;  // a re-registered peer may be reported again
}

void SocketTransport::unregister_endpoint(EndpointId id) {
  std::unique_lock<std::shared_mutex> lk(peers_mu_);
  registered_.erase(id);
}

bool SocketTransport::is_registered(EndpointId id) const {
  std::shared_lock<std::shared_mutex> lk(peers_mu_);
  return registered_.contains(id);
}

// --- Peer-address table -----------------------------------------------------

bool SocketTransport::set_peer_address(EndpointId id, const PeerAddr& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (addr.host.empty() || addr.host == "localhost") {
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    return false;
  }
  std::unique_lock<std::shared_mutex> lk(addrs_mu_);
  addrs_[id] = sa;
  return true;
}

bool SocketTransport::has_peer_address(EndpointId id) const {
  std::shared_lock<std::shared_mutex> lk(addrs_mu_);
  return addrs_.find(id) != addrs_.end();
}

void SocketTransport::set_payload_handler(PayloadHandler fn) {
  std::lock_guard<std::mutex> lk(handlers_mu_);
  payload_handler_ = std::move(fn);
}

bool SocketTransport::lookup_addr(EndpointId id, sockaddr_in* out) const {
  std::shared_lock<std::shared_mutex> lk(addrs_mu_);
  const auto it = addrs_.find(id);
  if (it == addrs_.end()) return false;
  *out = it->second;
  return true;
}

// --- Send (parked-handler mode) ---------------------------------------------

void SocketTransport::send(EndpointId from, EndpointId to, std::string kind,
                           std::size_t payload_bytes, Handler deliver) {
  if (from == to) {
    // Local call: no wire traffic, async delivery — the simulator's
    // contract, preserved so protocol code behaves identically.
    bump(kLocal);
    Ready local{std::move(deliver), /*wire=*/false};
    enqueue_ready({&local, 1});
    return;
  }
  const KindId id = kind_id(kind);
  if (!is_registered(to)) {
    bump(kDropped);
    bump(kDroppedKind, id);
    bump(kDroppedUnregistered);
    return;
  }

  EnvelopeMsg env;
  if (id < kKindCount) {
    env.inner_kind = kind_at(id);
  } else {
    env.inner_kind = MsgKind::kOpaque;
    env.label = std::move(kind);
  }
  env.from = from;
  env.to = to;
  env.declared_bytes = payload_bytes;
  env.pad = static_cast<std::uint32_t>(
      std::min<std::size_t>(payload_bytes, max_pad_));
  if (const FaultActions fault = inspect(from, to, id); !fault.clean()) {
    send_faulted(fault, std::nullopt, std::move(env), id, std::move(deliver));
    return;
  }
  env.msg_id = park(std::move(deliver), id);
  emit(nullptr, env, id);
}

std::uint64_t SocketTransport::park(Handler deliver, KindId kind) {
  // The io thread redeems the handler by message id when the envelope comes
  // back off the socket. The deadline bounds how long a frame the wire
  // swallowed can hold its in-flight slot (sweep_parked).
  std::uint64_t msg_id;
  {
    std::lock_guard<std::mutex> lk(handlers_mu_);
    msg_id = parked_base_ + parked_.size();
    parked_.push_back(ParkedEntry{std::move(deliver), kind,
                                  Clock::now() + common_.parked_ttl});
  }
  std::lock_guard<std::mutex> lk(strand_mu_);
  ++inflight_;
  return msg_id;
}

// --- Send (cross-process payload mode) --------------------------------------

void SocketTransport::send_payload(EndpointId from, EndpointId to,
                                   MsgKind kind, const WireMessage& msg) {
  sockaddr_in remote;
  if (!lookup_addr(to, &remote)) {
    // No address: the endpoint is local — loop the encoded frame through
    // the parked-handler wire so accounting and codec coverage match.
    Transport::send_payload(from, to, kind, msg);
    return;
  }
  EnvelopeMsg env;
  env.payload = encode_frame(kind, msg);
  // Empty: a layout mismatch (a programming error upstream) or a body over
  // kMaxBody. Nothing is sent or counted.
  if (env.payload.empty()) return;
  env.inner_kind = kind;
  env.from = from;
  env.to = to;
  env.declared_bytes = env.payload.size();
  env.pad = 0;  // the payload itself is the serialization cost
  bump(kRemoteOut);
  const auto id = static_cast<KindId>(kind_index(kind));
  if (const FaultActions fault = inspect(from, to, id); !fault.clean()) {
    send_faulted(fault, remote, std::move(env), id, nullptr);
    return;
  }
  emit(&remote, env, id);
}

// --- Fault injection --------------------------------------------------------

void SocketTransport::set_fault_model(std::unique_ptr<FaultModel> model,
                                      std::uint64_t seed) {
  std::lock_guard<std::mutex> lk(fault_mu_);
  fault_armed_.store(model != nullptr, std::memory_order_relaxed);
  fault_ = std::move(model);
  fault_rng_ = Rng(seed);
  fault_seq_ = 0;
}

FaultActions SocketTransport::inspect(EndpointId from, EndpointId to,
                                      KindId kind) {
  if (!fault_armed_.load(std::memory_order_relaxed)) return {};
  const std::string& label = kind_label(kind);
  std::lock_guard<std::mutex> lk(fault_mu_);
  if (fault_ == nullptr) return {};
  return fault_->inspect(from, to, label, fault_seq_++, fault_rng_);
}

void SocketTransport::send_faulted(const FaultActions& fault,
                                   std::optional<sockaddr_in> remote,
                                   EnvelopeMsg env, KindId kind,
                                   Handler deliver) {
  if (fault.drop) {
    // Never written: the message counts as sent (the protocol paid for it)
    // and as lost to fault injection, with a lost record for the observer.
    bump(kMessages);
    bump(kBytes, env.declared_bytes);
    bump(kMsgKind, kind);
    count_loss(kind, kDroppedFault);
    std::lock_guard<std::mutex> lk(observer_mu_);
    if (observer_) {
      const Time at = now();
      observer_(kind_label(kind), SendRecord{at, env.from, env.to,
                                             env.declared_bytes, true, at});
    }
    return;
  }
  if (fault.duplicates != 0) bump(kDup, fault.duplicates);
  // Every copy is a frame of its own; a closure copy parks its own handler.
  auto send_copies = [this, copies = 1 + fault.duplicates, remote,
                      env = std::move(env), kind,
                      deliver = std::move(deliver)]() mutable {
    for (std::uint32_t i = 0; i < copies; ++i) {
      if (env.payload.empty()) env.msg_id = park(deliver, kind);
      emit(remote.has_value() ? &*remote : nullptr, env, kind);
    }
  };
  if (fault.extra_delay == 0) {
    send_copies();
    return;
  }
  bump(kDelayed);
  schedule_in(fault.extra_delay, std::move(send_copies));
}

// --- Runs --------------------------------------------------------------------

namespace {

/// The transport whose dispatch strand is the calling thread, if any.
thread_local const SocketTransport* strand_of = nullptr;

bool same_destination(const std::optional<sockaddr_in>& a,
                      const sockaddr_in* b) {
  if (!a.has_value() || b == nullptr) return !a.has_value() && b == nullptr;
  return a->sin_addr.s_addr == b->sin_addr.s_addr &&
         a->sin_port == b->sin_port;
}

}  // namespace

void SocketTransport::emit(const sockaddr_in* remote, const EnvelopeMsg& env,
                           KindId kind) {
  const bool on_strand = strand_of == this;
  Run one;  // off the strand: no turn will end for this caller
  Run* run = &one;
  if (on_strand) {
    auto it = std::find_if(runs_.begin(), runs_.end(), [remote](const Run& r) {
      return same_destination(r.remote, remote);
    });
    if (it == runs_.end()) {
      it = runs_.emplace(runs_.end());
      if (remote != nullptr) it->remote = *remote;
    }
    run = &*it;
  } else if (remote != nullptr) {
    one.remote = *remote;
  }
  bump(kMessages);
  bump(kBytes, env.declared_bytes);
  bump(kWireBytes, append_envelope(run->bytes, env));
  bump(kMsgKind, kind);
  // A payload envelope parks nothing: its message id is 0.
  run->frames.push_back(OutFrame{run->bytes.size(), env.msg_id, env.from,
                                 env.to, env.declared_bytes, kind});
  if (!on_strand) {
    write_run(one);
    return;
  }
  if (held_++ == 0) held_since_ = Clock::now();
  if (run->bytes.size() >= kMaxRunBytes) {
    held_ -= run->frames.size();
    write_run(*run);
  }
}

void SocketTransport::write_run(Run& run) {
  thread_local std::vector<WireResult> fate;
  fate.assign(run.frames.size(), WireResult::kConnDead);
  wire_write(run, fate);

  // Losses first: release the parked handler, count the loss and its one
  // cause, and flag a dead connection's endpoint. In-flight slots are
  // released last, so wait_idle() never sees a loss it cannot count yet.
  std::uint64_t released = 0;
  std::uint64_t remote_ok = 0;
  for (std::size_t i = 0; i < run.frames.size(); ++i) {
    const OutFrame& f = run.frames[i];
    if (fate[i] == WireResult::kOk) {
      if (f.parked == 0) ++remote_ok;
      continue;
    }
    bool ours = true;
    if (f.parked != 0) {
      // Not parked any more: the sweep already counted this frame lost.
      ParkedEntry gone;
      std::lock_guard<std::mutex> lk(handlers_mu_);
      ours = unpark(f.parked, &gone);
    }
    if (ours) {
      count_loss(f.kind, kDroppedConn);
      if (f.parked != 0) ++released;
    }
    report_peer_down(f.to);
  }
  // A cross-process frame the wire accepted is on its way to another
  // process; this process's conservation identity closes at the wire (the
  // receiver counts it as net.remote.in, not net.delivered).
  if (remote_ok > 0) bump(kDelivered, remote_ok);
  {
    std::lock_guard<std::mutex> lk(observer_mu_);
    if (observer_) {
      const Time at = now();
      for (std::size_t i = 0; i < run.frames.size(); ++i) {
        const OutFrame& f = run.frames[i];
        observer_(kind_label(f.kind),
                  SendRecord{at, f.from, f.to, f.declared,
                             fate[i] != WireResult::kOk, at});
      }
    }
  }
  if (released > 0) {
    {
      std::lock_guard<std::mutex> lk(strand_mu_);
      inflight_ -= released;
    }
    idle_cv_.notify_all();
  }
  run.bytes.clear();
  run.frames.clear();
}

void SocketTransport::write_runs() {
  held_ = 0;
  for (Run& run : runs_)
    if (!run.frames.empty()) write_run(run);
}

void SocketTransport::count_loss(KindId kind, Counter cause) {
  bump(kLost);
  bump(kLostKind, kind);
  bump(cause);
}

void SocketTransport::report_peer_down(EndpointId to) {
  {
    // At most one report per endpoint per registration: many frames can
    // hit the same dead wire.
    std::unique_lock<std::shared_mutex> lk(peers_mu_);
    if (down_reported_[to]) return;
    down_reported_[to] = true;
  }
  PeerDownObserver cb;
  {
    std::lock_guard<std::mutex> lk(observer_mu_);
    cb = peer_down_;
  }
  if (!cb) return;
  // Marshal onto the dispatch strand: the consumer is protocol code
  // (FailureDetector) that must only ever run strand-serialized.
  schedule_in(0, [cb = std::move(cb), to] { cb(to); });
}

void SocketTransport::enqueue_ready(std::span<Ready> batch) {
  if (batch.empty()) return;
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (stopping_) return;
    for (Ready& r : batch) {
      if (!r.wire) ++inflight_;  // wire sends already counted
      ready_.push_back(std::move(r));
    }
  }
  strand_cv_.notify_one();
}

// --- Inbound envelopes (io threads) -----------------------------------------

void SocketTransport::on_envelopes(const std::vector<EnvelopeMsg>& batch) {
  std::vector<Ready> ready;
  ready.reserve(batch.size());
  std::uint64_t stray = 0;
  std::uint64_t remote_in = 0;
  // Redeem the batch's parked handlers under one hold of the table's lock,
  // let go only to decode a payload envelope.
  std::unique_lock<std::mutex> parked_lk(handlers_mu_);
  const bool has_payload_handler = static_cast<bool>(payload_handler_);
  for (const EnvelopeMsg& env : batch) {
    // Test/fault hook: discard the next N inbound envelopes as if the
    // frames had died on the read side of the wire.
    std::uint64_t budget = drop_inbound_.load(std::memory_order_relaxed);
    while (budget > 0 &&
           !drop_inbound_.compare_exchange_weak(budget, budget - 1,
                                                std::memory_order_relaxed)) {
    }
    if (budget > 0) continue;

    if (env.payload.empty()) {
      if (!parked_lk.owns_lock()) parked_lk.lock();
      ParkedEntry e;
      if (!unpark(env.msg_id, &e)) {
        ++stray;  // unknown message id: a duplicate or stray frame
        continue;
      }
      ready.push_back(Ready{std::move(e.fn), true});
      continue;
    }
    if (parked_lk.owns_lock()) parked_lk.unlock();
    // Cross-process payload: decode the inner frame and dispatch it to the
    // payload handler on the strand. The sender's process counted delivery;
    // here it is remote traffic in.
    std::optional<DecodedFrame> inner =
        decode_frame(env.payload.data(), env.payload.size());
    if (!inner.has_value() || inner->kind != env.inner_kind) {
      note_decode_error();
      continue;
    }
    if (!has_payload_handler) {
      ++stray;
      continue;
    }
    ++remote_in;
    bump(kRemoteInKind, static_cast<KindId>(kind_index(inner->kind)));
    ready.push_back(Ready{
        [this, from = env.from, to = env.to, kind = inner->kind,
         msg = std::move(inner->msg)] { payload_handler_(from, to, kind, msg); },
        false});
  }
  if (parked_lk.owns_lock()) parked_lk.unlock();
  if (stray > 0) bump(kStray, stray);
  if (remote_in > 0) bump(kRemoteIn, remote_in);
  enqueue_ready(ready);
}

bool SocketTransport::unpark(std::uint64_t id, ParkedEntry* out) {
  if (id < parked_base_ || id - parked_base_ >= parked_.size()) return false;
  ParkedEntry& e = parked_[id - parked_base_];
  if (!e.fn) return false;
  *out = std::move(e);
  e.fn = nullptr;
  while (!parked_.empty() && !parked_.front().fn) {
    parked_.pop_front();
    ++parked_base_;
  }
  return true;
}

void SocketTransport::sweep_parked() {
  std::vector<ParkedEntry> dead;
  const Clock::time_point now_tp = Clock::now();
  {
    // Deadlines grow with the id: the expired entries are at the front.
    std::lock_guard<std::mutex> lk(handlers_mu_);
    while (!parked_.empty() && (!parked_.front().fn ||
                                parked_.front().deadline <= now_tp)) {
      if (parked_.front().fn) dead.push_back(std::move(parked_.front()));
      parked_.pop_front();
      ++parked_base_;
    }
  }
  if (dead.empty()) return;
  // The envelope never came back: the frame died on the wire. Attribute
  // like any other connection loss — but no peer-down report; a lost frame
  // is packet death, not positive evidence the destination process died.
  // Count before releasing the slots, so wait_idle() never returns ahead
  // of the counters.
  for (const ParkedEntry& e : dead) count_loss(e.kind, kDroppedConn);
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    inflight_ -= std::min<std::uint64_t>(inflight_, dead.size());
  }
  idle_cv_.notify_all();
}

// --- Dispatch strand --------------------------------------------------------

void SocketTransport::dispatch_loop() {
  strand_of = this;
  std::unique_lock<std::mutex> lk(strand_mu_);
  while (!stopping_) {
    // The turn ends — its runs go out — when the ready queue is empty, so
    // always before a due timer runs or the strand sleeps. A busy strand
    // still writes once its oldest queued frame has waited a tick: holding
    // frames longer would idle the io thread that reads them back.
    if (unwritten_ &&
        (ready_.empty() || Clock::now() - held_since_ >= kTick)) {
      lk.unlock();
      write_runs();
      lk.lock();
      unwritten_ = false;
      idle_cv_.notify_all();
      continue;
    }
    if (!ready_.empty()) {
      Ready r = std::move(ready_.front());
      ready_.pop_front();
      lk.unlock();
      if (r.wire) bump(kDelivered);
      r.fn();
      lk.lock();
      --inflight_;
      unwritten_ = held_ > 0;
      idle_cv_.notify_all();
      continue;
    }
    if (!schedule_.empty() && schedule_.begin()->first.first <= Clock::now()) {
      auto it = schedule_.begin();
      TimerEntry entry = std::move(it->second);
      if (entry.id != 0) timer_keys_.erase(entry.id);
      schedule_.erase(it);
      lk.unlock();
      entry.fn();
      lk.lock();
      // Plain events count toward idleness until their handler has run.
      if (entry.id == 0) --pending_events_;
      unwritten_ = held_ > 0;
      idle_cv_.notify_all();
      continue;
    }
    if (!schedule_.empty()) {
      // Copy the deadline out of the map node: cancel_timer may erase that
      // node (freeing the key) while this thread is blocked on it.
      const Clock::time_point deadline = schedule_.begin()->first.first;
      strand_cv_.wait_until(lk, deadline);
    } else {
      strand_cv_.wait(lk);
    }
  }
  lk.unlock();
  // Frames still queued when the runtime stopped: the wire refuses them,
  // so they settle as counted losses instead of vanishing.
  write_runs();
}

// --- Time and timers --------------------------------------------------------

Time SocketTransport::now() const {
  const auto elapsed = Clock::now() - start_;
  return static_cast<Time>(elapsed / kTick);
}

void SocketTransport::schedule_in(Time delay, Handler fn) {
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (stopping_) return;
    const ScheduleKey key{Clock::now() + kTick * delay, next_seq_++};
    schedule_.emplace(key, TimerEntry{0, std::move(fn)});
    ++pending_events_;
  }
  strand_cv_.notify_one();
}

Transport::TimerId SocketTransport::set_timer(Time delay, Handler fn) {
  TimerId id;
  {
    std::lock_guard<std::mutex> lk(strand_mu_);
    if (stopping_) return 0;
    id = next_timer_++;
    const ScheduleKey key{Clock::now() + kTick * delay, next_seq_++};
    schedule_.emplace(key, TimerEntry{id, std::move(fn)});
    timer_keys_.emplace(id, key);
  }
  strand_cv_.notify_one();
  return id;
}

bool SocketTransport::cancel_timer(TimerId id) {
  std::lock_guard<std::mutex> lk(strand_mu_);
  const auto it = timer_keys_.find(id);
  if (it == timer_keys_.end()) return false;
  schedule_.erase(it->second);
  timer_keys_.erase(it);
  return true;
}

// --- Counters ----------------------------------------------------------------

namespace {

// In SocketTransport::Counter and SocketTransport::Family order.
const char* const kCounterNames[] = {
    "net.messages",
    "net.bytes",
    "net.wire_bytes",
    "net.delivered",
    "net.local",
    "net.dropped",
    "net.dropped.unregistered",
    "net.dropped.conn",
    "net.dropped.fault",
    "net.lost",
    "net.dup",
    "net.delayed",
    "net.remote.out",
    "net.remote.in",
    "net.stray",
};
const char* const kFamilyPrefixes[] = {"msg.", "net.lost.", "net.dropped.",
                                       "net.remote.in."};

}  // namespace

struct SocketTransport::Names {
  std::array<std::string, kSlotCount> slot;
  std::array<std::string, kKindCount> kind;

  static const Names& get() {
    static const Names names = [] {
      static_assert(std::size(kCounterNames) == kCounterCount);
      static_assert(std::size(kFamilyPrefixes) == kFamilyCount);
      Names n;
      for (std::size_t c = 0; c < kCounterCount; ++c)
        n.slot[c] = kCounterNames[c];
      for (std::size_t k = 0; k < kKindCount; ++k) {
        n.kind[k] = kind_name(kind_at(k));
        for (std::size_t f = 0; f < kFamilyCount; ++f)
          n.slot[kCounterCount + f * kKindCount + k] =
              kFamilyPrefixes[f] + n.kind[k];
      }
      return n;
    }();
    return names;
  }
};

void SocketTransport::bump(Family f, KindId kind, std::uint64_t delta) {
  if (kind < kKindCount) {
    slots_[kCounterCount + f * kKindCount + kind].fetch_add(
        delta, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lk(counts_mu_);
  label_counts_[kFamilyPrefixes[f] + labels_[kind - kKindCount]] += delta;
}

SocketTransport::KindId SocketTransport::kind_id(const std::string& kind) {
  if (const std::optional<MsgKind> known = kind_of(kind))
    return static_cast<KindId>(kind_index(*known));
  std::lock_guard<std::mutex> lk(counts_mu_);
  const auto [it, fresh] = label_ids_.try_emplace(
      kind, static_cast<KindId>(kKindCount + labels_.size()));
  if (fresh) labels_.push_back(kind);
  return it->second;
}

const std::string& SocketTransport::kind_label(KindId kind) const {
  if (kind < kKindCount) return Names::get().kind[kind];
  std::lock_guard<std::mutex> lk(counts_mu_);
  return labels_[kind - kKindCount];  // a deque: the reference stays valid
}

void SocketTransport::fold_counts() const {
  const Names& names = Names::get();
  std::lock_guard<std::mutex> lk(counts_mu_);
  for (std::size_t i = 0; i < kSlotCount; ++i) {
    if (slots_[i].load(std::memory_order_relaxed) == 0) continue;
    metrics_.count(names.slot[i],
                   slots_[i].exchange(0, std::memory_order_relaxed));
  }
  for (const auto& [name, delta] : label_counts_) metrics_.count(name, delta);
  label_counts_.clear();
}

sim::Metrics& SocketTransport::metrics() {
  fold_counts();
  return metrics_;
}

const sim::Metrics& SocketTransport::metrics() const {
  fold_counts();
  return metrics_;
}

// --- Accounting / control ---------------------------------------------------

void SocketTransport::set_send_observer(SendObserver fn) {
  std::lock_guard<std::mutex> lk(observer_mu_);
  observer_ = std::move(fn);
}

void SocketTransport::set_peer_down_observer(PeerDownObserver fn) {
  std::lock_guard<std::mutex> lk(observer_mu_);
  peer_down_ = std::move(fn);
}

std::size_t SocketTransport::live_timer_count() const {
  std::lock_guard<std::mutex> lk(strand_mu_);
  return timer_keys_.size();
}

bool SocketTransport::drain_and_stop(std::chrono::milliseconds timeout) {
  const bool idle = wait_idle(timeout);
  stop();
  return idle;
}

bool SocketTransport::wait_idle(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(strand_mu_);
  return idle_cv_.wait_for(lk, timeout, [this] {
    return stopping_ || (inflight_ == 0 && ready_.empty() &&
                         pending_events_ == 0 && !unwritten_);
  });
}

std::uint64_t SocketTransport::decode_errors() const {
  return decode_errors_.load(std::memory_order_relaxed);
}

void SocketTransport::drop_inbound(std::uint64_t n) {
  drop_inbound_.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace hkws::net
