// Shared machinery of the socket Transport backends (TcpTransport,
// UdpTransport): everything between the Transport interface and the actual
// sockets lives here, so both backends carry identical semantics —
//
//   * the dispatch strand: one thread, named hk-strand (the backends' io
//     threads are hk-io), executing delivered handlers and due timers
//     serialized, the simulator's single-event-loop discipline;
//   * runs: the strand does not write the frames its handlers send one by
//     one. It queues them in a run per wire destination (the loopback
//     self-wire, or one remote process's address) and writes each run
//     with one backend call when its turn ends — when its ready queue is
//     empty, before it runs a due timer, and before it sleeps. A run is
//     also written as soon as it holds kMaxRunBytes, and every run once
//     its oldest frame has waited one tick, so a strand that never drains
//     its queue cannot hold frames back. A send from any other thread is a
//     run of one, written before send() returns. Inbound, the io thread
//     hands every envelope decoded from one read to the strand under one
//     lock;
//   * the parked-handler table: closure-based send() parks the delivery
//     handler, ships an addressed envelope through the backend's wire, and
//     redeems the handler by message id when the envelope returns. Entries
//     carry a deadline; a periodic sweep (driven from the backend's io
//     loop) releases entries whose envelope died on the wire — counted
//     net.dropped.conn, net.lost — so a read-side frame death can never
//     leak an in-flight slot and wedge drain_and_stop();
//   * the peer-address table: endpoints owned by other processes, mapped
//     to their socket addresses. send_payload() to an addressed endpoint
//     serializes the real message (wire codec frame inside the envelope's
//     payload field, message id 0) and routes it to the owning process,
//     which decodes it and dispatches to its payload handler on its own
//     strand;
//   * fault injection: an installed net::FaultModel (set_fault_model)
//     inspects every wire send — send() after its local and unregistered
//     checks, send_payload() for addressed destinations — and its drops,
//     duplicates and delays are applied here, in the send path, with this
//     class's own accounting (src/net/fault_model.hpp);
//   * accounting: the simulator's counters and conservation identity
//     (net.messages == net.delivered + net.lost) per process, with every
//     loss attributed to exactly one cause counter. A frame counts
//     net.messages, net.bytes, net.wire_bytes and msg.<kind> when it is
//     sent; its fate (and the send observer's record of it) is settled
//     when its run is written. Outbound cross-process messages count
//     net.delivered at the sender once the wire accepts the frame (plus
//     net.remote.out); the receiving process counts only net.remote.in —
//     so each process's identity closes over traffic it originated.
//     The transport never writes the Metrics registry while it carries a
//     message: every thread bumps lock-free slots, one per net.* counter
//     and one per (counter, registered kind), and the counters of opaque
//     kinds collect in a locked side table. metrics() folds both into the
//     registry before returning it, so every read is exact, and the
//     registry has one writer: the thread calling metrics() — the strand,
//     or any thread once the runtime is idle.
//
// Backends implement the wire: wire_write() writes one run either to the
// self-wire or to a remote process's address and reports which of its
// frames the wire accepted; their io threads feed the envelopes of each
// read back through on_envelopes() and call sweep_parked() periodically.
#pragma once

#include <netinet/in.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/fault_model.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace hkws::net {

class SocketTransport : public Transport {
 public:
  /// Knobs every socket backend shares (each backend's Config embeds one).
  struct CommonConfig {
    /// Wall-clock duration of one transport tick. Protocol timeout
    /// constants are written in ticks (sim convention: ~1ms); the default
    /// compresses them 10x so loss-recovery tests stay fast.
    std::chrono::microseconds tick{100};
    /// How long a parked delivery handler may wait for its envelope before
    /// the sweep declares the frame dead on the wire (net.dropped.conn).
    /// Generous vs loopback latency; tests shrink it to exercise the sweep.
    std::chrono::milliseconds parked_ttl{3000};
  };

  /// A strand run is written once it holds this many bytes, even if the
  /// turn has not ended: bounds the memory a burst holds in user space.
  static constexpr std::size_t kMaxRunBytes = 64 * 1024;

  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // --- Transport interface ------------------------------------------------

  void register_endpoint(EndpointId id) override;
  void unregister_endpoint(EndpointId id) override;
  bool is_registered(EndpointId id) const override;

  void send(EndpointId from, EndpointId to, std::string kind,
            std::size_t payload_bytes, Handler deliver) override;

  bool set_peer_address(EndpointId id, const PeerAddr& addr) override;
  bool has_peer_address(EndpointId id) const override;
  /// Installs the handler under the lock the io thread checks it under, so
  /// the install happens before every delivery of a later read.
  void set_payload_handler(PayloadHandler fn) override;
  void send_payload(EndpointId from, EndpointId to, MsgKind kind,
                    const WireMessage& msg) override;

  Time now() const override;
  void schedule_in(Time delay, Handler fn) override;
  TimerId set_timer(Time delay, Handler fn) override;
  bool cancel_timer(TimerId id) override;

  /// Folds the transport's pending counts into the registry, then returns
  /// it. Call it from the strand, or once the runtime is idle: the returned
  /// registry is not locked.
  sim::Metrics& metrics() override;
  const sim::Metrics& metrics() const override;
  /// The observer runs when a frame's run is written — on the strand for
  /// frames its handlers sent, inside send() otherwise — with the frame's
  /// true fate; for a send the fault model drops, inside send(). It must
  /// not send.
  void set_send_observer(SendObserver fn) override;

  // --- Fault injection ----------------------------------------------------

  /// Installs (or, with nullptr, removes) the fault model: every wire send
  /// from now on is numbered from 0 and inspected, with an Rng seeded by
  /// `seed` (semantics and accounting: src/net/fault_model.hpp).
  void set_fault_model(std::unique_ptr<FaultModel> model,
                       std::uint64_t seed = 1);

  // --- Runtime control ----------------------------------------------------

  /// Blocks until no message is in flight, the dispatch queue is empty, the
  /// strand holds no unwritten run, and no plain scheduled event
  /// (schedule_in) is pending — cancelable timers (retransmission guards)
  /// do not count. Returns false on timeout.
  bool wait_idle(std::chrono::milliseconds timeout);

  /// Stops the runtime: closes sockets, joins threads, drops queued work.
  /// Idempotent; the destructor calls it.
  virtual void stop() = 0;

  /// Graceful shutdown: waits (up to `timeout`) for in-flight messages and
  /// plain scheduled events to drain, then stops. Returns whether the
  /// runtime actually went idle before stopping — false means queued work
  /// was dropped, exactly what stop() alone always does.
  bool drain_and_stop(std::chrono::milliseconds timeout);

  /// Peer-down hook: invoked on the dispatch strand when the transport
  /// positively observes a destination's connection die under a frame (a
  /// wire write fails). Fires at most once per endpoint between
  /// registrations. This is the fast-path liveness signal the maintenance
  /// plane's FailureDetector consumes instead of waiting out heartbeat
  /// misses. Install before traffic starts; nullptr removes.
  using PeerDownObserver = std::function<void(EndpointId)>;
  void set_peer_down_observer(PeerDownObserver fn);

  /// Cancelable timers currently pending (the torture harness's timer
  /// invariant reads this; parity with sim::EventQueue::live_timer_count).
  std::size_t live_timer_count() const;

  /// Wall-clock duration of one transport tick (backend-configured).
  std::chrono::microseconds tick() const noexcept { return common_.tick; }

  /// Wire frames that failed envelope (or inner payload) decode — 0 in a
  /// healthy runtime.
  std::uint64_t decode_errors() const;

  /// Test/fault hook: the io thread silently discards the next `n` inbound
  /// envelopes, exactly as if the frames had died on the read side of the
  /// wire. Parked senders then wait on the deadline sweep — this is how the
  /// parked-leak regression test kills frames deterministically.
  void drop_inbound(std::uint64_t n);

 protected:
  using Clock = std::chrono::steady_clock;

  /// `max_pad` caps per-frame padding bytes (real serialization cost
  /// tracks the declared payload size up to this bound); each backend
  /// passes its own.
  SocketTransport(CommonConfig common, std::uint32_t max_pad);

  /// How the wire disposed of one envelope frame.
  enum class WireResult {
    kOk,        ///< accepted by the socket
    kConnDead,  ///< connection dead / socket gone (net.dropped.conn)
  };

  /// A message kind as the transport counts it: a registered kind's dense
  /// index (kind_index), or kKindCount + i for the i-th opaque label seen.
  using KindId = std::uint32_t;

  /// One queued frame: where it ends in its run's bytes, and what settling
  /// its fate needs.
  struct OutFrame {
    std::size_t end = 0;       ///< offset just past the frame in Run::bytes
    std::uint64_t parked = 0;  ///< parked handler's message id; 0: payload
    EndpointId from = 0;
    EndpointId to = 0;
    std::size_t declared = 0;  ///< payload bytes the observer reports
    KindId kind = 0;
  };

  /// Encoded envelope frames bound for one wire destination, back to back
  /// in send order.
  struct Run {
    std::optional<sockaddr_in> remote;  ///< empty: the loopback self-wire
    std::vector<std::uint8_t> bytes;
    std::vector<OutFrame> frames;
  };

  /// Writes `run` to its destination. `fate` holds one entry per frame,
  /// pre-filled kConnDead; the backend marks each frame the wire accepted
  /// kOk.
  virtual void wire_write(const Run& run, std::vector<WireResult>& fate) = 0;

  /// Launches the dispatch thread (call once sockets are up).
  void start_dispatch();

  /// Flags the runtime stopping and wakes every waiter. Returns false if
  /// already stopping (stop() must then return without re-joining).
  bool begin_stop();
  void join_dispatch();
  bool stopping() const { return halted_.load(std::memory_order_acquire); }

  /// The envelopes one read decoded, in arrival order: redeems parked
  /// handlers (empty payload) and decodes cross-process payload messages
  /// (non-empty payload), then hands them all to the strand at once.
  void on_envelopes(const std::vector<EnvelopeMsg>& batch);

  /// Releases parked entries past their deadline as net.dropped.conn.
  /// Backends call this from their io loop (each poll timeout tick).
  void sweep_parked();

  /// Looks up `id` in the peer-address table. False if it has no address
  /// (the endpoint is local or unknown).
  bool lookup_addr(EndpointId id, sockaddr_in* out) const;

  /// Counts one failed envelope/payload decode (decode_errors()).
  void note_decode_error() {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
  }

  const CommonConfig& common() const noexcept { return common_; }

 private:
  /// A parked delivery handler waiting for its envelope to return. An
  /// entry without a handler is a hole: redeemed or released.
  struct ParkedEntry {
    Handler fn;
    KindId kind = 0;              ///< for loss attribution if swept
    Clock::time_point deadline;   ///< sweep releases past this
  };

  /// A handler queued for the strand.
  struct Ready {
    Handler fn;
    bool wire = false;  ///< a parked wire delivery: counts net.delivered
  };

  /// Schedule key: (deadline, insertion seq) — FIFO among equal deadlines,
  /// the simulator's tie-break discipline.
  using ScheduleKey = std::pair<Clock::time_point, std::uint64_t>;

  struct TimerEntry {
    TimerId id = 0;  ///< 0 = plain event (schedule_in, not cancelable)
    Handler fn;
  };

  /// The net.* counters the transport keeps in slots.
  enum Counter : std::size_t {
    kMessages,
    kBytes,
    kWireBytes,
    kDelivered,
    kLocal,
    kDropped,
    kDroppedUnregistered,
    kDroppedConn,
    kDroppedFault,
    kLost,
    kDup,
    kDelayed,
    kRemoteOut,
    kRemoteIn,
    kStray,
    kCounterCount
  };
  /// The per-kind counter families (<prefix><kind>), one slot per
  /// registered kind each.
  enum Family : std::size_t {
    kMsgKind,         ///< msg.<kind>
    kLostKind,        ///< net.lost.<kind>
    kDroppedKind,     ///< net.dropped.<kind>
    kRemoteInKind,    ///< net.remote.in.<kind>
    kFamilyCount
  };
  static constexpr std::size_t kSlotCount =
      kCounterCount + kFamilyCount * kKindCount;

  void dispatch_loop();
  /// Pushes `batch` onto the ready queue under one lock, with one notify.
  void enqueue_ready(std::span<Ready> batch);
  /// Encodes `env` onto the end of its run — on the strand, the turn's run
  /// for `remote` (nullptr: the self-wire); on any other thread, a run of
  /// one, written before returning — and counts it sent as `kind`.
  void emit(const sockaddr_in* remote, const EnvelopeMsg& env, KindId kind);
  /// Parks `deliver` under the next message id, returned, and counts the
  /// message in flight.
  std::uint64_t park(Handler deliver, KindId kind);
  /// The fault model's verdict on one wire send (clean if none installed).
  FaultActions inspect(EndpointId from, EndpointId to, KindId kind);
  /// Applies a non-clean verdict to `env`, bound for `remote` (empty: the
  /// self-wire); a closure send's `deliver` is parked once per copy.
  void send_faulted(const FaultActions& fault,
                    std::optional<sockaddr_in> remote, EnvelopeMsg env,
                    KindId kind, Handler deliver);
  /// Writes `run`, settles every frame's fate, and empties it.
  void write_run(Run& run);
  /// The strand's end-of-turn write: every non-empty run.
  void write_runs();
  void report_peer_down(EndpointId to);
  /// Moves the handler parked under message id `id` into `out`; false if
  /// none is (handlers_mu_ held).
  bool unpark(std::uint64_t id, ParkedEntry* out);

  void bump(Counter c, std::uint64_t delta = 1) {
    slots_[c].fetch_add(delta, std::memory_order_relaxed);
  }
  /// Counts `delta` on <family prefix><kind>: a slot for registered kinds,
  /// the locked side table for opaque labels.
  void bump(Family f, KindId kind, std::uint64_t delta = 1);
  /// Counts one wire loss: net.lost[.kind] plus its cause counter
  /// (kDroppedConn or kDroppedFault).
  void count_loss(KindId kind, Counter cause);
  /// The KindId of a send() label; interns opaque labels.
  KindId kind_id(const std::string& kind);
  /// The label a KindId stands for (stable reference).
  const std::string& kind_label(KindId kind) const;
  /// Moves every pending count into metrics_ (the body of metrics()).
  void fold_counts() const;
  /// Each slot's counter name and each registered kind's label, built once.
  struct Names;

  CommonConfig common_;
  const std::uint32_t max_pad_;
  Clock::time_point start_;

  // Registered endpoints: reader-writer lock, sends read, membership
  // writes.
  mutable std::shared_mutex peers_mu_;
  std::unordered_set<EndpointId> registered_;

  // Endpoints owned by other processes, keyed to their socket address.
  mutable std::shared_mutex addrs_mu_;
  std::unordered_map<EndpointId, sockaddr_in> addrs_;

  // Parked delivery handlers in message-id order: parked_[i] holds id
  // parked_base_ + i, and the next send parks id parked_base_ +
  // parked_.size(). Ids and deadlines both grow along the deque, so holes
  // are popped once they reach the front and the sweep looks only there.
  std::mutex handlers_mu_;
  std::deque<ParkedEntry> parked_;
  std::uint64_t parked_base_ = 1;

  // Fault injection: fault_armed_ mirrors fault_ != nullptr, so a send
  // with no model installed costs one relaxed load; fault_mu_ guards the
  // rest.
  std::atomic<bool> fault_armed_{false};
  std::mutex fault_mu_;
  std::unique_ptr<FaultModel> fault_;
  Rng fault_rng_;
  std::uint64_t fault_seq_ = 0;  ///< the model's next wire sequence number

  // Dispatch strand state.
  mutable std::mutex strand_mu_;
  std::condition_variable strand_cv_;
  std::condition_variable idle_cv_;
  std::deque<Ready> ready_;  ///< delivered, FIFO
  std::map<ScheduleKey, TimerEntry> schedule_;  ///< timers + plain events
  std::unordered_map<TimerId, ScheduleKey> timer_keys_;  ///< cancel index
  std::uint64_t pending_events_ = 0;  ///< schedule_ entries with id == 0
  std::uint64_t next_timer_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t inflight_ = 0;  ///< sent-not-yet-executed messages
  bool unwritten_ = false;      ///< the strand's runs hold queued frames
  bool stopping_ = false;
  std::atomic<bool> halted_{false};  ///< lock-free mirror of stopping_

  // The strand's runs, one per destination written to; touched only by the
  // dispatch thread. Emptied runs stay, keeping their buffers.
  std::vector<Run> runs_;
  std::size_t held_ = 0;           ///< frames queued in runs_
  Clock::time_point held_since_;   ///< when the oldest of them was queued

  // Accounting. Slots are bumped lock-free by every thread; counts_mu_
  // guards the opaque labels and their pending counts, and serializes
  // folds into metrics_.
  mutable std::array<std::atomic<std::uint64_t>, kSlotCount> slots_{};
  mutable std::mutex counts_mu_;
  std::deque<std::string> labels_;  ///< opaque labels; KindId kKindCount + i
  std::unordered_map<std::string, KindId> label_ids_;
  mutable std::map<std::string, std::uint64_t> label_counts_;  ///< pending
  mutable sim::Metrics metrics_;
  std::atomic<std::uint64_t> decode_errors_{0};

  // The send and peer-down observers (observer_mu_ also serializes calls
  // to the send observer).
  std::mutex observer_mu_;
  SendObserver observer_;
  PeerDownObserver peer_down_;

  // Endpoints already reported down (avoids a storm of peer-down callbacks
  // when many frames hit the same dead connection). Guarded by peers_mu_.
  std::unordered_map<EndpointId, bool> down_reported_;

  std::atomic<std::uint64_t> drop_inbound_{0};

  std::thread dispatch_thread_;
};

}  // namespace hkws::net
