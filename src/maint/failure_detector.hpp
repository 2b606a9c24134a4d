// Heartbeat failure detector — the sensing half of the self-healing
// maintenance plane. Instead of the oracle-style detection the repair
// harnesses used so far (the test driver *tells* the index which peer
// died), the detector discovers deaths the way a deployed system must:
// periodic pings over the simulated wire, timeout-based suspicion, and a
// configurable number of consecutive missed acks before a death is
// confirmed and reported.
//
// Probing scheme: members are ordered by endpoint id into a logical ring;
// every round, each still-monitored member is pinged by its nearest
// believed-alive ring successor ("maint.ping"), which expects a
// "maint.ack" back within `timeout` ticks. A missed ack marks the target
// *suspected*; `confirmations` consecutive misses confirm the death and
// fire the callback. An ack at any point clears the suspicion, so
// transient message loss (both kinds are declared lossable to the torture
// fault injector) only delays detection, it cannot kill a live peer —
// confirmation here never touches the network fabric, it only triggers
// repair, which is idempotent.
//
// A miss proves nothing about the target when its prober was the one that
// died. A miss that lands after its prober was confirmed dead is not
// counted. When a prober is confirmed, the misses counted through it are
// cleared, and every member whose confirmation rested on it is re-checked:
// it is monitored again from scratch, probed through a trusted prober, so
// a live member clears and its later real death is confirmed like any
// other.
//
// Timer discipline: every armed timer id is tracked and erased first
// thing in its callback, stop() cancels everything, and armed_timers()
// reports the live count — that is what lets the torture harness keep its
// no-dangling-timer invariant while the plane runs forever alongside the
// workload.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "net/transport.hpp"
#include "sim/network.hpp"

namespace hkws::obs {
class WindowedMetrics;
}

namespace hkws::maint {

class FailureDetector {
 public:
  struct Config {
    sim::Time period = 40;   ///< ping round interval (ticks)
    sim::Time timeout = 30;  ///< ack wait per ping; must be < period
    int confirmations = 2;   ///< consecutive misses before death is confirmed
    std::size_t ping_bytes = 16;  ///< wire size of ping and ack
  };

  /// Invoked once per confirmation, from a timer event (or from
  /// note_transport_down). A member re-checked after its prober's death
  /// and confirmed again fires it again.
  using DeathCallback = std::function<void(sim::EndpointId)>;

  /// @param net       fabric the pings travel on (not owned)
  /// @param on_death  confirmed-death sink (the repair plane)
  FailureDetector(net::Transport& net, Config cfg, DeathCallback on_death);

  /// Begins monitoring `members` (typically every peer in the deployment)
  /// and arms the periodic ping round. Idempotent while running.
  void start(const std::vector<sim::EndpointId>& members);

  /// Cancels every armed timer and stops probing. In-flight ping/ack
  /// deliveries already in the event queue are ignored on arrival.
  void stop();

  bool running() const noexcept { return running_; }

  /// Oracle hook for metrics only: records when a peer truly failed so the
  /// confirmation can report detection latency ("maint.detect_latency").
  /// Never consulted by the detection logic itself.
  void note_true_failure(sim::EndpointId ep);

  /// Fast-path liveness signal from the transport: the wire to `ep`
  /// positively died (TcpTransport's peer-down observer). Confirms the
  /// death immediately — no heartbeat misses to wait out — cancelling any
  /// outstanding ack timer first. Counted "maint.transport_down". No-op if
  /// not running, `ep` is not a monitored member, or already confirmed.
  /// Must be invoked strand/event-loop-serialized like every other entry
  /// point (TcpTransport marshals its observer onto the dispatch strand).
  void note_transport_down(sim::EndpointId ep);

  /// Members with >= 1 consecutive missed ack, not yet confirmed dead.
  std::size_t suspected_count() const;
  /// Members currently confirmed dead (a re-checked member leaves the
  /// count until it is confirmed again).
  std::size_t confirmed_count() const noexcept { return confirmed_; }
  /// Timers currently armed (round timer + outstanding ack timeouts).
  std::size_t armed_timers() const noexcept {
    return ack_timers_.size() + (round_timer_ != 0 ? 1 : 0);
  }

  const Config& config() const noexcept { return cfg_; }

  /// Optional per-window observability sink (not owned, may be nullptr).
  void set_windows(obs::WindowedMetrics* windows) { windows_ = windows; }

 private:
  struct Member {
    int missed = 0;        ///< consecutive missed acks
    bool confirmed = false;
    net::Transport::TimerId ack_timer = 0;  ///< 0 = no ping outstanding
    /// Prober of the last ping; 0 after a transport-down confirmation.
    sim::EndpointId prober = 0;
  };

  void round();
  void probe(sim::EndpointId target);
  void on_ack(std::uint64_t epoch, sim::EndpointId target);
  void on_ack_timeout(sim::EndpointId target);
  void confirm(sim::EndpointId target);
  /// Nearest believed-alive member after `target` in endpoint-id ring
  /// order; 0 if no other candidate remains.
  sim::EndpointId prober_for(sim::EndpointId target) const;

  net::Transport& net_;
  Config cfg_;
  DeathCallback on_death_;
  obs::WindowedMetrics* windows_ = nullptr;

  bool running_ = false;
  /// Bumped on stop(); stale in-flight deliveries compare and bail.
  std::uint64_t epoch_ = 0;
  std::map<sim::EndpointId, Member> members_;
  std::map<net::Transport::TimerId, sim::EndpointId> ack_timers_;
  net::Transport::TimerId round_timer_ = 0;
  std::size_t confirmed_ = 0;
  /// ep -> sim-time of the true failure (metrics oracle).
  std::map<sim::EndpointId, sim::Time> true_failures_;
};

}  // namespace hkws::maint
