// MaintenancePlane — the repair half of the self-healing maintenance
// plane. It couples the heartbeat FailureDetector to one Chord ring and
// the KeywordSearchService indexing over it (the ring's stabilize_all, the
// service's repair_step / repair_backlog / replication_step), replacing
// the all-at-once repair sweeps the harnesses used to run in zero
// simulated time with *incremental* background work on the simulation
// event queue:
//
//   * confirmed death  ->  schedules a budget of DHT stabilization rounds
//     (routing heal) and (re)activates the repair ticker
//   * repair tick      ->  runs a few stabilization rounds, then one
//     rate-limited repair slice (at most entries_per_tick index entries
//     re-homed / mirror-resynced and refs_per_tick replica copies pushed)
//   * idle ticks       ->  once the backlog stays empty the ticker disarms
//     itself; the next confirmed death re-arms it
//
// Serving continues throughout — that is the point: searches race repair,
// degrade via the index's failover path, and recover completeness once
// converged() reports the plane has drained its backlog.
//
// Accounting: Chord stabilization charges lookup hops to
// "net.messages" synchronously, without a matching wire delivery. The
// plane measures the "net.messages" counter delta across each (purely
// synchronous) stabilize call and reports the sum as
// synthetic_messages(), which the torture harness adds to its message
// conservation identity. All other plane traffic — pings, acks, replica
// pushes, mirror resync reindexes — consists of real conserved sends.
#pragma once

#include <cstdint>

#include "maint/failure_detector.hpp"

namespace hkws::dht {
class ChordNetwork;
}  // namespace hkws::dht

namespace hkws::index {
class KeywordSearchService;
}  // namespace hkws::index

namespace hkws::obs {
class Tracer;
class WindowedMetrics;
}  // namespace hkws::obs

namespace hkws::maint {

class MaintenancePlane {
 public:
  struct Config {
    FailureDetector::Config detector;
    sim::Time repair_interval = 25;  ///< ticks between repair slices
    std::size_t entries_per_tick = 8;  ///< index entries re-homed per slice
    std::size_t refs_per_tick = 8;     ///< replica copies pushed per slice
    int stabilize_rounds_per_tick = 3;
    /// Stabilization rounds queued per confirmed death (Chord fixes one
    /// finger per node per round, so routing heal needs a batch of them).
    int stabilize_rounds_per_death = 30;
    /// Hot-cell replication cadence (0 = ticker off). Unlike the repair
    /// ticker — armed by confirmed deaths, disarmed when idle — the
    /// replication ticker runs for the plane's whole lifetime: popularity
    /// shifts without anyone dying.
    sim::Time replication_interval = 0;
    /// Index entries copied to hot-cell replicas per replication round.
    std::size_t replica_entries_per_tick = 64;
  };

  /// Wires the plane to one Chord ring and the service indexing over it:
  /// stabilization is ring.stabilize_all(), a repair slice is
  /// service.repair_step, the backlog is service.repair_backlog, and a
  /// replication round (when Config::replication_interval != 0) is
  /// service.replication_step. Both must outlive the plane.
  MaintenancePlane(net::Transport& net, Config cfg, dht::ChordNetwork& ring,
                   index::KeywordSearchService& service);

  /// Starts the failure detector over the ring's live peers. The repair
  /// ticker stays dormant until the first confirmed death; the replication
  /// ticker (if configured) arms immediately.
  void start();

  /// Stops detector and ticker, cancelling every armed timer.
  void stop();

  bool running() const noexcept { return detector_.running(); }

  /// Metrics oracle passthrough: when the harness kills a peer it reports
  /// the truth here so detection latency can be measured.
  void note_true_failure(sim::EndpointId ep) {
    detector_.note_true_failure(ep);
  }

  /// True when no stabilization rounds are pending, the repair backlog is
  /// empty, and the detector holds no unresolved suspicion — i.e. every
  /// injected failure has been detected and fully repaired.
  bool converged() const;

  /// Lookup-hop charges incurred inside stabilize calls: counted into
  /// "net.messages" without a wire delivery, so conservation checks must
  /// add this term.
  std::uint64_t synthetic_messages() const noexcept { return synthetic_; }

  /// Total units of repair work (entries moved + copies pushed) so far.
  std::uint64_t repair_work_done() const noexcept { return work_done_; }

  /// Timers currently armed by the plane (detector's + the repair and
  /// replication tickers).
  std::size_t armed_timers() const noexcept {
    return detector_.armed_timers() + (repair_timer_ != 0 ? 1 : 0) +
           (replication_timer_ != 0 ? 1 : 0);
  }

  FailureDetector& detector() noexcept { return detector_; }
  const FailureDetector& detector() const noexcept { return detector_; }
  const Config& config() const noexcept { return cfg_; }

  /// Optional observability sinks (not owned, may be nullptr).
  void set_windows(obs::WindowedMetrics* windows);
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  void on_death(sim::EndpointId ep);
  void tick();
  void arm_ticker();
  void replication_tick();
  void arm_replication_ticker();
  /// Runs one stabilize round, charging its synchronous lookup hops to
  /// synthetic_.
  void stabilize_once();

  net::Transport& net_;
  Config cfg_;
  dht::ChordNetwork& ring_;
  index::KeywordSearchService& service_;
  FailureDetector detector_;
  obs::WindowedMetrics* windows_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  net::Transport::TimerId repair_timer_ = 0;
  net::Transport::TimerId replication_timer_ = 0;
  int pending_stabilize_ = 0;
  int idle_ticks_ = 0;
  /// Idle slices (no work, empty backlog) before the ticker disarms.
  static constexpr int kIdleTicksToDisarm = 2;
  std::uint64_t synthetic_ = 0;
  std::uint64_t work_done_ = 0;
  bool burst_open_ = false;  ///< a "repair.burst" tracer span is open
};

}  // namespace hkws::maint
