// Deterministic fault schedules for the protocol torture harness.
//
// A FaultPlan is a small list of fault events — message drops, duplications,
// delay spikes, and abrupt peer failures — derived from a single 64-bit seed
// via the repo's own Rng. Message faults target *wire sequence numbers* (the
// numbering every Transport backend gives its wire sends once a
// net::FaultModel is installed), so replaying the same plan against the
// same simulated scenario reproduces the same run bit-for-bit; peer-failure
// events target workload round boundaries.
//
// Soundness rule: drops and duplications are applied only to message kinds
// in the loss-tolerant subset of the superset-search protocol (guarded by
// per-step timeouts, idempotent retransmission, and dedup — see
// docs/ENGINE.md). Dropping anything else (DHT routing, publishes, HyperCuP
// tree forwarding, cumulative-session traffic) is not tolerated by design
// and would fail the differential oracle for reasons the paper's protocol
// never promises to survive. Delay spikes are safe on every kind.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/fault_model.hpp"
#include "sim/network.hpp"

namespace hkws::torture {

enum class FaultKind : std::uint8_t {
  kDrop,       ///< lose one wire message (loss-tolerant kinds only)
  kDuplicate,  ///< deliver one extra copy (loss-tolerant kinds only)
  kDelay,      ///< add a latency spike (any kind; reorders traffic)
  kFailPeer,   ///< abrupt peer failure at a workload round boundary
  kPartition,  ///< bidirectional endpoint-set cut over a wire-seq window
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  /// kDrop/kDuplicate/kDelay: the wire sequence number to hit.
  /// kFailPeer: the 0-based workload round before which the peer dies.
  /// kPartition: the wire sequence number at which the cut starts.
  std::uint64_t target = 0;
  /// kDelay: extra one-way latency in ticks. kFailPeer: victim ordinal
  /// (mapped onto the live peer set at execution time). kPartition: cut
  /// span in wire sequence numbers (low 48 bits) plus the bisection bit
  /// index (bits 48..53) — see partition_sides(). Unused otherwise.
  std::uint64_t arg = 0;

  std::string to_string() const;

  /// Packs / unpacks a kPartition arg. `span` is how many wire sequence
  /// numbers the cut stays up for (the cut heals at target + span); `bit`
  /// selects which bit of the endpoint-id hash bisects the network.
  static std::uint64_t pack_partition(std::uint64_t span, unsigned bit);
  static std::uint64_t partition_span(std::uint64_t arg);
  static unsigned partition_bit(std::uint64_t arg);
};

/// Which side of a partition an endpoint falls on: bit `bit` of the mixed
/// endpoint id. Hashing (rather than raw id parity) makes the two sides a
/// pseudo-random bisection that is still a pure function of the endpoint,
/// so sim and TCP backends cut the identical sets for the same plan.
bool partition_side(sim::EndpointId ep, unsigned bit);

/// Knobs for seed-derived plan generation. The defaults suit the DHT
/// deployments; delay-only plans (HyperCuP, cumulative-heavy runs) switch
/// off drops and duplicates.
struct FaultPlanConfig {
  bool allow_drops = true;
  bool allow_dups = true;
  bool allow_delays = true;
  std::size_t peer_failures = 0;  ///< kFailPeer events to schedule
  std::size_t max_events = 24;    ///< message-fault events per plan
  /// kPartition events to schedule. Each cuts the endpoint set in two for
  /// a window of wire sequence numbers, dropping every loss-tolerant
  /// message that crosses the cut in either direction, then heals.
  std::size_t partitions = 0;
  std::uint64_t max_partition_span = 800;  ///< cut length upper bound
  /// Wire-sequence horizon message faults are drawn from. Targets past the
  /// run's actual traffic simply never fire — harmless.
  std::uint64_t horizon = 6000;
  sim::Time max_delay = 400;  ///< delay spikes are 1..max_delay ticks
  std::size_t rounds = 4;     ///< workload rounds peer failures spread over
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Derives a plan from `seed` (stream-separated from the workload and
  /// network seeds by fixed salts, so the three never alias).
  static FaultPlan from_seed(std::uint64_t seed, const FaultPlanConfig& cfg);

  /// Number of events of the given kind.
  std::size_t count(FaultKind kind) const;

  /// One event per line, e.g. "drop @wire 1207".
  std::string to_string() const;
};

/// True for message kinds the loss-tolerant search protocol may lose or
/// receive twice without violating its exactness guarantee.
bool lossable(const std::string& kind);

/// net::FaultModel that executes a FaultPlan's message events. Multiple
/// events aimed at the same wire sequence number compose (e.g. duplicate +
/// delay); a drop wins over everything else.
///
/// Plan targets are the backend's wire sequence numbers, which start at 0
/// when the injector is installed: the harness installs it after overlay
/// construction, so target 0 is the first workload message regardless of
/// how much wire traffic setup consumed.
class FaultInjector final : public net::FaultModel {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  net::FaultActions inspect(sim::EndpointId from, sim::EndpointId to,
                            const std::string& kind, std::uint64_t seq,
                            Rng& rng) override;

  /// Message-fault events that actually hit a message this run.
  std::uint64_t applied() const noexcept { return applied_; }

  /// Messages dropped because they crossed an active partition cut.
  std::uint64_t partition_cuts() const noexcept { return partition_cuts_; }

 private:
  struct Planned {
    bool drop = false;
    std::uint32_t duplicates = 0;
    sim::Time extra_delay = 0;
  };
  struct Partition {
    std::uint64_t start = 0;  ///< wire seq the cut begins at
    std::uint64_t end = 0;    ///< wire seq the cut heals at
    unsigned bit = 0;         ///< endpoint-hash bisection bit
  };
  std::unordered_map<std::uint64_t, Planned> by_seq_;
  std::vector<Partition> partitions_;
  std::uint64_t applied_ = 0;
  std::uint64_t partition_cuts_ = 0;
};

}  // namespace hkws::torture
