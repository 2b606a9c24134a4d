// The Chord-style overlay realizing the paper's generalized DHT model
// (§2.1): an a-bit identifier circle, a deterministic owner mapping with
// surrogate routing (owner of key k = successor(k)), and hop-by-hop routing
// over fingers and successor lists. Upper layers (the DOLR reference
// service and the hypercube keyword-index layer) address peers only by
// ring key. Membership and the routing walk live in the Overlay base.
//
// Simulation note: ring maintenance (join, stabilize, fix-fingers)
// manipulates node state synchronously but charges the messages it would
// cost to the "dht.maintenance" counters; experiments never measure
// maintenance latency, only its message volume.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dht/chord_node.hpp"
#include "dht/node_id.hpp"
#include "dht/overlay.hpp"

namespace hkws::dht {

class ChordNetwork final : public Overlay {
 public:
  struct Config {
    int id_bits = 32;            ///< a — ring identifier width
    int successor_list_size = 8; ///< fault-tolerance fan-out
    std::uint64_t seed = 42;     ///< node-id hashing salt
    int max_route_hops = 256;    ///< loop guard for routing with stale state
  };

  ChordNetwork(net::Transport& net, Config cfg);

  // --- Membership -------------------------------------------------------

  /// Creates the first node of a fresh ring. Returns its ring id.
  RingId create_ring(sim::EndpointId endpoint);

  /// Adds `endpoint` to the ring via `bootstrap` (any live node) using the
  /// Chord join protocol: find successor, adopt links, take over the keys
  /// now owned. Followed by stabilize rounds to refresh other nodes.
  RingId join(sim::EndpointId endpoint, sim::EndpointId bootstrap);

  /// Graceful departure: hands references to the successor, splices the
  /// ring. The endpoint stops receiving messages. (Abrupt failure is the
  /// base's fail().)
  void leave(sim::EndpointId endpoint);

  /// Runs one stabilization round at every live node (successor liveness
  /// check + predecessor reconciliation + successor-list refresh +
  /// finger repair). Returns messages charged.
  std::uint64_t stabilize_all();

  /// Convenience: builds a well-formed ring for `n` peers (endpoints
  /// 1..n) with globally computed fingers/successors — the steady state an
  /// idle ring converges to. Experiments start from this.
  static ChordNetwork build(net::Transport& net, std::size_t n, Config cfg);

  // --- Overlay rules and Chord state ----------------------------------------

  ChordNode& node(RingId id) { return static_cast<ChordNode&>(state_of(id)); }
  const ChordNode& node(RingId id) const {
    return static_cast<const ChordNode&>(state_of(id));
  }

  /// Ground-truth owner of `key`: the first live node clockwise from key
  /// (surrogate routing S). O(log n); global knowledge — used by placement
  /// experiments and as a test oracle, never by routed protocols.
  RingId owner_of(RingId key) const override;

  /// Replicas of content owned by `owner` go to its first `count` live
  /// successors.
  std::vector<RingId> replica_targets(RingId owner, int count) const override;

 private:
  /// Next hop toward `key` over live fingers and successors. A hop to the
  /// successor when the key lies in (us, successor] is final: the
  /// predecessor decides ownership, since with failed-but-not-yet-repaired
  /// predecessors the target could not prove it locally. Dead links are
  /// skipped (modeling timeout + successor-list fallback).
  std::optional<Hop> next_hop(const OverlayNode& at, RingId key) const override;
  void fix_all_fingers(ChordNode& n, bool charge);

  Config cfg_;
};

}  // namespace hkws::dht
