// A Pastry-style prefix-routing overlay implementing the generalized DHT
// interface (paper §2.1). Identifiers are strings of base-2^b digits; each
// hop fixes at least one more leading digit of the key, giving
// O(log_{2^b} n) routing. The owner of a key is the live node numerically
// closest to it — a different surrogate rule than Chord's successor, which
// is exactly the point: the keyword-search layer above cannot tell the
// difference.
//
// Simulation note: routing (the base's route()/lookup_now() walk over
// next_hop) uses node-local state only (leaf sets + routing tables);
// membership maintenance (join/leave/fail repair) recomputes affected state
// from global knowledge while charging the messages the Pastry protocols
// would cost, since the experiments measure routing and search, not
// maintenance fidelity.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dht/overlay.hpp"
#include "dht/pastry_node.hpp"

namespace hkws::dht {

class PastryNetwork final : public Overlay {
 public:
  struct Config {
    int id_bits = 32;         ///< must be a multiple of digit_bits
    int digit_bits = 4;       ///< b; 2^b routing-table columns
    int leaf_size = 8;        ///< total leaf-set size (half per side)
    std::uint64_t seed = 42;  ///< node-id hashing salt
    int max_route_hops = 256;
  };

  PastryNetwork(net::Transport& net, Config cfg);

  /// Builds a steady-state overlay of `n` peers (endpoints 1..n).
  static PastryNetwork build(net::Transport& net, std::size_t n, Config cfg);

  // --- Membership ----------------------------------------------------------

  /// First node of a fresh overlay.
  RingId create(sim::EndpointId endpoint);

  /// Joins via `bootstrap`: routes to the key's owner, adopts leaf set and
  /// routing table, takes over the keys now numerically closest to it.
  RingId join(sim::EndpointId endpoint, sim::EndpointId bootstrap);

  /// Graceful departure with reference handoff. (Abrupt failure is the
  /// base's fail().)
  void leave(sim::EndpointId endpoint);

  /// Repairs leaf sets and prunes/refills dead routing-table entries at
  /// every live node. Returns messages charged.
  std::uint64_t repair_all();

  // --- Overlay rules ---------------------------------------------------------

  RingId owner_of(RingId key) const override;
  std::vector<RingId> replica_targets(RingId owner, int count) const override;

  // --- Pastry specifics (tests, diagnostics) ---------------------------------

  PastryNode& node(RingId id) { return static_cast<PastryNode&>(state_of(id)); }
  const PastryNode& node(RingId id) const {
    return static_cast<const PastryNode&>(state_of(id));
  }
  int digit_count() const noexcept { return digits_; }

  /// Digit `position` of `id` (0 = most significant).
  int digit_at(RingId id, int position) const;

  /// Number of leading digits `a` and `b` share.
  int shared_prefix_digits(RingId a, RingId b) const;

  /// Circular distance between two ids (min of both directions).
  std::uint64_t circular_distance(RingId a, RingId b) const;

 private:
  /// Next hop toward `key` from `at` using only local state; nullopt if
  /// `at` believes it is the owner. Pastry hops are never final.
  std::optional<Hop> next_hop(const OverlayNode& at, RingId key) const override;
  /// Recomputes `n`'s leaf sets and routing table from global knowledge.
  void rebuild_state(PastryNode& n);

  Config cfg_;
  int digits_;
};

}  // namespace hkws::dht
