// The generalized DHT model of paper §2.1 and the ring every overlay
// shares.
//
// The paper deliberately does not fix the overlay: it requires only (i) an
// identifier space, (ii) a deterministic owner mapping with surrogate
// routing for absent IDs, and (iii) hop-by-hop routing between any two
// nodes. Everything above — the DOLR reference service and the hypercube
// keyword-search layer — is written against this class, and the
// repository ships two overlays (Chord-style successor routing and
// Pastry-style prefix routing) to demonstrate the claim.
//
// The base owns what both overlays share: membership (the live nodes, their
// endpoints and the ids of failed nodes), ring-id placement, abrupt failure
// and the one hop-by-hop walk, asynchronous (route) and synchronous
// (lookup_now). An overlay supplies its owner rule (owner_of), its replica
// set (replica_targets) and its next hop from one node's local state
// (next_hop), along with its own node state, join/leave protocol and link
// repair.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dht/node_id.hpp"
#include "dht/overlay_node.hpp"
#include "net/transport.hpp"
#include "sim/network.hpp"

namespace hkws::dht {

class Overlay {
 public:
  virtual ~Overlay() = default;

  // --- Identifier space ---------------------------------------------------

  const RingSpace& space() const noexcept { return space_; }

  /// Hashes an arbitrary label onto the identifier space.
  RingId key_of(std::string_view label, std::uint64_t salt) const;

  // --- Membership -----------------------------------------------------------

  std::size_t size() const noexcept { return nodes_.size(); }
  bool is_live(sim::EndpointId endpoint) const;
  std::optional<RingId> ring_id_of(sim::EndpointId endpoint) const;
  sim::EndpointId endpoint_of(RingId id) const;
  /// Live node ids in increasing order.
  std::vector<RingId> live_ids() const;

  /// Per-node state shared by all overlays (the DOLR reference store).
  OverlayNode& state_of(RingId id);
  const OverlayNode& state_of(RingId id) const;

  /// Abrupt failure: the node vanishes with its state. Other nodes discover
  /// this through timeouts during routing and link repair.
  void fail(sim::EndpointId endpoint);

  // --- Ownership / routing ---------------------------------------------------

  /// Ground-truth owner of `key` under this overlay's surrogate rule
  /// (successor for Chord, numerically closest for Pastry). Global
  /// knowledge — used by experiments and tests, never by routed protocols.
  virtual RingId owner_of(RingId key) const = 0;

  struct RouteResult {
    RingId owner;  ///< node the message arrived at
    int hops;      ///< overlay hops traversed (0 if origin owns the key)
  };
  using RouteCallback = std::function<void(const RouteResult&)>;

  /// Routes a `kind` message of `payload_bytes` from the peer at `from`
  /// toward the owner of `key`, hop by hop using node-local state only;
  /// invokes `on_owner` at the owner as a simulated event. Each hop is one
  /// message; a message whose next node died in flight, or whose origin is
  /// not live, is dropped and counted as "dht.route_lost".
  void route(sim::EndpointId from, RingId key, std::string kind,
             std::size_t payload_bytes, RouteCallback on_owner);

  /// Synchronous walk of the hop sequence route() would take, returning
  /// the owner and hop count without scheduling events; charges per-hop
  /// messages to metrics under `kind`. Used by membership and maintenance,
  /// and by tests that check route() against an immediate walk.
  RouteResult lookup_now(RingId start, RingId key, const std::string& kind);

  /// Nodes that should hold replicas of content owned by `owner` (its
  /// successor list / leaf set), at most `count` of them, excluding owner.
  virtual std::vector<RingId> replica_targets(RingId owner,
                                              int count) const = 0;

  /// The message fabric this overlay routes over: the deterministic
  /// simulator (sim::Network) or the real socket runtime (net::TcpTransport).
  /// Every protocol layer above reaches the wire exclusively through this.
  net::Transport& transport() noexcept { return net_; }

 protected:
  /// @param id_seed         mixed into every node-id hash
  /// @param max_route_hops  loop guard for walks over stale links
  Overlay(net::Transport& net, int id_bits, std::uint64_t id_seed,
          int max_route_hops);
  /// build() returns by value; the virtual destructor would suppress this.
  Overlay(Overlay&&) = default;
  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;
  Overlay& operator=(Overlay&&) = delete;

  /// One routing step. `final` means the target IS the owner, decided by
  /// the node sending it (Chord's predecessor rule); the target then
  /// delivers without consulting its own links.
  struct Hop {
    RingId next;
    bool final;
  };
  /// Next hop toward `key` from `at`, over live links only; nullopt when
  /// `at` believes it owns the key.
  virtual std::optional<Hop> next_hop(const OverlayNode& at,
                                      RingId key) const = 0;

  /// A ring id for `endpoint` not held by any live or failed node: the
  /// endpoint's hash, re-salted on collision (likely only at small widths).
  RingId unique_ring_id(sim::EndpointId endpoint) const;
  /// Adds a live node and registers its endpoint with the transport.
  void add_node(std::unique_ptr<OverlayNode> node);
  /// Removes a live node (it leaves or fails) and unregisters its endpoint.
  void remove_node(RingId id);
  bool has_node(RingId id) const { return nodes_.contains(id); }
  /// Live nodes by ring id.
  const std::map<RingId, std::unique_ptr<OverlayNode>>& nodes() const noexcept {
    return nodes_;
  }

  net::Transport& net_;
  RingSpace space_;

 private:
  struct RouteState;
  void route_step(std::shared_ptr<RouteState> state, RingId at,
                  bool arrived_final);

  std::uint64_t id_seed_;
  int max_route_hops_;
  std::map<RingId, std::unique_ptr<OverlayNode>> nodes_;
  std::map<sim::EndpointId, RingId> endpoints_;
  std::set<RingId> failed_;  // ids that failed (for timeout modeling)
};

}  // namespace hkws::dht
