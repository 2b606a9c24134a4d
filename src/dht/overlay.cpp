#include "dht/overlay.hpp"

#include <stdexcept>
#include <utility>

#include "common/hash.hpp"

namespace hkws::dht {

// In-flight state of one routed message.
struct Overlay::RouteState {
  RingId key = 0;
  std::string kind;
  std::size_t bytes = 0;
  RouteCallback on_owner;
  int hops = 0;
};

Overlay::Overlay(net::Transport& net, int id_bits, std::uint64_t id_seed,
                 int max_route_hops)
    : net_(net),
      space_(id_bits),
      id_seed_(id_seed),
      max_route_hops_(max_route_hops) {}

RingId Overlay::key_of(std::string_view label, std::uint64_t salt) const {
  return space_.clamp(hash_bytes(label, salt));
}

bool Overlay::is_live(sim::EndpointId endpoint) const {
  return endpoints_.contains(endpoint);
}

std::optional<RingId> Overlay::ring_id_of(sim::EndpointId endpoint) const {
  const auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) return std::nullopt;
  return it->second;
}

sim::EndpointId Overlay::endpoint_of(RingId id) const {
  return state_of(id).endpoint();
}

std::vector<RingId> Overlay::live_ids() const {
  std::vector<RingId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, _] : nodes_) ids.push_back(id);
  return ids;
}

const OverlayNode& Overlay::state_of(RingId id) const {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Overlay: no live node");
  return *it->second;
}

OverlayNode& Overlay::state_of(RingId id) {
  return const_cast<OverlayNode&>(std::as_const(*this).state_of(id));
}

RingId Overlay::unique_ring_id(sim::EndpointId endpoint) const {
  for (std::uint64_t salt = 0;; ++salt) {
    const RingId id = space_.clamp(
        mix64(mix64(endpoint ^ seeds::kNodeId ^ id_seed_) + salt));
    if (!nodes_.contains(id) && !failed_.contains(id)) return id;
  }
}

void Overlay::add_node(std::unique_ptr<OverlayNode> node) {
  const RingId id = node->id();
  const sim::EndpointId endpoint = node->endpoint();
  nodes_[id] = std::move(node);
  endpoints_[endpoint] = id;
  net_.register_endpoint(endpoint);
}

void Overlay::remove_node(RingId id) {
  const sim::EndpointId endpoint = endpoint_of(id);
  nodes_.erase(id);
  endpoints_.erase(endpoint);
  net_.unregister_endpoint(endpoint);
}

void Overlay::fail(sim::EndpointId endpoint) {
  const auto id = ring_id_of(endpoint);
  if (!id) throw std::invalid_argument("fail: endpoint not live");
  failed_.insert(*id);
  remove_node(*id);
  net_.metrics().count("dht.failures");
}

void Overlay::route_step(std::shared_ptr<RouteState> state, RingId at,
                         bool arrived_final) {
  const auto it = nodes_.find(at);
  if (it == nodes_.end()) {
    // Node died while the message was in flight.
    net_.metrics().count("dht.route_lost");
    return;
  }
  const OverlayNode& n = *it->second;
  const std::optional<Hop> hop =
      arrived_final ? std::optional<Hop>{} : next_hop(n, state->key);
  if (!hop || state->hops >= max_route_hops_) {
    if (state->hops >= max_route_hops_)
      net_.metrics().count("dht.route_overflow");
    state->on_owner(RouteResult{at, state->hops});
    return;
  }
  const RingId next = hop->next;
  const bool is_final = hop->final;
  ++state->hops;
  net_.send(n.endpoint(), endpoint_of(next), state->kind, state->bytes,
            [this, state, next, is_final] {
              route_step(std::move(state), next, is_final);
            });
}

void Overlay::route(sim::EndpointId from, RingId key, std::string kind,
                    std::size_t payload_bytes, RouteCallback on_owner) {
  const auto start = ring_id_of(from);
  if (!start) {
    net_.metrics().count("dht.route_lost");
    return;
  }
  auto state = std::make_shared<RouteState>();
  state->key = space_.clamp(key);
  state->kind = std::move(kind);
  state->bytes = payload_bytes;
  state->on_owner = std::move(on_owner);
  // Kick off asynchronously so callers observe uniform async semantics.
  net_.schedule_in(0, [this, state, at = *start]() mutable {
    route_step(std::move(state), at, /*arrived_final=*/false);
  });
}

Overlay::RouteResult Overlay::lookup_now(RingId start, RingId key,
                                         const std::string& kind) {
  key = space_.clamp(key);
  RingId at = start;
  int hops = 0;
  while (true) {
    const auto hop = next_hop(state_of(at), key);
    if (!hop || hops >= max_route_hops_) {
      if (hops >= max_route_hops_) net_.metrics().count("dht.route_overflow");
      return RouteResult{at, hops};
    }
    at = hop->next;
    ++hops;
    net_.metrics().count("net.messages");
    net_.metrics().count("msg." + kind);
    if (hop->final) return RouteResult{at, hops};
  }
}

}  // namespace hkws::dht
