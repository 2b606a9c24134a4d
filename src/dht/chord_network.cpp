#include "dht/chord_network.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace hkws::dht {

namespace {
// Messages charged per maintenance interaction (request + reply).
constexpr std::uint64_t kRpcCost = 2;
}  // namespace

ChordNetwork::ChordNetwork(net::Transport& net, Config cfg)
    : Overlay(net, cfg.id_bits, cfg.seed, cfg.max_route_hops), cfg_(cfg) {
  if (cfg.id_bits < 1 || cfg.id_bits > 64)
    throw std::invalid_argument("ChordNetwork: id_bits must be in [1,64]");
  if (cfg.successor_list_size < 1)
    throw std::invalid_argument("ChordNetwork: successor_list_size >= 1");
}

RingId ChordNetwork::create_ring(sim::EndpointId endpoint) {
  if (size() != 0)
    throw std::logic_error("create_ring: ring already exists");
  const RingId id = unique_ring_id(endpoint);
  auto n = std::make_unique<ChordNode>(id, endpoint, cfg_.id_bits);
  n->set_successor_list({id});
  n->set_predecessor(id);
  for (int i = 0; i < cfg_.id_bits; ++i) n->set_finger(i, id);
  add_node(std::move(n));
  return id;
}

RingId ChordNetwork::join(sim::EndpointId endpoint, sim::EndpointId bootstrap) {
  const auto boot_id = ring_id_of(bootstrap);
  if (!boot_id) throw std::invalid_argument("join: bootstrap not live");
  const RingId id = unique_ring_id(endpoint);

  // Find our successor through the overlay, starting at the bootstrap node.
  const RouteResult r = lookup_now(*boot_id, id, "dht.join");
  ChordNode& succ = node(r.owner);

  auto joiner = std::make_unique<ChordNode>(id, endpoint, cfg_.id_bits);
  // Successor list: successor first, then its list, truncated.
  std::vector<RingId> slist{succ.id()};
  for (RingId s : succ.successor_list()) {
    if (s != id && static_cast<int>(slist.size()) < cfg_.successor_list_size)
      slist.push_back(s);
  }
  joiner->set_successor_list(std::move(slist));
  joiner->set_predecessor(succ.predecessor());
  net_.metrics().count("dht.maintenance.msgs", kRpcCost);  // link exchange

  // Take over keys in (predecessor, id] from the successor.
  auto moved = succ.extract_refs_if([&](RingId key) {
    return space_.in_interval_oc(key, id, succ.id());
  });
  for (const auto& ref : moved) joiner->add_ref(ref);
  if (!moved.empty())
    net_.metrics().count("dht.maintenance.msgs", moved.size());

  // Splice: predecessor's successor and successor's predecessor now point
  // at the joiner (Chord would converge to this via notify; doing it
  // eagerly keeps the ring immediately routable).
  if (auto pred = succ.predecessor();
      pred && *pred != id && has_node(*pred)) {
    ChordNode& p = node(*pred);
    auto list = p.successor_list();
    list.insert(list.begin(), id);
    if (static_cast<int>(list.size()) > cfg_.successor_list_size)
      list.resize(static_cast<std::size_t>(cfg_.successor_list_size));
    p.set_successor_list(std::move(list));
    net_.metrics().count("dht.maintenance.msgs", 1);
  }
  succ.set_predecessor(id);

  ChordNode& placed = *joiner;
  add_node(std::move(joiner));
  fix_all_fingers(placed, /*charge=*/true);
  return id;
}

void ChordNetwork::leave(sim::EndpointId endpoint) {
  const auto idOpt = ring_id_of(endpoint);
  if (!idOpt) throw std::invalid_argument("leave: endpoint not live");
  const RingId id = *idOpt;
  ChordNode& n = node(id);

  if (size() > 1) {
    // Hand all references to the successor.
    const RingId succ_id = owner_of(space_.clamp(id + 1));
    ChordNode& succ = node(succ_id);
    auto moved = n.extract_refs_if([](RingId) { return false; });
    for (const auto& ref : moved) succ.add_ref(ref);
    if (!moved.empty())
      net_.metrics().count("dht.maintenance.msgs", moved.size());

    // Splice the ring.
    if (auto pred = n.predecessor(); pred && *pred != id) {
      if (has_node(*pred)) {
        ChordNode& p = node(*pred);
        auto list = p.successor_list();
        std::erase(list, id);
        if (list.empty() || list.front() != succ_id)
          list.insert(list.begin(), succ_id);
        p.set_successor_list(std::move(list));
      }
      succ.set_predecessor(*pred);
      net_.metrics().count("dht.maintenance.msgs", kRpcCost);
    }
  }
  remove_node(id);
}

std::uint64_t ChordNetwork::stabilize_all() {
  std::uint64_t charged = 0;
  const auto ids = live_ids();
  const int finger_to_fix =
      static_cast<int>(net_.metrics().counter("dht.stabilize_rounds") %
                       static_cast<std::uint64_t>(cfg_.id_bits));
  for (RingId id : ids) {
    if (!has_node(id)) continue;
    ChordNode& n = node(id);

    // 1. Drop dead successors; if the list empties, recover by probing the
    //    ring clockwise (models successive timeouts + rejoin-by-scan).
    auto list = n.successor_list();
    std::erase_if(list, [&](RingId s) { return !has_node(s); });
    if (list.empty()) {
      if (size() == 1) {
        list = {id};
      } else {
        list = {owner_of(space_.clamp(id + 1))};
        charged += static_cast<std::uint64_t>(cfg_.successor_list_size);
      }
    }
    n.set_successor_list(std::move(list));

    // 2. Ask successor for its predecessor; adopt if it sits between us.
    const RingId succ_id = *n.successor();
    ChordNode& succ = node(succ_id == id ? id : succ_id);
    charged += kRpcCost;
    if (auto p = succ.predecessor();
        p && has_node(*p) && *p != id &&
        space_.in_interval_oo(*p, id, succ.id())) {
      auto nl = n.successor_list();
      nl.insert(nl.begin(), *p);
      n.set_successor_list(std::move(nl));
    }

    // 3. Notify our (possibly new) successor.
    ChordNode& cur_succ = node(*n.successor());
    if (auto cp = cur_succ.predecessor();
        !cp || !has_node(*cp) ||
        space_.in_interval_oo(id, *cp, cur_succ.id())) {
      cur_succ.set_predecessor(id);
    }
    charged += 1;

    // 4. Refresh successor list from successor's list.
    {
      auto nl = n.successor_list();
      nl.resize(1);
      for (RingId s : node(nl.front()).successor_list()) {
        if (s != id &&
            static_cast<int>(nl.size()) < cfg_.successor_list_size &&
            has_node(s))
          nl.push_back(s);
      }
      n.set_successor_list(std::move(nl));
    }

    // 5. Fix one finger per round (classic Chord pacing).
    const RingId target = space_.add_pow2(id, finger_to_fix);
    const RouteResult rr = lookup_now(id, target, "dht.fix_finger");
    n.set_finger(finger_to_fix, rr.owner);
    charged += static_cast<std::uint64_t>(rr.hops);

    // Prune fingers through dead nodes.
    for (int i = 0; i < cfg_.id_bits; ++i) {
      const auto& f = n.fingers()[static_cast<std::size_t>(i)];
      if (f && !has_node(*f)) n.set_finger(i, std::nullopt);
    }
  }
  net_.metrics().count("dht.stabilize_rounds");
  net_.metrics().count("dht.maintenance.msgs", charged);
  return charged;
}

ChordNetwork ChordNetwork::build(net::Transport& net, std::size_t n, Config cfg) {
  ChordNetwork dht(net, cfg);
  if (n == 0) return dht;
  // Instantiate all nodes, then compute exact steady-state links globally.
  for (std::size_t i = 0; i < n; ++i) {
    const auto endpoint = static_cast<sim::EndpointId>(i + 1);
    dht.add_node(std::make_unique<ChordNode>(dht.unique_ring_id(endpoint),
                                             endpoint, cfg.id_bits));
  }
  const auto& ring = dht.nodes();
  for (const auto& [id, _] : ring) {
    ChordNode& nd = dht.node(id);
    // Successor list: next k nodes clockwise.
    std::vector<RingId> slist;
    auto it = ring.upper_bound(id);
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(cfg.successor_list_size), ring.size() - 1);
    while (slist.size() < want) {
      if (it == ring.end()) it = ring.begin();
      if (it->first == id) break;
      slist.push_back(it->first);
      ++it;
    }
    if (slist.empty()) slist = {id};
    nd.set_successor_list(std::move(slist));
    // Predecessor: previous node counterclockwise.
    auto pit = ring.find(id);
    if (pit == ring.begin()) pit = ring.end();
    --pit;
    nd.set_predecessor(pit->first == id ? std::optional<RingId>{id}
                                        : std::optional<RingId>{pit->first});
    dht.fix_all_fingers(nd, /*charge=*/false);
  }
  return dht;
}

RingId ChordNetwork::owner_of(RingId key) const {
  if (size() == 0) throw std::logic_error("owner_of: empty ring");
  key = space_.clamp(key);
  const auto& ring = nodes();
  auto it = ring.lower_bound(key);  // first id >= key (successor)
  if (it == ring.end()) it = ring.begin();
  return it->first;
}

std::vector<RingId> ChordNetwork::replica_targets(RingId owner,
                                                  int count) const {
  std::vector<RingId> targets;
  for (RingId s : node(owner).successor_list()) {
    if (static_cast<int>(targets.size()) >= count) break;
    if (s == owner || !has_node(s)) continue;
    targets.push_back(s);
  }
  return targets;
}

std::optional<Overlay::Hop> ChordNetwork::next_hop(const OverlayNode& state,
                                                   RingId key) const {
  const auto& at = static_cast<const ChordNode&>(state);
  // First live entry of the successor list (dead entries model timeouts).
  std::optional<RingId> succ;
  for (RingId s : at.successor_list()) {
    if (has_node(s)) {
      succ = s;
      break;
    }
  }
  if (!succ || *succ == at.id()) return std::nullopt;  // alone: we own it
  // Ownership shortcut, valid only while the predecessor link is live.
  if (auto pred = at.predecessor();
      pred && *pred != at.id() && has_node(*pred) &&
      space_.in_interval_oc(key, *pred, at.id()))
    return std::nullopt;
  // The predecessor decides: key in (us, successor] => successor owns it.
  if (space_.in_interval_oc(key, at.id(), *succ))
    return Hop{*succ, /*final=*/true};
  if (auto cp = at.closest_preceding(
          key, space_, [this](RingId x) { return has_node(x); }))
    return Hop{*cp, /*final=*/false};
  return Hop{*succ, /*final=*/false};  // fallback: walk the ring
}

void ChordNetwork::fix_all_fingers(ChordNode& n, bool charge) {
  for (int i = 0; i < cfg_.id_bits; ++i) {
    const RingId target = space_.add_pow2(n.id(), i);
    if (charge) {
      const RouteResult r = lookup_now(n.id(), target, "dht.fix_finger");
      n.set_finger(i, r.owner);
    } else {
      n.set_finger(i, owner_of(target));
    }
  }
}

}  // namespace hkws::dht
