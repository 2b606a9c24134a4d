// Pins both overlays' routing in one digest per overlay. It folds in:
//  * ring-id placement of built, created and joined nodes at an 8-bit id
//    width, where endpoint hashes collide and ids are re-salted;
//  * lookup_now's (owner, hops) and route()'s (owner, hops, arrival tick)
//    for seeded (start, key) pairs after seeded joins, leaves and fails,
//    before and after link repair (stabilize_all / repair_all);
//  * both walks at a hop limit of 2, where dht.route_overflow fires;
//  * a route whose next node fails in flight and routes from dead origins;
//  * the counters those paths feed: net.messages, msg.<kind>,
//    dht.route_lost, dht.route_overflow, dht.failures and
//    dht.maintenance.msgs.
// Any change to placement, hop choice, hop timing or the walks' accounting
// moves the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "dht/pastry_network.hpp"

namespace hkws::dht {
namespace {

enum class Kind { kChord, kPastry };

/// 256 ids for at most ~75 peers: several endpoint hashes collide.
constexpr int kIdBits = 8;

/// FNV-1a, folded one value at a time (little-endian bytes).
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    u64(s.size());
  }
};

/// One overlay of either kind on its own seeded simulator, with the
/// membership operations each overlay defines for itself.
struct Ring {
  sim::EventQueue clock;
  sim::Network net{clock, std::make_unique<sim::UniformLatency>(1, 7), 11};
  std::unique_ptr<ChordNetwork> chord;
  std::unique_ptr<PastryNetwork> pastry;
  Overlay* overlay = nullptr;
  sim::EndpointId next_endpoint = 1;  ///< endpoints 1..next_endpoint-1 exist

  Ring(Kind kind, std::size_t built, int max_route_hops) {
    if (kind == Kind::kChord) {
      chord = std::make_unique<ChordNetwork>(ChordNetwork::build(
          net, built,
          {.id_bits = kIdBits, .successor_list_size = 3, .seed = 7,
           .max_route_hops = max_route_hops}));
      overlay = chord.get();
    } else {
      pastry = std::make_unique<PastryNetwork>(PastryNetwork::build(
          net, built,
          {.id_bits = kIdBits, .digit_bits = 2, .leaf_size = 4, .seed = 7,
           .max_route_hops = max_route_hops}));
      overlay = pastry.get();
    }
    next_endpoint = built + 1;
  }

  RingId create() {
    return chord ? chord->create_ring(next_endpoint++)
                 : pastry->create(next_endpoint++);
  }
  RingId join(sim::EndpointId bootstrap) {
    return chord ? chord->join(next_endpoint++, bootstrap)
                 : pastry->join(next_endpoint++, bootstrap);
  }
  void leave(sim::EndpointId endpoint) {
    chord ? chord->leave(endpoint) : pastry->leave(endpoint);
  }
  void fail(sim::EndpointId endpoint) {
    chord ? chord->fail(endpoint) : pastry->fail(endpoint);
  }
  std::uint64_t repair() {
    return chord ? chord->stabilize_all() : pastry->repair_all();
  }

  sim::EndpointId random_live_endpoint(Rng& rng) const {
    const auto ids = overlay->live_ids();
    return overlay->endpoint_of(ids[rng.next_below(ids.size())]);
  }
  std::uint64_t counter(const std::string& name) const {
    return net.metrics().counter(name);
  }
};

void fold_ids(const Ring& r, Fnv1a& d) {
  for (const RingId id : r.overlay->live_ids()) {
    d.u64(id);
    d.u64(r.overlay->endpoint_of(id));
  }
}

/// Synchronous walks from seeded live starts toward seeded keys. Keys are
/// drawn unclamped: both walks clamp them onto the ring.
void probe_lookups(Ring& r, Rng& rng, Fnv1a& d, int pairs) {
  const auto ids = r.overlay->live_ids();
  for (int i = 0; i < pairs; ++i) {
    const RingId start = ids[rng.next_below(ids.size())];
    const RingId key = rng.next_u64();
    const auto res = r.overlay->lookup_now(start, key, "dht.probe_lookup");
    d.u64(start);
    d.u64(res.owner);
    d.u64(static_cast<std::uint64_t>(res.hops));
  }
}

/// Routed messages from seeded origins, dead ones included (their routes
/// are dropped), folded in send order once the simulator drains.
void probe_routes(Ring& r, Rng& rng, Fnv1a& d, int pairs) {
  struct Arrival {
    RingId owner;
    int hops;
    net::Time tick;
  };
  std::vector<std::optional<Arrival>> arrivals(static_cast<std::size_t>(pairs));
  for (int i = 0; i < pairs; ++i) {
    const sim::EndpointId from = 1 + rng.next_below(r.next_endpoint - 1);
    const RingId key = rng.next_u64();
    r.overlay->route(from, key, "dht.probe_route",
                     16 + static_cast<std::size_t>(i),
                     [&r, &arrivals, i](const Overlay::RouteResult& res) {
                       arrivals[static_cast<std::size_t>(i)] =
                           Arrival{res.owner, res.hops, r.net.now()};
                     });
  }
  r.clock.run();
  for (const auto& a : arrivals) {
    if (!a) {
      d.u64(~0ULL);
      continue;
    }
    d.u64(a->owner);
    d.u64(static_cast<std::uint64_t>(a->hops));
    d.u64(a->tick);
  }
}

/// A seeded run of joins, leaves and fails that keeps at least `floor`
/// nodes live, folding what each operation returns or removes.
void churn(Ring& r, Rng& rng, Fnv1a& d, int steps, std::size_t floor) {
  for (int s = 0; s < steps; ++s) {
    const auto op = rng.next_below(3);
    const sim::EndpointId target = r.random_live_endpoint(rng);
    if (op == 0 || r.overlay->size() <= floor) {
      d.u64(r.join(target));
    } else if (op == 1) {
      r.leave(target);
      d.u64(target);
    } else {
      r.fail(target);
      d.u64(target);
    }
  }
  fold_ids(r, d);
}

/// Routes from a live origin toward the far side of the ring and fails the
/// first hop's target while the message is on the wire; then routes from
/// that dead endpoint. Neither route arrives; each counts dht.route_lost.
void lose_routes(Ring& r, Fnv1a& d) {
  const RingId start = r.overlay->live_ids().front();
  const RingId key = start + (RingId{1} << (kIdBits - 1));
  std::optional<sim::EndpointId> first_hop;
  r.net.set_send_observer(
      [&first_hop](const std::string& kind, const net::SendRecord& rec) {
        if (!first_hop && kind == "dht.probe_inflight") first_hop = rec.to;
      });
  bool arrived = false;
  r.overlay->route(r.overlay->endpoint_of(start), key, "dht.probe_inflight", 8,
                   [&arrived](const Overlay::RouteResult&) { arrived = true; });
  while (!first_hop && r.clock.step()) {
  }
  r.net.set_send_observer(nullptr);
  ASSERT_TRUE(first_hop.has_value());
  const std::uint64_t lost_before = r.counter("dht.route_lost");
  r.fail(*first_hop);
  r.clock.run();
  EXPECT_FALSE(arrived);
  EXPECT_EQ(r.counter("dht.route_lost"), lost_before + 1);

  r.overlay->route(*first_hop, key, "dht.probe_inflight", 8,
                   [&arrived](const Overlay::RouteResult&) { arrived = true; });
  r.clock.run();
  EXPECT_FALSE(arrived);
  EXPECT_EQ(r.counter("dht.route_lost"), lost_before + 2);
  d.u64(*first_hop);
}

void fold_counters(const Ring& r, Fnv1a& d) {
  for (const auto& [name, value] : r.net.metrics().counters()) {
    if (!name.starts_with("msg.")) continue;
    d.str(name);
    d.u64(value);
  }
  for (const char* name :
       {"net.messages", "dht.route_lost", "dht.route_overflow",
        "dht.failures", "dht.maintenance.msgs"}) {
    d.str(name);
    d.u64(r.counter(name));
  }
}

std::uint64_t routing_digest(Kind kind) {
  Fnv1a d;
  Rng rng(0x0b5e'55ed'2026'1020ULL);

  // A built ring under churn, probed before and after each repair.
  Ring built(kind, 48, 64);
  fold_ids(built, d);
  for (int round = 0; round < 3; ++round) {
    churn(built, rng, d, 9, 24);
    probe_lookups(built, rng, d, 40);
    probe_routes(built, rng, d, 40);
    d.u64(built.repair());
    probe_lookups(built, rng, d, 40);
    probe_routes(built, rng, d, 40);
  }
  lose_routes(built, d);
  fold_counters(built, d);

  // A ring grown from one node by joins, never repaired; the later joiners'
  // hashes also land on the ids of failed nodes.
  Ring grown(kind, 0, 64);
  d.u64(grown.create());
  for (int i = 0; i < 39; ++i)
    d.u64(grown.join(grown.random_live_endpoint(rng)));
  for (int i = 0; i < 30; ++i) grown.fail(grown.random_live_endpoint(rng));
  for (int i = 0; i < 30; ++i)
    d.u64(grown.join(grown.random_live_endpoint(rng)));
  probe_lookups(grown, rng, d, 40);
  probe_routes(grown, rng, d, 40);
  fold_counters(grown, d);

  // Both walks at a hop limit most routes exceed.
  Ring tight(kind, 48, 2);
  probe_lookups(tight, rng, d, 60);
  const std::uint64_t lookup_overflows = tight.counter("dht.route_overflow");
  EXPECT_GT(lookup_overflows, 0u);
  probe_routes(tight, rng, d, 60);
  EXPECT_GT(tight.counter("dht.route_overflow"), lookup_overflows);
  fold_counters(tight, d);
  return d.h;
}

class OverlayRouting : public ::testing::TestWithParam<Kind> {};

TEST_P(OverlayRouting, WalksMatchTheirPinnedDigest) {
  const std::uint64_t want =
      GetParam() == Kind::kChord ? 0x9bbb'21c8'760f'36b5ULL
                                   : 0x68a4'13fc'db86'1165ULL;
  const std::uint64_t got = routing_digest(GetParam());
  EXPECT_EQ(got, want) << std::hex << "got 0x" << got;
}

INSTANTIATE_TEST_SUITE_P(Overlays, OverlayRouting,
                         ::testing::Values(Kind::kChord, Kind::kPastry),
                         [](const auto& info) {
                           return info.param == Kind::kChord ? "Chord"
                                                             : "Pastry";
                         });

}  // namespace
}  // namespace hkws::dht
