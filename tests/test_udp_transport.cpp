// UdpTransport runtime tests: datagram delivery through a real loopback
// socket, seeded loss through the transport's fault hook, and the
// accounting identities the torture harness enforces —
// net.messages == net.delivered + net.lost with every loss attributed to
// exactly one cause counter.
//
// These tests exercise real threads and sockets; the CI tsan job runs this
// binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "net/fault_model.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"

namespace hkws::net {
namespace {

using namespace std::chrono_literals;

constexpr auto kIdle = 5s;  // generous; loopback settles in milliseconds

std::uint64_t counter(const UdpTransport& t, const std::string& key) {
  return t.metrics().counter(key);
}

TEST(UdpTransport, WireSendDeliversThroughDatagramAndCounts) {
  UdpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::atomic<int> ran{0};
  t.send(1, 1, "kws.pin", 8, [&ran] { ++ran; });  // local: free
  t.send(1, 2, "kws.t_query", 200, [&ran] { ++ran; });
  t.send(1, 99, "dolr.read", 32, [&ran] { ++ran; });  // unregistered
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(counter(t, "net.local"), 1u);
  EXPECT_EQ(counter(t, "net.messages"), 1u);
  EXPECT_EQ(counter(t, "net.bytes"), 200u);
  EXPECT_EQ(counter(t, "msg.kws.t_query"), 1u);
  EXPECT_EQ(counter(t, "net.delivered"), 1u);
  EXPECT_EQ(counter(t, "net.dropped"), 1u);
  EXPECT_EQ(counter(t, "net.dropped.unregistered"), 1u);
  EXPECT_GT(counter(t, "net.wire_bytes"), 0u);
  EXPECT_EQ(t.decode_errors(), 0u);
}

// The headline property: under seeded Bernoulli loss the conservation
// identity closes exactly, every loss attributed to fault injection
// (net.dropped.fault) — and packet loss is never reported as peer death.
TEST(UdpTransport, SeededLossIsAttributedAndConserved) {
  UdpTransport t;
  t.set_fault_model(std::make_unique<BernoulliDrop>(0.3), 42);
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::atomic<int> peer_down{0};
  t.set_peer_down_observer([&peer_down](EndpointId) { ++peer_down; });

  constexpr std::uint64_t kSends = 200;
  std::atomic<std::uint64_t> ran{0};
  for (std::uint64_t i = 0; i < kSends; ++i)
    t.send(1, 2, "kws.t_query", 64, [&ran] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));

  const std::uint64_t delivered = counter(t, "net.delivered");
  const std::uint64_t lost = counter(t, "net.lost");
  EXPECT_EQ(counter(t, "net.messages"), kSends);
  EXPECT_EQ(delivered + lost, kSends);  // conservation closes exactly
  EXPECT_EQ(ran.load(), delivered);     // a lost frame never runs its handler
  EXPECT_GT(lost, 0u);                  // 30% of 200: the model really fired
  EXPECT_GT(delivered, 0u);
  // Attribution: every loss is the fault model's, none a connection death.
  EXPECT_EQ(counter(t, "net.dropped.fault"), lost);
  EXPECT_EQ(counter(t, "net.dropped.conn"), 0u);
  EXPECT_EQ(counter(t, "net.lost.kws.t_query"), lost);
  EXPECT_EQ(peer_down.load(), 0);  // packet loss is not peer death
}

// Two identically-seeded instances lose exactly the same frames: the fault
// model is deterministic, so loss-recovery tests are reproducible.
TEST(UdpTransport, SeededLossIsDeterministic) {
  std::vector<std::uint64_t> lost_counts;
  for (int run = 0; run < 2; ++run) {
    UdpTransport t;
    t.set_fault_model(std::make_unique<BernoulliDrop>(0.25), 7);
    t.register_endpoint(1);
    t.register_endpoint(2);
    for (int i = 0; i < 100; ++i) t.send(1, 2, "dolr.insert", 16, [] {});
    ASSERT_TRUE(t.wait_idle(kIdle));
    lost_counts.push_back(counter(t, "net.lost"));
  }
  EXPECT_EQ(lost_counts[0], lost_counts[1]);
  EXPECT_GT(lost_counts[0], 0u);
}

// The fault model decides send by send inside one strand turn: the dropped
// frames are never written and count net.dropped.fault, the rest go out as
// one run and are delivered, and the same seed drops the same frames again.
TEST(UdpTransport, SeededLossInOneRunIsAttributedPerFrame) {
  constexpr int kN = 100;
  std::vector<std::vector<bool>> lost_flags;
  for (int run = 0; run < 2; ++run) {
    UdpTransport t;
    t.set_fault_model(std::make_unique<BernoulliDrop>(0.3), 11);
    t.register_endpoint(1);
    t.register_endpoint(2);
    std::mutex mu;
    std::vector<bool> flags;
    t.set_send_observer([&](const std::string&, const SendRecord& rec) {
      std::lock_guard<std::mutex> lk(mu);
      flags.push_back(rec.lost);
    });
    std::atomic<std::uint64_t> ran{0};
    t.schedule_in(0, [&] {
      for (int i = 0; i < kN; ++i)
        t.send(1, 2, "kws.t_query", 64, [&ran] { ++ran; });
    });
    ASSERT_TRUE(t.wait_idle(kIdle));
    const std::uint64_t lost = counter(t, "net.lost");
    EXPECT_GT(lost, 0u);
    EXPECT_LT(lost, std::uint64_t{kN});
    EXPECT_EQ(counter(t, "net.dropped.fault"), lost);
    EXPECT_EQ(counter(t, "net.dropped.conn"), 0u);
    EXPECT_EQ(counter(t, "net.delivered"), kN - lost);
    EXPECT_EQ(ran.load(), kN - lost);
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(flags.size(), std::size_t{kN});
    EXPECT_EQ(static_cast<std::uint64_t>(
                  std::count(flags.begin(), flags.end(), true)),
              lost);
    lost_flags.push_back(flags);
  }
  EXPECT_EQ(lost_flags[0], lost_flags[1]);
}

// set_fault_model() arms loss at runtime and nullptr disarms it: tests
// publish lossless, then arm loss for the query phase (UDP gives no
// ordering guarantee, so this is the supported way to keep the publish
// phase intact).
TEST(UdpTransport, DropRateArmsAndDisarmsAtRuntime) {
  UdpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  for (int i = 0; i < 20; ++i) t.send(1, 2, "kws.insert", 32, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(counter(t, "net.lost"), 0u);  // disarmed: lossless

  t.set_fault_model(std::make_unique<BernoulliDrop>(1.0));  // certain loss
  for (int i = 0; i < 10; ++i) t.send(1, 2, "kws.t_query", 32, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(counter(t, "net.lost"), 10u);
  EXPECT_EQ(counter(t, "net.dropped.fault"), 10u);

  t.set_fault_model(nullptr);  // disarm again
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) t.send(1, 2, "kws.t_query", 32, [&ran] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(counter(t, "net.lost"), 10u);
  EXPECT_EQ(counter(t, "net.messages"),
            counter(t, "net.delivered") + counter(t, "net.lost"));
}

// The parked-handler sweep (shared SocketTransport base) reclaims a
// datagram the read side swallowed — the UDP analogue of kernel-side
// buffer loss. Without the sweep this wedges wait_idle forever.
TEST(UdpTransport, SweepReclaimsSwallowedDatagram) {
  UdpTransport::Config cfg;
  cfg.parked_ttl = std::chrono::milliseconds{100};
  UdpTransport t(cfg);
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.drop_inbound(1);
  std::atomic<int> ran{0};
  t.send(1, 2, "kws.t_query", 64, [&ran] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(counter(t, "net.lost"), 1u);
  EXPECT_EQ(counter(t, "net.dropped.conn"), 1u);  // wire death, not fault
  EXPECT_EQ(counter(t, "net.dropped.fault"), 0u);
  EXPECT_TRUE(t.drain_and_stop(2000ms));
}

// Cross-process payload delivery over datagrams, both directions, with the
// per-instance accounting split (sender: net.messages + net.delivered +
// net.remote.out; receiver: net.remote.in only).
TEST(UdpTransport, PayloadCrossesBetweenInstances) {
  UdpTransport a;
  UdpTransport b;
  a.register_endpoint(1);
  b.register_endpoint(2);
  ASSERT_TRUE(a.set_peer_address(2, PeerAddr{"127.0.0.1", b.port()}));
  ASSERT_TRUE(b.set_peer_address(1, PeerAddr{"127.0.0.1", a.port()}));

  std::mutex mu;
  std::condition_variable cv;
  std::vector<EntryMsg> at_b;
  std::vector<ControlMsg> at_a;
  b.set_payload_handler([&](EndpointId from, EndpointId to, MsgKind kind,
                            const WireMessage& msg) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(to, 2u);
    EXPECT_EQ(kind, MsgKind::kKwsInsert);
    at_b.push_back(std::get<EntryMsg>(msg));
    cv.notify_all();
  });
  a.set_payload_handler([&](EndpointId from, EndpointId to, MsgKind kind,
                            const WireMessage& msg) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(kind, MsgKind::kKwsTCont);
    at_a.push_back(std::get<ControlMsg>(msg));
    cv.notify_all();
  });

  const EntryMsg entry{314, {"peer", "to", "peer"}};
  a.send_payload(1, 2, MsgKind::kKwsInsert, WireMessage{entry});
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return !at_b.empty(); }));
    EXPECT_EQ(at_b.front(), entry);
  }
  const ControlMsg cont{314, 2, 1, false};
  b.send_payload(2, 1, MsgKind::kKwsTCont, WireMessage{cont});
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return !at_a.empty(); }));
    EXPECT_EQ(at_a.front(), cont);
  }
  ASSERT_TRUE(a.wait_idle(kIdle));
  ASSERT_TRUE(b.wait_idle(kIdle));

  EXPECT_EQ(counter(a, "net.messages"), 1u);
  EXPECT_EQ(counter(a, "net.delivered"), 1u);
  EXPECT_EQ(counter(a, "net.remote.out"), 1u);
  EXPECT_EQ(counter(a, "net.remote.in"), 1u);
  EXPECT_EQ(counter(a, "net.remote.in.kws.t_cont"), 1u);
  EXPECT_EQ(counter(b, "net.messages"), 1u);
  EXPECT_EQ(counter(b, "net.remote.in"), 1u);
  EXPECT_EQ(counter(b, "net.remote.in.kws.insert"), 1u);
  EXPECT_EQ(a.decode_errors(), 0u);
  EXPECT_EQ(b.decode_errors(), 0u);
}

// An armed fault model applies to cross-process payload frames too, and the
// sender's conservation identity still closes (the loss is the sender's).
TEST(UdpTransport, PayloadLossIsAccountedAtTheSender) {
  UdpTransport a;
  UdpTransport b;
  a.register_endpoint(1);
  b.register_endpoint(2);
  ASSERT_TRUE(a.set_peer_address(2, PeerAddr{"127.0.0.1", b.port()}));
  b.set_payload_handler([](EndpointId, EndpointId, MsgKind,
                           const WireMessage&) { FAIL() << "frame delivered"; });
  a.set_fault_model(std::make_unique<BernoulliDrop>(1.0));
  const EntryMsg entry{1, {"doomed"}};
  for (int i = 0; i < 5; ++i)
    a.send_payload(1, 2, MsgKind::kKwsInsert, WireMessage{entry});
  ASSERT_TRUE(a.wait_idle(kIdle));
  EXPECT_EQ(counter(a, "net.messages"), 5u);
  EXPECT_EQ(counter(a, "net.delivered"), 0u);
  EXPECT_EQ(counter(a, "net.lost"), 5u);
  EXPECT_EQ(counter(a, "net.dropped.fault"), 5u);
  EXPECT_EQ(counter(a, "net.remote.out"), 5u);
  ASSERT_TRUE(b.wait_idle(kIdle));
  EXPECT_EQ(counter(b, "net.remote.in"), 0u);
}

// A frame too large for one datagram cannot be carried: counted as a
// connection loss at send, conservation intact, no crash.
TEST(UdpTransport, OversizedPayloadFrameIsConnLoss) {
  UdpTransport a;
  UdpTransport b;
  a.register_endpoint(1);
  b.register_endpoint(2);
  ASSERT_TRUE(a.set_peer_address(2, PeerAddr{"127.0.0.1", b.port()}));
  EntryMsg huge;
  huge.object = 1;
  huge.keywords.assign(100, std::string(1024, 'k'));  // ~100 KB > kMaxDatagram
  a.send_payload(1, 2, MsgKind::kKwsInsert, WireMessage{huge});
  ASSERT_TRUE(a.wait_idle(kIdle));
  EXPECT_EQ(counter(a, "net.messages"), 1u);
  EXPECT_EQ(counter(a, "net.delivered"), 0u);
  EXPECT_EQ(counter(a, "net.lost"), 1u);
  EXPECT_EQ(counter(a, "net.dropped.conn"), 1u);
}

// stop() racing late sends: losses, not crashes (the shared lane-guard
// regression, pinned on the UDP backend too).
TEST(UdpTransport, SendAfterStopIsCountedLossNotCrash) {
  UdpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.stop();
  for (int i = 0; i < 4; ++i) t.send(1, 2, "kws.t_query", 16, [] {});
  EXPECT_EQ(counter(t, "net.messages"), 4u);
  EXPECT_EQ(counter(t, "net.lost"), 4u);
  EXPECT_EQ(counter(t, "net.dropped.conn"), 4u);
}

}  // namespace
}  // namespace hkws::net
