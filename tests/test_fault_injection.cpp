// Fault injection through each backend's own send path: the same
// net::FaultModel installed on the simulator (sim::Network) and on both
// socket runtimes (TcpTransport, UdpTransport) drops, duplicates and delays
// wire messages with the same semantics and the same accounting. The
// load-bearing properties, checked on every backend: a drop is never
// delivered (nor written) but is fully accounted — sent + lost +
// net.dropped.fault, observer lost = true; numbering starts at the install
// and skips local and unregistered sends; a delayed message is held by the
// backend's scheduler; and the identities net.messages == net.delivered +
// net.lost and net.lost == net.dropped.fault + net.dropped.conn close.
//
// These tests exercise real threads and sockets; the CI tsan job runs this
// binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/fault_model.hpp"
#include "net/tcp_transport.hpp"
#include "net/udp_transport.hpp"
#include "sim/network.hpp"
#include "torture/fault_plan.hpp"

namespace hkws::net {
namespace {

using namespace std::chrono_literals;
using torture::FaultEvent;
using torture::FaultInjector;
using torture::FaultKind;
using torture::FaultPlan;

constexpr auto kIdle = 5s;

/// Plan with explicit events (no seed derivation — tests pick their targets).
std::unique_ptr<FaultInjector> plan_of(std::vector<FaultEvent> events) {
  FaultPlan p;
  p.events = std::move(events);
  return std::make_unique<FaultInjector>(p);
}

enum class Kind { kSim, kTcp, kUdp };
constexpr Kind kBackends[] = {Kind::kSim, Kind::kTcp, Kind::kUdp};

const char* name_of(Kind k) {
  switch (k) {
    case Kind::kSim: return "sim";
    case Kind::kTcp: return "tcp";
    case Kind::kUdp: return "udp";
  }
  return "?";
}

/// One backend under test, driven through the Transport interface.
struct Backend {
  explicit Backend(Kind k) {
    if (k == Kind::kSim)
      simnet = std::make_unique<sim::Network>(clock);
    else if (k == Kind::kTcp)
      sock = std::make_unique<TcpTransport>();
    else
      sock = std::make_unique<UdpTransport>();
  }

  Transport& t() {
    return sock != nullptr ? static_cast<Transport&>(*sock) : *simnet;
  }

  void install(std::unique_ptr<FaultModel> model) {
    if (sock != nullptr)
      sock->set_fault_model(std::move(model), 1);
    else
      simnet->set_fault_model(std::move(model));
  }

  /// Runs every pending delivery: the sim queue dry, or the socket runtime
  /// to idle.
  void settle() {
    if (sock != nullptr)
      ASSERT_TRUE(sock->wait_idle(kIdle));
    else
      clock.run();
  }

  std::uint64_t counter(const std::string& key) {
    return t().metrics().counter(key);
  }

  /// The conservation and drop-attribution identities.
  void expect_identities() {
    EXPECT_EQ(counter("net.messages"),
              counter("net.delivered") + counter("net.lost"));
    EXPECT_EQ(counter("net.lost"),
              counter("net.dropped.fault") + counter("net.dropped.conn"));
  }

  sim::EventQueue clock;
  std::unique_ptr<sim::Network> simnet;
  std::unique_ptr<SocketTransport> sock;
};

/// Records the (seq, kind) of every message it inspects; never faults.
class Recorder final : public FaultModel {
 public:
  explicit Recorder(std::vector<std::pair<std::uint64_t, std::string>>* log)
      : log_(log) {}
  FaultActions inspect(EndpointId, EndpointId, const std::string& kind,
                       std::uint64_t seq, Rng&) override {
    log_->emplace_back(seq, kind);
    return {};
  }

 private:
  std::vector<std::pair<std::uint64_t, std::string>>* log_;
};

// Before a model is installed nothing is numbered or inspected; after
// set_fault_model(nullptr) sends pass through again.
TEST(FaultTransport, UnarmedPassesThroughUninspected) {
  for (const Kind k : kBackends) {
    SCOPED_TRACE(name_of(k));
    Backend b(k);
    b.t().register_endpoint(1);
    b.t().register_endpoint(2);
    std::atomic<int> ran{0};
    b.t().send(1, 2, "kws.t_query", 64, [&] { ++ran; });  // unarmed
    b.settle();
    b.install(plan_of({{FaultKind::kDrop, 0, 0}}));
    b.t().send(1, 2, "kws.t_query", 64, [&] { ++ran; });  // seq 0: dropped
    b.settle();
    b.install(nullptr);
    b.t().send(1, 2, "kws.t_query", 64, [&] { ++ran; });  // disarmed
    b.settle();
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(b.counter("net.lost"), 1u);
    b.expect_identities();
  }
}

TEST(FaultTransport, DropIsAccountedAndNeverWritten) {
  for (const Kind k : kBackends) {
    SCOPED_TRACE(name_of(k));
    Backend b(k);
    b.t().register_endpoint(1);
    b.t().register_endpoint(2);
    std::mutex mu;
    std::vector<SendRecord> seen;
    b.t().set_send_observer([&](const std::string&, const SendRecord& r) {
      std::lock_guard<std::mutex> lk(mu);
      seen.push_back(r);
    });
    b.install(plan_of({{FaultKind::kDrop, 0, 0}}));
    std::atomic<int> ran{0};
    b.t().send(1, 2, "kws.t_query", 64, [&] { ++ran; });  // seq 0: dropped
    b.settle();
    EXPECT_EQ(b.counter("net.wire_bytes"), 0u);  // no frame written
    b.t().send(1, 2, "kws.t_query", 64, [&] { ++ran; });  // seq 1: clean
    b.settle();
    if (k != Kind::kSim) EXPECT_GT(b.counter("net.wire_bytes"), 0u);
    EXPECT_EQ(ran.load(), 1);
    // Both count as sent; exactly one as lost, attributed to fault
    // injection. The per-kind drop family counts unregistered discards
    // only.
    EXPECT_EQ(b.counter("net.messages"), 2u);
    EXPECT_EQ(b.counter("net.bytes"), 128u);
    EXPECT_EQ(b.counter("msg.kws.t_query"), 2u);
    EXPECT_EQ(b.counter("net.lost"), 1u);
    EXPECT_EQ(b.counter("net.lost.kws.t_query"), 1u);
    EXPECT_EQ(b.counter("net.dropped.fault"), 1u);
    EXPECT_EQ(b.counter("net.dropped.kws.t_query"), 0u);
    EXPECT_EQ(b.counter("net.delivered"), 1u);
    b.expect_identities();
    b.t().set_send_observer(nullptr);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_TRUE(seen[0].lost);
    EXPECT_EQ(seen[0].bytes, 64u);
    EXPECT_FALSE(seen[1].lost);
  }
}

// Each copy is a wire message of its own; on the socket backends each
// closure copy is parked under its own message id, so no copy is a stray.
TEST(FaultTransport, DuplicateDeliversExtraCopies) {
  for (const Kind k : kBackends) {
    SCOPED_TRACE(name_of(k));
    Backend b(k);
    b.t().register_endpoint(1);
    b.t().register_endpoint(2);
    b.install(plan_of({{FaultKind::kDuplicate, 0, 0},
                       {FaultKind::kDuplicate, 0, 0}}));
    std::atomic<int> ran{0};
    b.t().send(1, 2, "kws.results", 32, [&] { ++ran; });
    b.settle();
    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(b.counter("net.dup"), 2u);
    EXPECT_EQ(b.counter("net.messages"), 3u);  // three real sends
    EXPECT_EQ(b.counter("msg.kws.results"), 3u);
    EXPECT_EQ(b.counter("net.delivered"), 3u);
    EXPECT_EQ(b.counter("net.stray"), 0u);
    b.expect_identities();
  }
}

// The delay rides the backend's own scheduler: the sim event queue, or the
// socket strand's, whose pending events wait_idle() counts — so the
// socket runtime cannot report idle before the delayed message lands.
TEST(FaultTransport, DelayDefersThroughTheBackendScheduler) {
  constexpr Time kDelay = 300;
  for (const Kind k : kBackends) {
    SCOPED_TRACE(name_of(k));
    Backend b(k);
    b.t().register_endpoint(1);
    b.t().register_endpoint(2);
    b.install(plan_of({{FaultKind::kDelay, 0, kDelay}}));
    std::atomic<int> ran{0};
    const auto sent = std::chrono::steady_clock::now();
    b.t().send(1, 2, "kws.t_cont", 16, [&] { ++ran; });
    if (k == Kind::kSim) {
      b.clock.run_until(kDelay - 10);
      EXPECT_EQ(ran.load(), 0);  // still held behind the delay spike
    }
    b.settle();
    EXPECT_EQ(ran.load(), 1);
    if (k != Kind::kSim)
      EXPECT_GE(std::chrono::steady_clock::now() - sent,
                b.sock->tick() * kDelay);
    EXPECT_EQ(b.counter("net.delayed"), 1u);
    EXPECT_EQ(b.counter("net.delivered"), 1u);
    b.expect_identities();
  }
}

// Numbering starts at the install and skips local and unregistered sends.
// A payload send to an endpoint of this process is numbered once, as the
// wire send it becomes.
TEST(FaultTransport, LocalAndUnregisteredSendsAreNotNumbered) {
  for (const Kind k : kBackends) {
    SCOPED_TRACE(name_of(k));
    Backend b(k);
    b.t().register_endpoint(1);
    b.t().register_endpoint(2);
    b.t().send(1, 2, "dolr.insert", 8, [] {});  // before the install
    b.settle();
    std::vector<std::pair<std::uint64_t, std::string>> log;
    b.install(std::make_unique<Recorder>(&log));
    std::atomic<int> ran{0};
    b.t().send(1, 1, "kws.pin", 8, [&] { ++ran; });     // local
    b.t().send(1, 99, "dolr.read", 8, [&] { ++ran; });  // unregistered
    b.t().send(1, 2, "kws.t_query", 8, [&] { ++ran; });
    b.t().send_payload(2, 1, MsgKind::kKwsTCont,
                       WireMessage{ControlMsg{5, 9, 2, false}});
    b.settle();
    b.install(nullptr);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(log, (std::vector<std::pair<std::uint64_t, std::string>>{
                       {0, "kws.t_query"}, {1, "kws.t_cont"}}));
    EXPECT_EQ(b.counter("net.local"), 1u);
    EXPECT_EQ(b.counter("net.dropped.unregistered"), 1u);
    EXPECT_EQ(b.counter("net.dropped.dolr.read"), 1u);

    // With a drop planned at seq 0, the local and unregistered sends pass
    // and the first wire send after the re-install is the one lost.
    b.install(plan_of({{FaultKind::kDrop, 0, 0}}));
    b.t().send(1, 1, "kws.pin", 8, [&] { ++ran; });
    b.t().send(1, 99, "dolr.read", 8, [&] { ++ran; });
    b.t().send(1, 2, "kws.t_query", 8, [&] { ++ran; });  // seq 0: dropped
    b.settle();
    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(b.counter("net.dropped.fault"), 1u);
    b.expect_identities();
  }
}

TEST(FaultPlanPartition, PackRoundTripsAndSidesBisect) {
  const std::uint64_t arg = FaultEvent::pack_partition(700, 5);
  EXPECT_EQ(FaultEvent::partition_span(arg), 700u);
  EXPECT_EQ(FaultEvent::partition_bit(arg), 5u);
  // The bisection is a pure function of (endpoint, bit) and non-trivial:
  // over a modest endpoint range both sides must be populated.
  int side_a = 0, side_b = 0;
  for (EndpointId ep = 1; ep <= 64; ++ep)
    (torture::partition_side(ep, 5) ? side_a : side_b)++;
  EXPECT_GT(side_a, 0);
  EXPECT_GT(side_b, 0);
}

TEST(FaultPlanPartition, CutDropsCrossingLossableTrafficThenHeals) {
  // Cut spans wire seqs [0, 4); find an endpoint pair straddling the cut.
  EndpointId left = 0, right = 0;
  for (EndpointId ep = 1; ep <= 64 && (left == 0 || right == 0); ++ep)
    (torture::partition_side(ep, 3) ? left : right) = ep;
  ASSERT_NE(left, 0u);
  ASSERT_NE(right, 0u);

  for (const Kind k : kBackends) {
    SCOPED_TRACE(name_of(k));
    Backend b(k);
    b.t().register_endpoint(left);
    b.t().register_endpoint(right);
    b.install(plan_of(
        {{FaultKind::kPartition, 0, FaultEvent::pack_partition(4, 3)}}));
    std::atomic<int> ran{0};
    Transport& t = b.t();
    // seq 0: lossable, crosses the cut -> dropped.
    t.send(left, right, "kws.t_query", 8, [&] { ++ran; });
    // seq 1: crosses the cut but is not loss-tolerant -> passes (the
    // protocol cannot survive losing it, so the injector never cuts it).
    t.send(left, right, "dolr.insert", 8, [&] { ++ran; });
    // seq 2: lossable, crosses -> dropped.
    t.send(right, left, "kws.results", 8, [&] { ++ran; });
    t.send(left, left, "kws.t_query", 8, [&] { ++ran; });  // local, unnumbered
    t.send(right, left, "maint.ack", 8, [&] { ++ran; });   // seq 3, crossing
    // seq 4: the cut healed -> passes.
    t.send(left, right, "kws.t_query", 8, [&] { ++ran; });
    b.settle();
    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(b.counter("net.dropped.fault"), 3u);
    b.expect_identities();
  }
}

// Installing and removing models while several threads send: the hook's
// armed flag, model, Rng and numbering must be race-free (the CI tsan job
// runs this binary), and every send is either delivered or a counted
// fault loss.
TEST(FaultTransport, InstallsRaceConcurrentSendersSafely) {
  for (const Kind k : {Kind::kTcp, Kind::kUdp}) {
    SCOPED_TRACE(name_of(k));
    Backend b(k);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 100;
    for (EndpointId id = 1; id <= kThreads + 1; ++id)
      b.t().register_endpoint(id);
    std::atomic<int> ran{0};
    std::vector<std::thread> senders;
    for (int i = 0; i < kThreads; ++i) {
      senders.emplace_back([&b, &ran, i] {
        for (int j = 0; j < kPerThread; ++j)
          b.t().send(static_cast<EndpointId>(i + 1), kThreads + 1,
                     "kws.t_query", 32, [&ran] { ++ran; });
      });
    }
    for (int round = 0; round < 20; ++round) {
      b.install(std::make_unique<BernoulliDrop>(0.5));
      std::this_thread::yield();
      b.install(nullptr);
    }
    for (std::thread& th : senders) th.join();
    b.settle();
    EXPECT_EQ(b.counter("net.messages"),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(b.counter("net.delivered"), static_cast<std::uint64_t>(ran));
    EXPECT_EQ(b.counter("net.lost"), b.counter("net.dropped.fault"));
    b.expect_identities();
  }
}

// The identities close over the real runtime with closure and
// cross-process payload traffic mixed: the dropped frames never touch a
// socket, the delivered ones do.
TEST(FaultTransport, DropAccountingClosesOverTcp) {
  TcpTransport a;
  TcpTransport peer;
  a.register_endpoint(1);
  a.register_endpoint(2);
  peer.register_endpoint(3);
  ASSERT_TRUE(a.set_peer_address(3, PeerAddr{"127.0.0.1", peer.port()}));
  std::atomic<int> got{0};
  peer.set_payload_handler(
      [&got](EndpointId, EndpointId, MsgKind, const WireMessage&) { ++got; });
  a.set_fault_model(
      plan_of({{FaultKind::kDrop, 1, 0}, {FaultKind::kDrop, 4, 0}}));
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) {
    a.send(1, 2, "kws.t_query", 64, [&] { ++ran; });  // seqs 0, 2, 4
    a.send_payload(1, 3, MsgKind::kKwsTCont,          // seqs 1, 3, 5
                   WireMessage{ControlMsg{5, 9, 2, false}});
  }
  ASSERT_TRUE(a.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(a.metrics().counter("net.messages"), 6u);
  EXPECT_EQ(a.metrics().counter("net.delivered"), 4u);
  EXPECT_EQ(a.metrics().counter("net.lost"), 2u);
  EXPECT_EQ(a.metrics().counter("net.lost.kws.t_query"), 1u);
  EXPECT_EQ(a.metrics().counter("net.lost.kws.t_cont"), 1u);
  EXPECT_EQ(a.metrics().counter("net.dropped.fault"), 2u);
  EXPECT_EQ(a.metrics().counter("net.remote.out"), 3u);
  EXPECT_EQ(a.metrics().counter("net.messages"),
            a.metrics().counter("net.delivered") +
                a.metrics().counter("net.lost"));
  const auto until = std::chrono::steady_clock::now() + kIdle;
  while (got.load() < 2 && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  EXPECT_EQ(got.load(), 2);
  ASSERT_TRUE(peer.wait_idle(kIdle));
  EXPECT_EQ(peer.metrics().counter("net.remote.in"), 2u);
}

// A delayed, duplicated cross-process payload send rides the sender's
// strand scheduler: the sender's wait_idle() returns only once both copies
// were written, and the receiving process gets both.
TEST(FaultTransport, DelayedRedeliveryIsCoveredByTcpWaitIdle) {
  TcpTransport a;
  TcpTransport peer;
  a.register_endpoint(1);
  peer.register_endpoint(2);
  ASSERT_TRUE(a.set_peer_address(2, PeerAddr{"127.0.0.1", peer.port()}));
  std::mutex mu;
  std::condition_variable cv;
  int got = 0;
  peer.set_payload_handler(
      [&](EndpointId, EndpointId, MsgKind, const WireMessage&) {
        std::lock_guard<std::mutex> lk(mu);
        ++got;
        cv.notify_all();
      });
  a.set_fault_model(plan_of(
      {{FaultKind::kDelay, 0, 80}, {FaultKind::kDuplicate, 0, 0}}));
  a.send_payload(1, 2, MsgKind::kKwsResults, WireMessage{HitsMsg{}});
  ASSERT_TRUE(a.wait_idle(kIdle));
  EXPECT_EQ(a.metrics().counter("net.delayed"), 1u);
  EXPECT_EQ(a.metrics().counter("net.dup"), 1u);
  EXPECT_EQ(a.metrics().counter("net.messages"), 2u);
  EXPECT_EQ(a.metrics().counter("net.delivered"), 2u);
  std::unique_lock<std::mutex> lk(mu);
  EXPECT_TRUE(cv.wait_for(lk, kIdle, [&] { return got == 2; }));
}

}  // namespace
}  // namespace hkws::net
