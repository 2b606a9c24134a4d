// TcpTransport runtime tests: delivery over real loopback sockets, the
// dispatch strand's serialization guarantee, timers, and — the property the
// rest of the repo depends on — counter-for-counter accounting parity with
// the simulator backend for the same send sequence.
//
// These tests exercise real threads and sockets; the CI tsan job runs this
// binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "obs/trace.hpp"
#include "torture/fault_plan.hpp"

namespace hkws::net {
namespace {

using namespace std::chrono_literals;

constexpr auto kIdle = 5s;  // generous; loopback settles in milliseconds

TEST(TcpTransport, LocalSendIsFreeAndAsync) {
  TcpTransport t;
  t.register_endpoint(1);
  std::atomic<int> ran{0};
  t.send(1, 1, "kws.t_query", 64, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(t.metrics().counter("net.local"), 1u);
  EXPECT_EQ(t.metrics().counter("net.messages"), 0u);
  EXPECT_EQ(t.metrics().counter("net.bytes"), 0u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 0u);
}

TEST(TcpTransport, UnregisteredDestinationDrops) {
  TcpTransport t;
  t.register_endpoint(1);
  std::atomic<int> ran{0};
  t.send(1, 99, "dolr.read", 32, [&] { ++ran; });
  t.register_endpoint(2);
  t.unregister_endpoint(2);
  t.send(1, 2, "dolr.read", 32, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(t.metrics().counter("net.dropped"), 2u);
  EXPECT_EQ(t.metrics().counter("net.dropped.dolr.read"), 2u);
  EXPECT_EQ(t.metrics().counter("net.messages"), 0u);
}

TEST(TcpTransport, WireSendDeliversThroughSocketAndCounts) {
  TcpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::atomic<int> ran{0};
  t.send(1, 2, "kws.t_query", 200, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(t.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(t.metrics().counter("net.bytes"), 200u);
  EXPECT_EQ(t.metrics().counter("msg.kws.t_query"), 1u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 1u);
  EXPECT_GT(t.metrics().counter("net.wire_bytes"), 0u);  // real frames moved
  EXPECT_EQ(t.decode_errors(), 0u);
}

TEST(TcpTransport, OpaqueKindCrossesWire) {
  // Kinds without a registered wire id (ad-hoc maintenance pings) travel as
  // kOpaque envelopes carrying the label inline.
  TcpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::atomic<int> ran{0};
  t.send(1, 2, "maint.ping", 16, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(t.metrics().counter("msg.maint.ping"), 1u);
  EXPECT_EQ(t.decode_errors(), 0u);
}

TEST(TcpTransport, ObserverSeesEveryWireSend) {
  TcpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::mutex mu;
  std::vector<SendRecord> seen;
  t.set_send_observer([&](const std::string& kind, const SendRecord& rec) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(kind, "dolr.insert");
    seen.push_back(rec);
  });
  for (int i = 0; i < 5; ++i) t.send(1, 2, "dolr.insert", 48, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(seen.size(), 5u);
  for (const SendRecord& r : seen) {
    EXPECT_EQ(r.from, 1u);
    EXPECT_EQ(r.to, 2u);
    EXPECT_EQ(r.bytes, 48u);
    EXPECT_FALSE(r.lost);
  }
}

TEST(TcpTransport, HandlersAreSerializedOnTheStrand) {
  // Many threads send concurrently; handlers must never overlap (the
  // protocol state machines are not thread-safe — the strand is the
  // guarantee that lets them run unchanged on this backend).
  TcpTransport t;
  for (EndpointId id = 1; id <= 8; ++id) t.register_endpoint(id);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<int> ran{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> senders;
  for (int th = 0; th < kThreads; ++th) {
    senders.emplace_back([&, th] {
      for (int i = 0; i < kPerThread; ++i) {
        const EndpointId from = static_cast<EndpointId>(1 + th);
        const EndpointId to = static_cast<EndpointId>(5 + (i % 4));
        t.send(from, to, "kws.t_query", 64, [&] {
          const int now_inside = ++inside;
          int prev = max_inside.load();
          while (now_inside > prev &&
                 !max_inside.compare_exchange_weak(prev, now_inside)) {
          }
          std::this_thread::yield();
          --inside;
          ++ran;
        });
      }
    });
  }
  for (auto& th : senders) th.join();
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
  EXPECT_EQ(max_inside.load(), 1);  // strict serialization
  EXPECT_EQ(t.metrics().counter("net.messages"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.metrics().counter("net.delivered"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.decode_errors(), 0u);
}

TEST(TcpTransport, TimersFireInDeadlineOrderAndCancel) {
  TcpTransport t;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  auto mark = [&](int v) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(v);
    cv.notify_all();
  };
  t.set_timer(40, [&] { mark(3); });
  t.set_timer(10, [&] { mark(1); });
  const auto cancelled = t.set_timer(20, [&] { mark(99); });
  t.set_timer(25, [&] { mark(2); });
  EXPECT_TRUE(t.cancel_timer(cancelled));
  EXPECT_FALSE(t.cancel_timer(cancelled));  // already gone
  EXPECT_FALSE(t.cancel_timer(0));
  std::unique_lock<std::mutex> lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return order.size() >= 3; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TcpTransport, ScheduleInRunsOnStrandAndNowAdvances) {
  TcpTransport t;
  const Time t0 = t.now();
  std::atomic<bool> ran{false};
  t.schedule_in(5, [&] { ran = true; });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_TRUE(ran.load());
  EXPECT_GE(t.now(), t0 + 5);
}

TEST(TcpTransport, StopIsIdempotentAndJoins) {
  auto t = std::make_unique<TcpTransport>();
  t->register_endpoint(1);
  t->register_endpoint(2);
  t->send(1, 2, "kws.done", 8, [] {});
  t->wait_idle(kIdle);
  t->stop();
  t->stop();
  t.reset();  // destructor stops again: no crash, no double close
}

// The connection-death accounting fix. Before it, a frame hitting a dead
// wire vanished silently: counted sent, never delivered, never lost — the
// conservation identity net.messages == net.delivered + net.lost broke, and
// no liveness signal fired. Now the loss is positive: net.dropped.conn +
// net.lost(.kind), the observer sees SendRecord.lost = true, and the
// peer-down hook fires (once per endpoint) for the failure detector.
TEST(TcpTransport, ConnectionDeathIsAccountedAsLoss) {
  TcpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::mutex mu;
  std::vector<SendRecord> seen;
  t.set_send_observer([&](const std::string& kind, const SendRecord& rec) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(kind, "kws.t_query");
    seen.push_back(rec);
  });
  t.send(1, 2, "kws.t_query", 64, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));

  t.sever_wire();
  std::atomic<int> ran{0};
  t.send(1, 2, "kws.t_query", 64, [&] { ++ran; });
  t.send(2, 1, "kws.t_query", 64, [&] { ++ran; });
  ASSERT_TRUE(t.wait_idle(kIdle));

  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(t.metrics().counter("net.messages"), 3u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(t.metrics().counter("net.lost"), 2u);
  EXPECT_EQ(t.metrics().counter("net.lost.kws.t_query"), 2u);
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), 2u);
  // Conservation closes even across the wire's death.
  EXPECT_EQ(t.metrics().counter("net.messages"),
            t.metrics().counter("net.delivered") +
                t.metrics().counter("net.lost"));
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_FALSE(seen[0].lost);
  EXPECT_TRUE(seen[1].lost);
  EXPECT_TRUE(seen[2].lost);
}

TEST(TcpTransport, PeerDownObserverFiresOncePerEndpoint) {
  TcpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.register_endpoint(3);
  std::mutex mu;
  std::vector<EndpointId> down;
  t.set_peer_down_observer([&](EndpointId ep) {
    std::lock_guard<std::mutex> lk(mu);
    down.push_back(ep);
  });
  t.sever_wire();
  // Several frames into the same dead connection: one report per endpoint,
  // not a storm.
  for (int i = 0; i < 4; ++i) t.send(1, 2, "kws.t_query", 16, [] {});
  t.send(1, 3, "kws.t_query", 16, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  {
    std::lock_guard<std::mutex> lk(mu);
    std::vector<EndpointId> sorted = down;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<EndpointId>{2, 3}));
  }
  // Re-registration resets the once-latch: the peer "came back", so a new
  // death must be reported again.
  t.register_endpoint(2);
  t.send(1, 2, "kws.t_query", 16, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  std::lock_guard<std::mutex> lk(mu);
  EXPECT_EQ(down.size(), 3u);
  EXPECT_EQ(down.back(), 2u);
}

TEST(TcpTransport, DrainAndStopCompletesPendingWorkThenStops) {
  TcpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) t.send(1, 2, "kws.t_query", 64, [&] { ++ran; });
  t.schedule_in(3, [&] { ++ran; });
  EXPECT_TRUE(t.drain_and_stop(std::chrono::milliseconds{5000}));
  EXPECT_EQ(ran.load(), 21);
  // After stop, the runtime refuses new timers instead of leaking them.
  EXPECT_EQ(t.set_timer(10, [] {}), 0u);
  EXPECT_FALSE(t.cancel_timer(1));
}

// TSan stress for the timer table: concurrent set/cancel/schedule from many
// threads racing the dispatch strand that fires them, plus live_timer_count
// reads — every shared-state path in the scheduler under contention.
TEST(TcpTransport, TimerStressConcurrentSetCancelFire) {
  TcpTransport t;
  std::atomic<int> fired{0};
  std::atomic<int> cancelled{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> workers;
  for (int th = 0; th < kThreads; ++th) {
    workers.emplace_back([&, th] {
      for (int i = 0; i < kPerThread; ++i) {
        // Mix near-immediate timers (race the strand's firing) with far
        // ones that the same thread cancels; every other iteration also
        // posts a plain event and polls the live count.
        const auto id = t.set_timer(1 + (i % 7), [&] { ++fired; });
        if (i % 2 == 0) {
          const auto far = t.set_timer(1000000, [] {});
          if (t.cancel_timer(far)) ++cancelled;
        }
        if (i % 3 == 0) t.schedule_in(0, [&] { ++fired; });
        if (i % 5 == 0) (void)t.live_timer_count();
        if (i % 11 == th) (void)t.cancel_timer(id);
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(t.wait_idle(kIdle));
  // Every far timer the loop armed was cancelled; nothing may still be
  // pending except near timers that already fired.
  EXPECT_EQ(cancelled, kThreads * (kPerThread / 2));
  EXPECT_GT(fired.load(), 0);
  // Let any last near-deadline timers fire, then the count must be zero.
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  EXPECT_EQ(t.live_timer_count(), 0u);
}

// The parity oracle: the exact send sequence, replayed against every
// backend under the same fault plan — one drop, one duplicate and one
// delay — must run the same handlers and produce identical protocol-level
// counters, loss accounting included. (Wire-only counters — net.wire_bytes
// — are excluded: the simulator moves no frames.)
TEST(TransportParity, SimAndTcpCountIdentically) {
  struct Send {
    EndpointId from, to;
    const char* kind;
    std::size_t bytes;
  };
  const std::vector<Send> script = {
      {1, 2, "kws.t_query", 120}, {2, 1, "kws.t_cont", 17},
      {1, 1, "kws.results", 300}, {1, 42, "dolr.read", 32},  // 42 unregistered
      {2, 3, "maint.ping", 8},    {3, 2, "dolr.insert", 64},
      {1, 3, "kws.t_query", 120}, {3, 3, "kws.done", 8},
  };
  // Wire sends are numbered 0.. in script order, skipping the local and
  // unregistered ones: seq 0 kws.t_query, 1 kws.t_cont, 2 maint.ping.
  const auto plan = [] {
    torture::FaultPlan p;
    p.events = {{torture::FaultKind::kDrop, 0, 0},
                {torture::FaultKind::kDuplicate, 1, 0},
                {torture::FaultKind::kDelay, 2, 30}};
    return std::make_unique<torture::FaultInjector>(p);
  };
  const std::vector<std::string> keys = {
      "net.messages", "net.bytes",  "net.local",
      "net.dropped",  "net.dropped.dolr.read",
      "msg.kws.t_query", "msg.kws.t_cont", "msg.kws.results",
      "msg.maint.ping",  "msg.dolr.insert", "msg.kws.done",
      "net.lost", "net.lost.kws.t_query", "net.dropped.kws.t_query",
      "net.dropped.fault", "net.dup", "net.delayed",
      "net.delivered"};

  std::atomic<int> sim_ran{0};
  sim::EventQueue clock;
  sim::Network simnet(clock);
  for (EndpointId id = 1; id <= 3; ++id) simnet.register_endpoint(id);
  simnet.set_fault_model(plan());
  for (const Send& s : script)
    simnet.send(s.from, s.to, s.kind, s.bytes, [&] { ++sim_ran; });
  simnet.clock().run();
  EXPECT_EQ(sim_ran.load(), 7);  // 8 sends - drop - unregistered + dup
  EXPECT_EQ(simnet.metrics().counter("net.dropped.fault"), 1u);

  TcpTransport tcp;
  UdpTransport::Config ucfg;
  UdpTransport udp(ucfg);
  for (SocketTransport* sock : {static_cast<SocketTransport*>(&tcp),
                                static_cast<SocketTransport*>(&udp)}) {
    SCOPED_TRACE(sock == &tcp ? "tcp" : "udp");
    for (EndpointId id = 1; id <= 3; ++id) sock->register_endpoint(id);
    sock->set_fault_model(plan());
    std::atomic<int> ran{0};
    for (const Send& s : script)
      sock->send(s.from, s.to, s.kind, s.bytes, [&] { ++ran; });
    ASSERT_TRUE(sock->wait_idle(kIdle));
    EXPECT_EQ(ran.load(), sim_ran.load());
    for (const std::string& key : keys) {
      EXPECT_EQ(sock->metrics().counter(key), simnet.metrics().counter(key))
          << key;
    }
  }
}

// Both backends satisfy the same abstract interface; drive them through
// Transport& only, the way every protocol layer does.
TEST(TransportParity, PolymorphicUseThroughTheInterface) {
  sim::EventQueue clock;
  sim::Network simnet(clock);
  TcpTransport tcp;
  std::vector<Transport*> backends = {&simnet, &tcp};
  for (Transport* tr : backends) {
    tr->register_endpoint(7);
    EXPECT_TRUE(tr->is_registered(7));
    EXPECT_FALSE(tr->is_registered(8));
    std::atomic<int> ran{0};
    tr->send(7, 7, "kws.pin", 10, [&] { ++ran; });
    tr->schedule_in(1, [&] { ++ran; });
    const auto timer = tr->set_timer(1000000, [] {});
    EXPECT_TRUE(tr->cancel_timer(timer));
    if (tr == &simnet) {
      simnet.clock().run();
    } else {
      ASSERT_TRUE(tcp.wait_idle(kIdle));
    }
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(tr->metrics().counter("net.local"), 1u);
  }
}

// Satellite of the runtime work: the obs tracing hook is written against
// the Transport interface, so the same attach_network() instruments wire
// sends on either backend. (The sim side is covered in test_obs; this
// pins the socket side.)
TEST(TransportParity, ObsTracingAttachesToBothBackends) {
  obs::Tracer tracer;
  TcpTransport tcp;
  attach_network(tracer, tcp);  // through Transport&, not a concrete type
  tcp.register_endpoint(1);
  tcp.register_endpoint(2);
  tcp.send(1, 2, "kws.t_query", 64, [] {});
  tcp.send(2, 1, "kws.results", 32, [] {});
  ASSERT_TRUE(tcp.wait_idle(kIdle));
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].name, "kws.t_query");
  EXPECT_EQ(tracer.events()[1].name, "kws.results");
  EXPECT_EQ(tcp.metrics().counter("msg.kws.t_query"), 1u);
  EXPECT_EQ(tcp.metrics().counter("msg.kws.results"), 1u);
}

// --- Satellite regressions --------------------------------------------------

// Many threads sending at once, half of them from the same endpoint: every
// path a send takes — registration lookup, parked-handler table, counter
// slots, the fault hook's armed check, the off-strand run write — must be
// race-free. Run under TSan (the CI tsan job builds this binary).
TEST(TcpTransport, ConcurrentSendsFromManyThreadsAreRaceFree) {
  TcpTransport t;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  for (EndpointId id = 1; id <= kThreads + 1; ++id) t.register_endpoint(id);
  std::atomic<int> ran{0};
  std::vector<std::thread> senders;
  senders.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    senders.emplace_back([&t, &ran, i] {
      // Half the sends share endpoint 1 as the source — the exact shape of
      // the original race — and all target the same destination.
      const EndpointId from = (i % 2 == 0) ? 1 : static_cast<EndpointId>(i + 1);
      for (int j = 0; j < kPerThread; ++j)
        t.send(from, kThreads + 1, "kws.t_query", 32, [&ran] { ++ran; });
    });
  }
  for (std::thread& th : senders) th.join();
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
  EXPECT_EQ(t.metrics().counter("net.messages"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.metrics().counter("net.delivered"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.metrics().counter("net.lost"), 0u);
}

// Regression for the parked-handler leak: a frame that dies on the read
// side of the wire used to strand its parked entry forever — inflight_
// never decremented, so drain_and_stop() wedged until its timeout. The
// deadline sweep now reclaims the entry as a connection loss. Pre-fix,
// this test fails: wait_idle times out and net.dropped.conn stays 0.
TEST(TcpTransport, ParkedHandlerSweepReclaimsFramesDeadOnTheWire) {
  TcpTransport::Config cfg;
  cfg.parked_ttl = std::chrono::milliseconds{100};  // fast sweep for the test
  TcpTransport t(cfg);
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.drop_inbound(1);  // the io thread kills the next inbound frame
  std::atomic<int> ran{0};
  t.send(1, 2, "kws.t_query", 64, [&ran] { ++ran; });
  // The sweep must release the stranded slot well within the idle budget.
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 0);  // the handler was released, never executed
  EXPECT_EQ(t.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 0u);
  EXPECT_EQ(t.metrics().counter("net.lost"), 1u);
  EXPECT_EQ(t.metrics().counter("net.lost.kws.t_query"), 1u);
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), 1u);
  EXPECT_EQ(t.metrics().counter("net.dropped.fault"), 0u);
  // Conservation closes: the swallowed frame is attributed, not leaked.
  EXPECT_EQ(t.metrics().counter("net.messages"),
            t.metrics().counter("net.delivered") +
                t.metrics().counter("net.lost"));
  // A lost frame is packet death, not peer death: drain still succeeds.
  EXPECT_TRUE(t.drain_and_stop(std::chrono::milliseconds{2000}));
}

// Regression for the two-writer race on the counter registry: the io
// thread's parked-handler sweep counted its losses into the std::map that
// protocol code writes through metrics() on the strand. A strand handler
// keeps inserting counters through metrics() until the sweep's losses show
// up there, and the round repeats until the sweep certainly landed inside
// that loop. Under TSan (the CI tsan job) this reported a data race before
// the sweep's counts moved off the registry.
TEST(TcpTransport, SweepCountsLossesWhileTheStrandWritesMetrics) {
  TcpTransport::Config cfg;
  cfg.parked_ttl = std::chrono::milliseconds{50};
  TcpTransport t(cfg);
  t.register_endpoint(1);
  t.register_endpoint(2);
  constexpr std::uint64_t kPerRound = 200;
  std::uint64_t lost = 0;
  bool overlapped = false;  // written on the strand, read after wait_idle
  for (int round = 0; round < 10 && !overlapped; ++round) {
    lost += kPerRound;
    t.drop_inbound(kPerRound);  // every frame of the round dies on the wire
    for (std::uint64_t i = 0; i < kPerRound; ++i)
      t.send(1, 2, "kws.t_query", 16, [] {});
    t.schedule_in(0, [&t, &overlapped, lost] {
      const auto give_up = std::chrono::steady_clock::now() + 5s;
      const bool before_sweep = t.metrics().counter("net.lost") < lost;
      for (std::uint64_t i = 0; t.metrics().counter("net.lost") < lost &&
                                std::chrono::steady_clock::now() < give_up;
           ++i)
        t.metrics().count("strand." + std::to_string(i % 256));
      overlapped = before_sweep && t.metrics().counter("net.lost") == lost;
    });
    ASSERT_TRUE(t.wait_idle(kIdle));
  }
  EXPECT_TRUE(overlapped);
  EXPECT_EQ(t.metrics().counter("net.lost"), lost);
  EXPECT_EQ(t.metrics().counter("net.lost.kws.t_query"), lost);
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), lost);
  EXPECT_EQ(t.metrics().counter("net.messages"),
            t.metrics().counter("net.delivered") + lost);
}

// Regression for the lane-selection division by zero: send() racing stop()
// used to compute `round_robin_ % out_fds_.size()` after the lanes were
// torn down. Sends after stop must be counted losses, not crashes.
TEST(TcpTransport, SendAfterStopIsCountedLossNotCrash) {
  TcpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  t.send(1, 2, "kws.t_query", 16, [] {});
  ASSERT_TRUE(t.wait_idle(kIdle));
  t.stop();
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i)
    t.send(1, 2, "kws.t_query", 16, [&ran] { ++ran; });
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(t.metrics().counter("net.messages"), 9u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(t.metrics().counter("net.lost"), 8u);
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), 8u);
  EXPECT_EQ(t.metrics().counter("net.messages"),
            t.metrics().counter("net.delivered") +
                t.metrics().counter("net.lost"));
}

// --- Runs: the strand's end-of-turn write ------------------------------------

// The frames one strand turn sends queue in a run and go out together when
// the turn ends: nothing is written (or observed) inside the turn, and then
// every frame arrives, each with one truthful observer record.
TEST(TcpTransport, StrandTurnSendsGoOutAsOneRun) {
  TcpTransport t;
  constexpr int kN = 50;
  for (EndpointId id = 0; id <= kN; ++id) t.register_endpoint(id);
  std::mutex mu;
  std::vector<SendRecord> seen;
  t.set_send_observer([&](const std::string&, const SendRecord& rec) {
    std::lock_guard<std::mutex> lk(mu);
    seen.push_back(rec);
  });
  std::atomic<int> ran{0};
  std::size_t seen_in_turn = 0;
  t.schedule_in(0, [&] {
    for (EndpointId to = 1; to <= kN; ++to)
      t.send(0, to, "kws.t_query", 64, [&ran] { ++ran; });
    std::lock_guard<std::mutex> lk(mu);
    seen_in_turn = seen.size();
  });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(seen_in_turn, 0u);  // queued, not yet written
  EXPECT_EQ(ran.load(), kN);
  EXPECT_EQ(t.metrics().counter("net.messages"), std::uint64_t{kN});
  EXPECT_EQ(t.metrics().counter("net.delivered"), std::uint64_t{kN});
  EXPECT_EQ(t.metrics().counter("net.lost"), 0u);
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(seen.size(), std::size_t{kN});
  std::set<EndpointId> to;
  for (const SendRecord& r : seen) {
    EXPECT_FALSE(r.lost);
    to.insert(r.to);
  }
  EXPECT_EQ(to.size(), std::size_t{kN});  // one record per destination
}

// A run written into a dead connection is lost whole: every frame counts
// one net.dropped.conn loss and one lost observer record, its parked
// handler is released unrun, and each endpoint is reported down once.
TEST(TcpTransport, SeveredWireLosesEveryFrameOfAStrandRun) {
  TcpTransport t;
  for (EndpointId id = 1; id <= 4; ++id) t.register_endpoint(id);
  std::mutex mu;
  std::vector<SendRecord> seen;
  std::vector<EndpointId> down;
  t.set_send_observer([&](const std::string&, const SendRecord& rec) {
    std::lock_guard<std::mutex> lk(mu);
    seen.push_back(rec);
  });
  t.set_peer_down_observer([&](EndpointId ep) {
    std::lock_guard<std::mutex> lk(mu);
    down.push_back(ep);
  });
  t.sever_wire();
  constexpr int kN = 12;
  std::atomic<int> ran{0};
  t.schedule_in(0, [&] {
    for (int i = 0; i < kN; ++i)
      t.send(1, static_cast<EndpointId>(2 + i % 3), "kws.t_query", 64,
             [&ran] { ++ran; });
  });
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(t.metrics().counter("net.messages"), std::uint64_t{kN});
  EXPECT_EQ(t.metrics().counter("net.delivered"), 0u);
  EXPECT_EQ(t.metrics().counter("net.lost"), std::uint64_t{kN});
  EXPECT_EQ(t.metrics().counter("net.dropped.conn"), std::uint64_t{kN});
  EXPECT_EQ(t.metrics().counter("net.dropped.fault"), 0u);
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(seen.size(), std::size_t{kN});
  for (const SendRecord& r : seen) EXPECT_TRUE(r.lost);
  std::sort(down.begin(), down.end());
  EXPECT_EQ(down, (std::vector<EndpointId>{2, 3, 4}));
}

// One turn sending far more than a run's cap writes a run each time the
// cap is reached, while the io thread keeps reading: every frame arrives
// and nothing deadlocks, even past what the socket buffers hold.
TEST(TcpTransport, TurnPastTheRunCapIsDeliveredInFull) {
  TcpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  constexpr int kN = 2000;
  constexpr std::size_t kBytes = 4096;  // padded in full: ~8 MB in one turn
  static_assert(kN * kBytes > 64 * SocketTransport::kMaxRunBytes);
  std::atomic<int> ran{0};
  t.schedule_in(0, [&] {
    for (int i = 0; i < kN; ++i)
      t.send(1, 2, "kws.insert", kBytes, [&ran] { ++ran; });
  });
  ASSERT_TRUE(t.wait_idle(std::chrono::seconds{30}));
  EXPECT_EQ(ran.load(), kN);
  EXPECT_EQ(t.metrics().counter("net.delivered"), std::uint64_t{kN});
  EXPECT_EQ(t.metrics().counter("net.lost"), 0u);
  EXPECT_GT(t.metrics().counter("net.wire_bytes"), kN * kBytes);
  EXPECT_EQ(t.decode_errors(), 0u);
}

// wait_idle() must not report idle while the strand still holds frames in
// user space. Payload frames to another process count net.delivered, and
// reach the observer, when the wire takes them: at idle every one of them
// must have been written and settled. The slow observer stretches the
// write, so returning early cannot go unnoticed.
TEST(TcpTransport, WaitIdleCoversTheStrandsUnwrittenRun) {
  TcpTransport a;
  TcpTransport b;
  a.register_endpoint(1);
  b.register_endpoint(2);
  ASSERT_TRUE(a.set_peer_address(2, PeerAddr{"127.0.0.1", b.port()}));
  std::atomic<int> observed{0};
  a.set_send_observer([&observed](const std::string&, const SendRecord&) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
    ++observed;
  });
  std::atomic<int> got{0};
  b.set_payload_handler(
      [&got](EndpointId, EndpointId, MsgKind, const WireMessage&) { ++got; });
  constexpr int kN = 20;
  std::promise<void> queued;
  a.schedule_in(0, [&] {
    for (int i = 0; i < kN; ++i)
      a.send_payload(1, 2, MsgKind::kKwsTCont,
                     WireMessage{ControlMsg{5, 9, 2, false}});
    queued.set_value();
    // Hold the turn open: the run stays unwritten while wait_idle starts.
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
  });
  queued.get_future().wait();
  ASSERT_TRUE(a.wait_idle(kIdle));
  EXPECT_EQ(observed.load(), kN);
  EXPECT_EQ(a.metrics().counter("net.delivered"), std::uint64_t{kN});
  EXPECT_EQ(a.metrics().counter("net.messages"), std::uint64_t{kN});
  const auto until = std::chrono::steady_clock::now() + kIdle;
  while (got.load() < kN && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  EXPECT_EQ(got.load(), kN);
  ASSERT_TRUE(b.wait_idle(kIdle));
  EXPECT_EQ(b.metrics().counter("net.remote.in"), std::uint64_t{kN});
}

// --- Cross-process payload delivery -----------------------------------------

// Two transport instances, each owning endpoints of one overlay, exchange
// real serialized messages: the peer-address table routes send_payload() to
// the owning instance, which decodes the inner frame and dispatches it to
// its payload handler. Accounting closes per instance: the sender counts
// net.messages + net.delivered + net.remote.out; the receiver counts only
// net.remote.in.
TEST(TcpTransport, PayloadCrossesBetweenInstancesBothDirections) {
  TcpTransport a;
  TcpTransport b;
  a.register_endpoint(1);
  b.register_endpoint(2);
  ASSERT_TRUE(a.set_peer_address(2, PeerAddr{"127.0.0.1", b.port()}));
  ASSERT_TRUE(b.set_peer_address(1, PeerAddr{"127.0.0.1", a.port()}));
  EXPECT_TRUE(a.has_peer_address(2));
  EXPECT_FALSE(a.has_peer_address(1));

  std::mutex mu;
  std::condition_variable cv;
  std::vector<QueryMsg> at_b;
  std::vector<HitsMsg> at_a;
  b.set_payload_handler([&](EndpointId from, EndpointId to, MsgKind kind,
                            const WireMessage& msg) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(to, 2u);
    EXPECT_EQ(kind, MsgKind::kKwsTQuery);
    at_b.push_back(std::get<QueryMsg>(msg));
    cv.notify_all();
  });
  a.set_payload_handler([&](EndpointId from, EndpointId to, MsgKind kind,
                            const WireMessage& msg) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(from, 2u);
    EXPECT_EQ(to, 1u);
    EXPECT_EQ(kind, MsgKind::kKwsResults);
    at_a.push_back(std::get<HitsMsg>(msg));
    cv.notify_all();
  });

  const QueryMsg query{7, 3, 1, 10, 0, {"keyword", "search"}};
  a.send_payload(1, 2, MsgKind::kKwsTQuery, WireMessage{query});
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return !at_b.empty(); }));
    EXPECT_EQ(at_b.front(), query);
  }

  HitsMsg hits;
  hits.request = 7;
  hits.node = 3;
  hits.hits.push_back(WireHit{99, {"keyword", "search", "extra"}});
  b.send_payload(2, 1, MsgKind::kKwsResults, WireMessage{hits});
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return !at_a.empty(); }));
    EXPECT_EQ(at_a.front(), hits);
  }
  ASSERT_TRUE(a.wait_idle(kIdle));
  ASSERT_TRUE(b.wait_idle(kIdle));

  // Sender-side conservation: a originated one wire message and the wire
  // accepted it; the receiving process does not count it delivered again.
  EXPECT_EQ(a.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(a.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(a.metrics().counter("net.remote.out"), 1u);
  EXPECT_EQ(a.metrics().counter("net.remote.in"), 1u);
  EXPECT_EQ(a.metrics().counter("net.remote.in.kws.results"), 1u);
  EXPECT_EQ(a.metrics().counter("msg.kws.t_query"), 1u);
  EXPECT_EQ(b.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(b.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(b.metrics().counter("net.remote.out"), 1u);
  EXPECT_EQ(b.metrics().counter("net.remote.in"), 1u);
  EXPECT_EQ(b.metrics().counter("net.remote.in.kws.t_query"), 1u);
  EXPECT_EQ(b.metrics().counter("msg.kws.results"), 1u);
  EXPECT_EQ(a.decode_errors(), 0u);
  EXPECT_EQ(b.decode_errors(), 0u);
}

// send_payload() to an endpoint with no peer address serializes through the
// local self-wire instead: same codec coverage, local accounting (no
// net.remote.*), handler dispatched on this instance's strand.
TEST(TcpTransport, PayloadWithoutAddressLoopsThroughLocalWire) {
  TcpTransport t;
  t.register_endpoint(1);
  t.register_endpoint(2);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ControlMsg> got;
  t.set_payload_handler([&](EndpointId from, EndpointId to, MsgKind kind,
                            const WireMessage& msg) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(to, 2u);
    EXPECT_EQ(kind, MsgKind::kKwsTCont);
    got.push_back(std::get<ControlMsg>(msg));
    cv.notify_all();
  });
  const ControlMsg cont{5, 9, 2, false};
  t.send_payload(1, 2, MsgKind::kKwsTCont, WireMessage{cont});
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, kIdle, [&] { return !got.empty(); }));
    EXPECT_EQ(got.front(), cont);
  }
  ASSERT_TRUE(t.wait_idle(kIdle));
  EXPECT_EQ(t.metrics().counter("net.messages"), 1u);
  EXPECT_EQ(t.metrics().counter("net.delivered"), 1u);
  EXPECT_EQ(t.metrics().counter("msg.kws.t_cont"), 1u);
  EXPECT_EQ(t.metrics().counter("net.remote.out"), 0u);
  EXPECT_EQ(t.metrics().counter("net.remote.in"), 0u);
  EXPECT_EQ(t.decode_errors(), 0u);
}

}  // namespace
}  // namespace hkws::net
