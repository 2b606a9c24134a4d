#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "net/fault_model.hpp"
#include "sim/metrics.hpp"

namespace hkws::sim {
namespace {

using net::BernoulliDrop;
using net::FaultActions;
using net::FaultModel;

TEST(Metrics, CountersAccumulate) {
  Metrics m;
  m.count("a");
  m.count("a", 4);
  EXPECT_EQ(m.counter("a"), 5u);
  EXPECT_EQ(m.counter("missing"), 0u);
}

TEST(Metrics, SamplesAndMean) {
  Metrics m;
  m.observe("lat", 1.0);
  m.observe("lat", 3.0);
  EXPECT_EQ(m.samples("lat").size(), 2u);
  EXPECT_DOUBLE_EQ(m.sample_mean("lat"), 2.0);
  EXPECT_EQ(m.sample_mean("none"), 0.0);
}

TEST(Metrics, ResetClearsEverything) {
  Metrics m;
  m.count("a");
  m.observe("b", 1);
  m.reset();
  EXPECT_EQ(m.counter("a"), 0u);
  EXPECT_TRUE(m.samples("b").empty());
}

TEST(Network, DeliversAfterLatency) {
  EventQueue clock;
  Network net(clock, std::make_unique<FixedLatency>(5));
  net.register_endpoint(1);
  net.register_endpoint(2);
  Time delivered_at = 0;
  net.send(1, 2, "test", 10, [&] { delivered_at = clock.now(); });
  clock.run();
  EXPECT_EQ(delivered_at, 5u);
}

TEST(Network, CountsMessagesBytesAndKinds) {
  EventQueue clock;
  Network net(clock);
  net.register_endpoint(1);
  net.register_endpoint(2);
  net.send(1, 2, "ping", 100, [] {});
  net.send(2, 1, "pong", 50, [] {});
  clock.run();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.metrics().counter("net.bytes"), 150u);
  EXPECT_EQ(net.metrics().counter("msg.ping"), 1u);
  EXPECT_EQ(net.metrics().counter("msg.pong"), 1u);
}

TEST(Network, LocalSendIsFreeButStillAsync) {
  EventQueue clock;
  Network net(clock);
  net.register_endpoint(1);
  bool delivered = false;
  net.send(1, 1, "self", 10, [&] { delivered = true; });
  EXPECT_FALSE(delivered);  // not synchronous
  clock.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.messages_sent(), 0u);
  EXPECT_EQ(net.metrics().counter("net.local"), 1u);
}

TEST(Network, DropsToUnregisteredEndpoint) {
  EventQueue clock;
  Network net(clock);
  net.register_endpoint(1);
  bool delivered = false;
  net.send(1, 99, "lost", 10, [&] { delivered = true; });
  clock.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.metrics().counter("net.dropped"), 1u);
  EXPECT_EQ(net.metrics().counter("net.dropped.lost"), 1u);
  EXPECT_EQ(net.messages_sent(), 0u);
}

TEST(Network, UnregisterStopsFutureDeliveries) {
  EventQueue clock;
  Network net(clock);
  net.register_endpoint(1);
  net.register_endpoint(2);
  net.unregister_endpoint(2);
  EXPECT_FALSE(net.is_registered(2));
  bool delivered = false;
  net.send(1, 2, "x", 1, [&] { delivered = true; });
  clock.run();
  EXPECT_FALSE(delivered);
}

TEST(Network, UniformLatencyStaysInBounds) {
  EventQueue clock;
  Network net(clock, std::make_unique<UniformLatency>(2, 6), 99);
  net.register_endpoint(1);
  net.register_endpoint(2);
  for (int i = 0; i < 50; ++i) {
    const Time sent = clock.now();
    Time got = 0;
    net.send(1, 2, "m", 1, [&, sent] { got = clock.now() - sent; });
    clock.run();
    EXPECT_GE(got, 2u);
    EXPECT_LE(got, 6u);
  }
}

TEST(Network, DeterministicAcrossRuns) {
  auto run_once = [] {
    EventQueue clock;
    Network net(clock, std::make_unique<UniformLatency>(1, 9), 7);
    net.register_endpoint(1);
    net.register_endpoint(2);
    std::vector<Time> arrivals;
    for (int i = 0; i < 20; ++i)
      net.send(1, 2, "m", 1, [&] { arrivals.push_back(clock.now()); });
    clock.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Network, BernoulliDropLosesAndCounts) {
  EventQueue clock;
  Network net(clock, std::make_unique<FixedLatency>(1), 3);
  net.register_endpoint(1);
  net.register_endpoint(2);
  net.set_fault_model(std::make_unique<BernoulliDrop>(0.5));
  int delivered = 0;
  const int kSends = 400;
  for (int i = 0; i < kSends; ++i)
    net.send(1, 2, "m", 1, [&] { ++delivered; });
  clock.run();
  const auto lost = net.messages_lost();
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) + lost,
            static_cast<std::uint64_t>(kSends));
  // Lost messages still count as sent (they were put on the wire)...
  EXPECT_EQ(net.messages_sent(), static_cast<std::uint64_t>(kSends));
  // ...and are attributed per kind.
  EXPECT_EQ(net.metrics().counter("net.lost.m"), lost);
  // Roughly half at p=0.5 (fixed seed keeps this deterministic).
  EXPECT_GT(lost, 120u);
  EXPECT_LT(lost, 280u);
}

TEST(Network, LocalSendsAreExemptFromLoss) {
  EventQueue clock;
  Network net(clock, nullptr, 3);
  net.register_endpoint(1);
  net.register_endpoint(2);
  net.set_fault_model(std::make_unique<BernoulliDrop>(1.0));  // drop all
  int delivered = 0;
  for (int i = 0; i < 10; ++i) net.send(1, 1, "m", 1, [&] { ++delivered; });
  net.send(1, 2, "m", 1, [&] { ++delivered; });  // remote: vanishes
  clock.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(net.messages_lost(), 1u);
}

TEST(Network, LossIsDeterministicPerSeed) {
  auto run_once = [] {
    EventQueue clock;
    Network net(clock, nullptr, 17);
    net.set_fault_model(std::make_unique<BernoulliDrop>(0.3));
    net.register_endpoint(1);
    net.register_endpoint(2);
    std::vector<int> delivered;
    for (int i = 0; i < 50; ++i)
      net.send(1, 2, "m", 1, [&, i] { delivered.push_back(i); });
    clock.run();
    return delivered;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(LogNormalLatency, SamplesArePositiveAndMedianish) {
  Rng rng(5);
  LogNormalLatency model(30.0, 0.5);
  std::vector<double> xs;
  std::size_t below = 0;
  for (int i = 0; i < 4000; ++i) {
    const Time t = model.latency(1, 2, rng);
    EXPECT_GE(t, 1u);
    if (t < 30) ++below;
    xs.push_back(static_cast<double>(t));
  }
  // About half the mass below the median parameter.
  EXPECT_GT(below, 4000u * 40 / 100);
  EXPECT_LT(below, 4000u * 60 / 100);
  // Heavy tail: the max is far above the median.
  EXPECT_GT(*std::max_element(xs.begin(), xs.end()), 90.0);
}

TEST(LogNormalLatency, CapBoundsTheTail) {
  Rng rng(5);
  LogNormalLatency model(30.0, 0.8, 100);
  for (int i = 0; i < 2000; ++i) {
    const Time t = model.latency(1, 2, rng);
    EXPECT_GE(t, 1u);
    EXPECT_LE(t, 100u);
  }
}

TEST(Metrics, ReservoirCapsRetentionButKeepsExactCountAndMean) {
  Metrics m;
  m.set_reservoir("lat", 64);
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    m.observe("lat", i);
    sum += i;
  }
  EXPECT_EQ(m.samples("lat").size(), 64u);
  EXPECT_EQ(m.sample_count("lat"), 1000u);
  EXPECT_DOUBLE_EQ(m.sample_mean("lat"), sum / 1000.0);
  // The reservoir is a plausible uniform subsample: its mean is in the
  // bulk of the distribution, not stuck at either end.
  double rmean = 0;
  for (double v : m.samples("lat")) rmean += v;
  rmean /= 64.0;
  EXPECT_GT(rmean, 250.0);
  EXPECT_LT(rmean, 750.0);
}

TEST(Metrics, SetReservoirSubsamplesExistingSeries) {
  Metrics m;
  for (int i = 0; i < 500; ++i) m.observe("lat", i);
  EXPECT_EQ(m.samples("lat").size(), 500u);
  m.set_reservoir("lat", 10);
  EXPECT_EQ(m.samples("lat").size(), 10u);
  EXPECT_EQ(m.sample_count("lat"), 500u);
}

TEST(Metrics, DefaultReservoirAppliesToNewSeries) {
  Metrics m;
  m.set_default_reservoir(8);
  for (int i = 0; i < 100; ++i) m.observe("a", i);
  EXPECT_EQ(m.samples("a").size(), 8u);
  EXPECT_EQ(m.sample_count("a"), 100u);
}

TEST(Metrics, ReservoirShrinkPropertyHolds) {
  // Property: after shrinking a series via set_reservoir, (a) every retained
  // value is one of the observed values, (b) no observed value is retained
  // more often than it was observed, (c) count and mean stay exact, and
  // (d) further observations never grow retention past the cap.
  Metrics m;
  for (int i = 0; i < 1000; ++i) m.observe("lat", i);  // distinct values
  m.set_reservoir("lat", 37);
  std::vector<double> kept = m.samples("lat");
  EXPECT_EQ(kept.size(), 37u);
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(std::unique(kept.begin(), kept.end()), kept.end())
      << "a shrink must not duplicate observations";
  for (double v : kept) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1000.0);
    EXPECT_DOUBLE_EQ(v, std::floor(v));  // only observed (integer) values
  }
  EXPECT_EQ(m.sample_count("lat"), 1000u);
  EXPECT_DOUBLE_EQ(m.sample_mean("lat"), 999.0 / 2.0);
  for (int i = 1000; i < 2000; ++i) m.observe("lat", i);
  EXPECT_EQ(m.samples("lat").size(), 37u);
  EXPECT_EQ(m.sample_count("lat"), 2000u);
}

// --- Fault-injection plumbing -------------------------------------------------

/// Scripted per-sequence-number faults, keyed on the wire sequence number.
class ScriptedFaults final : public FaultModel {
 public:
  std::map<std::uint64_t, FaultActions> script;
  FaultActions inspect(EndpointId, EndpointId, const std::string&,
                       std::uint64_t seq, Rng&) override {
    const auto it = script.find(seq);
    return it == script.end() ? FaultActions{} : it->second;
  }
};

TEST(Network, FaultModelDropDupDelayAndConservation) {
  EventQueue clock;
  Network net(clock, std::make_unique<FixedLatency>(5));
  net.register_endpoint(1);
  net.register_endpoint(2);
  auto faults = std::make_unique<ScriptedFaults>();
  faults->script[0] = FaultActions{.drop = true};
  faults->script[1] = FaultActions{.duplicates = 2};
  faults->script[2] = FaultActions{.extra_delay = 40};
  net.set_fault_model(std::move(faults));

  int arrivals = 0;
  Time last_at = 0;
  for (int i = 0; i < 4; ++i)
    net.send(1, 2, "t", 8, [&] {
      ++arrivals;
      last_at = clock.now();
    });
  clock.run();
  // seq 0 dropped; seq 1 delivered 3x (original + 2 dups); seq 2 delayed to
  // t=45 (the latest arrival); seq 3 untouched.
  EXPECT_EQ(arrivals, 5);
  EXPECT_EQ(last_at, 45u);
  EXPECT_EQ(net.metrics().counter("net.dup"), 2u);
  EXPECT_EQ(net.metrics().counter("net.delayed"), 1u);
  EXPECT_EQ(net.messages_lost(), 1u);
  // Conservation: every wire message (duplicates included) was either
  // delivered or lost.
  EXPECT_EQ(net.messages_sent(), 6u);  // 4 sends + 2 duplicate copies
  EXPECT_EQ(net.messages_sent(), net.messages_delivered() + net.messages_lost());
}

TEST(Network, ConservationHoldsUnderRandomDropAndFaults) {
  EventQueue clock;
  Network net(clock, std::make_unique<UniformLatency>(1, 9), 7);
  net.register_endpoint(1);
  net.register_endpoint(2);

  /// Seeded random loss plus random faults on every message kind.
  class RandomFaults final : public FaultModel {
   public:
    FaultActions inspect(EndpointId, EndpointId, const std::string&,
                         std::uint64_t, Rng& rng) override {
      FaultActions a;
      a.drop = rng.next_bool(0.2) || rng.next_bool(0.1);
      if (rng.next_bool(0.1)) a.duplicates = 1 + rng.next_below(2);
      if (rng.next_bool(0.1)) a.extra_delay = rng.next_below(50);
      return a;
    }
  };
  net.set_fault_model(std::make_unique<RandomFaults>());
  for (int i = 0; i < 500; ++i) net.send(1, 2, "t", 8, [] {});
  clock.run();
  EXPECT_EQ(net.messages_sent(), net.messages_delivered() + net.messages_lost());
  EXPECT_GT(net.messages_lost(), 0u);
  EXPECT_GT(net.metrics().counter("net.dup"), 0u);
}

}  // namespace
}  // namespace hkws::sim
