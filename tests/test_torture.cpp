// The torture harness testing itself: seeded smoke sweeps across every
// deployment and strategy, determinism of plans and runs, schedule
// shrinking, and — the critical meta-test — proof that the harness detects
// a deliberately re-introduced QueryCache staleness bug and reproduces it
// from the printed seed.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "index/query_cache.hpp"
#include "obs/trace.hpp"
#include "torture/scenario.hpp"
#include "torture/shrink.hpp"

namespace hkws::torture {
namespace {

using index::SearchStrategy;

constexpr Deployment kAllDeployments[] = {
    Deployment::kDirect,   Deployment::kChord,    Deployment::kPastry,
    Deployment::kHyperCup, Deployment::kMirrored, Deployment::kDecomposed,
};
constexpr SearchStrategy kAllStrategies[] = {
    SearchStrategy::kTopDownSequential,
    SearchStrategy::kBottomUpSequential,
    SearchStrategy::kLevelParallel,
};

/// Restores the process-wide legacy-staleness flag on scope exit, so a
/// failing assertion can't poison later tests.
struct LegacyStalenessGuard {
  ~LegacyStalenessGuard() {
    index::QueryCache::set_debug_legacy_staleness(false);
  }
};

TEST(FaultPlan, SeedDerivationIsDeterministic) {
  FaultPlanConfig cfg;
  const FaultPlan a = FaultPlan::from_seed(42, cfg);
  const FaultPlan b = FaultPlan::from_seed(42, cfg);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].arg, b.events[i].arg);
  }
  const FaultPlan c = FaultPlan::from_seed(43, cfg);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(FaultPlan, LossableCoversExactlyTheRetransmissionGuardedKinds) {
  EXPECT_TRUE(lossable("kws.t_query"));
  EXPECT_TRUE(lossable("kws.t_cont"));
  EXPECT_TRUE(lossable("kws.t_stop"));
  EXPECT_TRUE(lossable("kws.results"));
  EXPECT_TRUE(lossable("kws.done"));
  // Heartbeats tolerate loss by design: a dropped ping/ack costs one
  // suspicion round, confirmation needs consecutive misses.
  EXPECT_TRUE(lossable("maint.ping"));
  EXPECT_TRUE(lossable("maint.ack"));
  EXPECT_FALSE(lossable("kws.c_results"));  // cumulative: no retransmission
  EXPECT_FALSE(lossable("dolr.insert"));
  EXPECT_FALSE(lossable("dht.lookup"));
  EXPECT_FALSE(lossable("hc.s_query"));
}

TEST(Torture, SmokeSweepAllDeploymentsAndStrategiesGreen) {
  ScenarioRunner runner;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (Deployment d : kAllDeployments) {
      for (SearchStrategy s : kAllStrategies) {
        if (d == Deployment::kHyperCup &&
            s != SearchStrategy::kTopDownSequential)
          continue;  // tree forwarding has no strategy knob
        const ScenarioConfig cfg = ScenarioConfig::from_seed(seed, d, s);
        const ScenarioReport rep = runner.run(cfg);
        EXPECT_TRUE(rep.ok()) << rep.to_string();
        EXPECT_GT(rep.searches, 0u);
        EXPECT_GT(rep.mutations, 0u);
      }
    }
  }
}

TEST(Torture, RunsAreDeterministicPerSeed) {
  ScenarioRunner runner;
  const ScenarioConfig cfg = ScenarioConfig::from_seed(
      7, Deployment::kChord, SearchStrategy::kTopDownSequential);
  const ScenarioReport a = runner.run(cfg);
  const ScenarioReport b = runner.run(cfg);
  EXPECT_EQ(a.searches, b.searches);
  EXPECT_EQ(a.mutations, b.mutations);
  EXPECT_EQ(a.cancels, b.cancels);
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

/// FNV-1a over a string.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// One line per scenario: its report counts, the violation count and a
/// digest of the run's Chrome trace export (every wire send, the torture
/// instants and the maintenance plane's repair ticks).
std::string digest_line(const std::string& label, const ScenarioConfig& cfg) {
  obs::Tracer tracer;
  ScenarioRunner runner;
  runner.set_tracer(&tracer);
  const ScenarioReport rep = runner.run(cfg);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s searches=%zu mutations=%zu cancels=%zu faults=%llu",
                label.c_str(), rep.searches, rep.mutations, rep.cancels,
                static_cast<unsigned long long>(rep.faults_applied));
  std::string line = buf;
  if (cfg.max_scan_skew > 0.0) {
    std::snprintf(buf, sizeof buf, " skew=%.6f", rep.scan_skew);
    line += buf;
  }
  std::snprintf(buf, sizeof buf, " violations=%zu trace=%016llx",
                rep.violations.size(),
                static_cast<unsigned long long>(
                    fnv1a(tracer.to_chrome_json())));
  return line + buf;
}

/// A Chord seed whose scenario draws a peer failure (the instant repair)
/// with the query cache on; seed 2 draws one with the cache off.
constexpr std::uint64_t kChordChurnSeed = 11;

/// The checked-in records of the scenarios below, generated by this test
/// (its failure output prints the run's table). The simulator is
/// deterministic, so any difference is a behaviour change of the harness
/// or of the stack it drives.
constexpr const char* kDigests[] = {
    "chord/top-down/1 searches=12 mutations=58 cancels=1 faults=3 violations=0 trace=7fa2a32cff665058",
    "chord/bottom-up/1 searches=12 mutations=58 cancels=1 faults=3 violations=0 trace=6a6c9bd3ca1f0cef",
    "chord/level-parallel/1 searches=12 mutations=58 cancels=1 faults=3 violations=0 trace=934e905b4d4d83d5",
    "pastry/top-down/1 searches=12 mutations=58 cancels=1 faults=7 violations=0 trace=28ad1ca6843c25be",
    "pastry/bottom-up/1 searches=12 mutations=58 cancels=1 faults=7 violations=0 trace=9418108c6f7fefbc",
    "pastry/level-parallel/1 searches=12 mutations=58 cancels=1 faults=8 violations=0 trace=268f2c91bc761496",
    "mirrored/top-down/1 searches=12 mutations=58 cancels=2 faults=6 violations=0 trace=d8e63fe31520e87b",
    "mirrored/bottom-up/1 searches=12 mutations=58 cancels=2 faults=6 violations=0 trace=fc74348b9d05f809",
    "mirrored/level-parallel/1 searches=12 mutations=58 cancels=2 faults=8 violations=0 trace=2481cc61c6068810",
    "chord/top-down/2 searches=18 mutations=61 cancels=3 faults=2 violations=0 trace=4d71cafabde95cc0",
    "chord/bottom-up/2 searches=18 mutations=61 cancels=3 faults=2 violations=0 trace=1d14d614ffc60e70",
    "chord/level-parallel/2 searches=18 mutations=61 cancels=3 faults=2 violations=0 trace=2efe4d16659380b0",
    "pastry/top-down/2 searches=18 mutations=61 cancels=4 faults=3 violations=0 trace=2282e94a264d38ea",
    "pastry/bottom-up/2 searches=18 mutations=61 cancels=4 faults=4 violations=0 trace=5512e35624ec47a4",
    "pastry/level-parallel/2 searches=18 mutations=61 cancels=3 faults=3 violations=0 trace=29537441b6be34a8",
    "mirrored/top-down/2 searches=18 mutations=61 cancels=3 faults=3 violations=0 trace=4e01f1ec0d656015",
    "mirrored/bottom-up/2 searches=18 mutations=61 cancels=3 faults=4 violations=0 trace=e518e3eb3dd246f4",
    "mirrored/level-parallel/2 searches=18 mutations=61 cancels=3 faults=3 violations=0 trace=e34f17f8ff495258",
    "chord/top-down/11 searches=35 mutations=88 cancels=3 faults=5 violations=0 trace=0c96da9796d88843",
    "churn/1 searches=16 mutations=63 cancels=3 faults=21 violations=0 trace=fb76546798c48fa5",
    "churn/2 searches=24 mutations=64 cancels=6 faults=11 violations=0 trace=6ec6e4929752ef9a",
    "churn/3 searches=20 mutations=70 cancels=3 faults=16 violations=0 trace=db29e07b5f2bb9c4",
    "hot-spot/1 searches=144 mutations=73 cancels=18 faults=21 skew=2.490066 violations=0 trace=e9307533740778f8",
    "hot-spot/2 searches=144 mutations=70 cancels=12 faults=9 skew=2.957746 violations=0 trace=0e32c8d614d8cf28",
    "hot-spot/3 searches=144 mutations=80 cancels=22 faults=16 skew=1.870824 violations=0 trace=b1402f104127c2d8",
    "hot-spot/4 searches=144 mutations=63 cancels=19 faults=1 skew=1.809524 violations=0 trace=cfd2923205652442",
};

TEST(Torture, SeededRunsMatchTheirCheckedInDigests) {
  std::vector<std::string> got;
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    for (Deployment d :
         {Deployment::kChord, Deployment::kPastry, Deployment::kMirrored}) {
      for (SearchStrategy s : kAllStrategies)
        got.push_back(digest_line(std::string(to_string(d)) + "/" +
                                      to_string(s) + "/" +
                                      std::to_string(seed),
                                  ScenarioConfig::from_seed(seed, d, s)));
    }
  }
  const ScenarioConfig churn = ScenarioConfig::from_seed(
      kChordChurnSeed, Deployment::kChord, SearchStrategy::kTopDownSequential);
  ASSERT_TRUE(churn.churn);
  got.push_back(digest_line(
      "chord/top-down/" + std::to_string(kChordChurnSeed), churn));
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    got.push_back(digest_line("churn/" + std::to_string(seed),
                              ScenarioConfig::churn_preset(seed)));
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    got.push_back(digest_line("hot-spot/" + std::to_string(seed),
                              ScenarioConfig::hot_spot_preset(seed)));

  const std::vector<std::string> want(std::begin(kDigests),
                                      std::end(kDigests));
  bool same = got.size() == want.size();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i], want[i]) << "record " << i;
    same = same && got[i] == want[i];
  }
  EXPECT_EQ(got.size(), want.size());
  if (!same) {
    std::string dump;
    for (const std::string& line : got) dump += "    \"" + line + "\",\n";
    ADD_FAILURE() << "the runs' records:\n" << dump;
  }
}

TEST(Torture, ChurnScenariosSurvive) {
  // Find a seed whose Chord scenario schedules a peer failure and check the
  // repair recipe keeps every invariant.
  ScenarioRunner runner;
  std::size_t churn_runs = 0;
  for (std::uint64_t seed = 1; seed <= 12 && churn_runs < 2; ++seed) {
    const ScenarioConfig cfg = ScenarioConfig::from_seed(
        seed, Deployment::kChord, SearchStrategy::kTopDownSequential);
    if (!cfg.churn) continue;
    ++churn_runs;
    const ScenarioReport rep = runner.run(cfg);
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
  EXPECT_GE(churn_runs, 1u);
}

// The acceptance meta-test: restoring the pre-fix QueryCache behaviour
// (stale entries survive oversized refreshes and epoch invalidation is
// skipped) must be *caught* by the harness, and the failure must reproduce
// from the same seed. Seed 26 is a known catcher for both the direct and
// the Chord deployment (cache-enabled, recurring queries across mutation
// rounds); sibling seeds stay green when the fix is active.
TEST(Torture, CatchesReintroducedQueryCacheStalenessBug) {
  LegacyStalenessGuard guard;
  ScenarioRunner runner;
  const ScenarioConfig cfg = ScenarioConfig::from_seed(
      26, Deployment::kDirect, SearchStrategy::kTopDownSequential);
  ASSERT_GT(cfg.cache_capacity, 0u);

  // With the fix: green.
  index::QueryCache::set_debug_legacy_staleness(false);
  EXPECT_TRUE(runner.run(cfg).ok());

  // Bug re-introduced: caught, with an oracle violation.
  index::QueryCache::set_debug_legacy_staleness(true);
  const ScenarioReport caught = runner.run(cfg);
  ASSERT_FALSE(caught.ok());
  EXPECT_EQ(caught.violations[0].invariant, "oracle");

  // Reproduced bit-identically from the same seed.
  const ScenarioReport again = runner.run(cfg);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.violations[0].detail, caught.violations[0].detail);

  // Fix restored: green again.
  index::QueryCache::set_debug_legacy_staleness(false);
  EXPECT_TRUE(runner.run(cfg).ok());
}

TEST(Torture, CatchesStalenessBugOverTheWireToo) {
  LegacyStalenessGuard guard;
  ScenarioRunner runner;
  const ScenarioConfig cfg = ScenarioConfig::from_seed(
      26, Deployment::kChord, SearchStrategy::kTopDownSequential);
  ASSERT_GT(cfg.cache_capacity, 0u);
  index::QueryCache::set_debug_legacy_staleness(true);
  const ScenarioReport caught = runner.run(cfg);
  ASSERT_FALSE(caught.ok());
  EXPECT_EQ(caught.violations[0].invariant, "oracle");
}

// Continuous churn: peers are killed mid-run with *no* oracle-driven
// repair; the self-healing maintenance plane must detect each failure by
// heartbeat and heal incrementally while serving continues. The same
// scenario with the plane disabled must be caught — that asymmetry is the
// acceptance meta-test for the plane.
TEST(Torture, ContinuousChurnHealsWithPlaneAndFailsWithout) {
  ScenarioRunner runner;
  // Seed 3's preset schedules kills that strand index entries; known to
  // converge with the plane and be caught without it.
  const ScenarioConfig healed = ScenarioConfig::churn_preset(3);
  ASSERT_TRUE(healed.continuous_churn);
  ASSERT_GE(healed.faults.peer_failures, 2u);
  const ScenarioReport good = runner.run(healed);
  EXPECT_TRUE(good.ok()) << good.to_string();
  EXPECT_GT(good.searches, 0u);

  ScenarioConfig control = healed;
  control.self_healing = false;
  const ScenarioReport caught = runner.run(control);
  ASSERT_FALSE(caught.ok());

  // Reproduced bit-identically from the same seed.
  const ScenarioReport again = runner.run(control);
  ASSERT_FALSE(again.ok());
  ASSERT_EQ(again.violations.size(), caught.violations.size());
  EXPECT_EQ(again.violations[0].detail, caught.violations[0].detail);
}

TEST(Torture, ContinuousChurnPresetSweepIsGreen) {
  ScenarioRunner runner;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ScenarioReport rep = runner.run(ScenarioConfig::churn_preset(seed));
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
}

// The hot-spot preset's 0.85 recurring-query share hammers a handful of
// cube cells. With hot-cell replication the scan load spreads across the
// replica sets and every invariant (including load_balance) holds; with
// the feature off the same workload must trip load_balance — and nothing
// else, since replication is a pure load optimization.
TEST(Torture, HotSpotReplicationFlattensScanSkewAndControlIsCaught) {
  ScenarioRunner runner;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ScenarioConfig cfg = ScenarioConfig::hot_spot_preset(seed);
    ASSERT_TRUE(cfg.hot_spot);
    ASSERT_TRUE(cfg.hot_replication);
    ASSERT_GT(cfg.max_scan_skew, 0.0);
    const ScenarioReport rep = runner.run(cfg);
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    EXPECT_GT(rep.searches, 0u);
  }

  // Seeds 2 and 3 sit well above the skew bound without replication
  // (max/mean ~8.0 and ~6.4 against the 4.0 limit).
  for (std::uint64_t seed : {2, 3}) {
    ScenarioConfig control = ScenarioConfig::hot_spot_preset(seed);
    control.hot_replication = false;
    const ScenarioReport caught = runner.run(control);
    ASSERT_FALSE(caught.ok()) << "seed " << seed;
    for (const Violation& v : caught.violations)
      EXPECT_EQ(v.invariant, "load_balance") << v.detail;

    // Reproduced bit-identically from the same seed.
    const ScenarioReport again = runner.run(control);
    ASSERT_EQ(again.violations.size(), caught.violations.size());
    EXPECT_EQ(again.violations[0].detail, caught.violations[0].detail);
  }
}

// The same invariant battery over the real runtime: every wire message
// crosses a loopback TCP socket (net::TcpTransport) with the seeded fault
// schedule injected by the transport's fault hook, above the codec. Message
// order is wall-clock real, so this exercises the protocol against genuine
// concurrency — the invariants must hold anyway.
TEST(TortureTcp, ChordAndChurnScenariosGreenOverRealSockets) {
  ScenarioRunner runner;
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    ScenarioConfig cfg = ScenarioConfig::from_seed(
        seed, Deployment::kChord, SearchStrategy::kLevelParallel);
    cfg.backend = Backend::kTcp;
    const ScenarioReport rep = runner.run(cfg);
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    EXPECT_GT(rep.searches, 0u);
  }
  ScenarioConfig churn = ScenarioConfig::churn_preset(1);
  churn.backend = Backend::kTcp;
  const ScenarioReport rep = runner.run(churn);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// The acceptance meta-test for fault injection over real sockets: the loss
// must be *observable*. With step retransmission disabled, a single dropped
// step message strands its operation forever, and the harness's hang
// invariant must catch it; the identical drop-heavy schedule with
// retransmission on must be survived. If the fault hook silently failed to
// drop (or dropped where the protocol never noticed), the first run would
// go green and this test would fail.
TEST(TortureTcp, InjectedLossIsCaughtWhenRetransmissionIsOff) {
  ScenarioRunner runner;
  ScenarioConfig cfg = ScenarioConfig::from_seed(
      1, Deployment::kChord, SearchStrategy::kTopDownSequential);
  cfg.backend = Backend::kTcp;
  // Dense drop-only schedule: with ~1 drop per 12 wire messages, some
  // loss-guarded step (t_query / t_cont / results / done) is hit with
  // near-certainty in every run.
  cfg.faults.allow_drops = true;
  cfg.faults.allow_dups = false;
  cfg.faults.allow_delays = false;
  cfg.faults.max_events = 120;
  cfg.faults.horizon = 1500;

  // Control: same config, faults off entirely — proves the no-retransmission
  // mode itself is clean over TCP (no spurious hang).
  ScenarioConfig clean = cfg;
  clean.retransmission = false;
  clean.faults.allow_drops = false;
  clean.faults.max_events = 0;
  const ScenarioReport quiet = runner.run(clean);
  EXPECT_TRUE(quiet.ok()) << quiet.to_string();

  // Retransmission on: the drops are absorbed, everything green.
  const ScenarioReport healed = runner.run(cfg);
  EXPECT_TRUE(healed.ok()) << healed.to_string();
  EXPECT_GT(healed.faults_applied, 0u);

  // Retransmission off: the loss must surface as a caught violation.
  ScenarioConfig exposed = cfg;
  exposed.retransmission = false;
  const ScenarioReport caught = runner.run(exposed);
  ASSERT_FALSE(caught.ok()) << "injected drops were not observable";
  EXPECT_GT(caught.faults_applied, 0u);
}

TEST(Shrink, ChurnFailureShrinksToThePeerFailures) {
  // The no-plane control fails because of the kills, not the message
  // faults: shrinking must keep at least one kFailPeer event and strip the
  // drops/dups/delays.
  ScenarioRunner runner;
  ScenarioConfig control = ScenarioConfig::churn_preset(3);
  control.self_healing = false;
  const FaultPlan plan = FaultPlan::from_seed(control.seed, control.faults);
  ASSERT_GT(plan.count(FaultKind::kFailPeer), 0u);
  ASSERT_GT(plan.events.size(), plan.count(FaultKind::kFailPeer));
  const ShrinkResult min = shrink_plan(runner, control, plan);
  EXPECT_FALSE(min.report.ok());
  EXPECT_GE(min.plan.count(FaultKind::kFailPeer), 1u);
  EXPECT_EQ(min.plan.events.size(), min.plan.count(FaultKind::kFailPeer))
      << "message faults survived shrinking: " << min.plan.to_string();
  EXPECT_GT(min.runs, 1u);
}

TEST(Shrink, RemovesEveryIrrelevantFaultEvent) {
  // The staleness failure above does not depend on message faults at all,
  // so greedy shrinking must strip the Chord scenario's schedule down to
  // nothing while the failure keeps reproducing.
  LegacyStalenessGuard guard;
  index::QueryCache::set_debug_legacy_staleness(true);
  ScenarioRunner runner;
  const ScenarioConfig cfg = ScenarioConfig::from_seed(
      26, Deployment::kChord, SearchStrategy::kTopDownSequential);
  const FaultPlan plan = FaultPlan::from_seed(cfg.seed, cfg.faults);
  ASSERT_FALSE(plan.events.empty());
  const ShrinkResult min = shrink_plan(runner, cfg, plan);
  EXPECT_FALSE(min.report.ok());
  EXPECT_TRUE(min.plan.events.empty())
      << "left: " << min.plan.to_string();
  EXPECT_GT(min.runs, 1u);
}

TEST(Shrink, PassingScenarioIsReturnedUnchanged) {
  ScenarioRunner runner;
  const ScenarioConfig cfg = ScenarioConfig::from_seed(
      3, Deployment::kPastry, SearchStrategy::kBottomUpSequential);
  const FaultPlan plan = FaultPlan::from_seed(cfg.seed, cfg.faults);
  const ShrinkResult min = shrink_plan(runner, cfg, plan);
  EXPECT_TRUE(min.report.ok());
  EXPECT_EQ(min.plan.events.size(), plan.events.size());
  EXPECT_EQ(min.runs, 1u);
}

}  // namespace
}  // namespace hkws::torture
