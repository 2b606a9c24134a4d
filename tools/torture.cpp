// Seed-driven protocol torture CLI.
//
// Default run: a sweep of seeded scenarios across every search strategy and
// deployment plus the hot-spot preset (>= 200 scenarios), printing one line
// per failure and exiting non-zero if any invariant was violated. A failing seed is reproduced with
//
//     tools/torture --seed N [--deployment D] [--strategy S]
//
// which replays exactly that scenario, shrinks its fault schedule to the
// minimal failing subset, and prints the full report. See docs/TESTING.md.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "torture/scenario.hpp"
#include "torture/shrink.hpp"

namespace {

using hkws::index::SearchStrategy;
using namespace hkws::torture;

constexpr Deployment kDeployments[] = {
    Deployment::kDirect,   Deployment::kChord,    Deployment::kPastry,
    Deployment::kHyperCup, Deployment::kMirrored, Deployment::kDecomposed,
};
constexpr SearchStrategy kStrategies[] = {
    SearchStrategy::kTopDownSequential,
    SearchStrategy::kBottomUpSequential,
    SearchStrategy::kLevelParallel,
};

std::optional<Deployment> parse_deployment(const std::string& s) {
  for (Deployment d : kDeployments)
    if (s == to_string(d)) return d;
  return std::nullopt;
}

std::optional<SearchStrategy> parse_strategy(const std::string& s) {
  for (SearchStrategy st : kStrategies)
    if (s == to_string(st)) return st;
  return std::nullopt;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--seeds COUNT] [--start N]\n"
      "          [--deployment direct|chord|pastry|hypercup|mirrored|"
      "decomposed]\n"
      "          [--strategy top-down|bottom-up|level-parallel]\n"
      "          [--transport sim|tcp|udp]\n"
      "          [--churn] [--no-heal] [--no-shrink] [--verbose]\n"
      "\n"
      "Without --seed: sweeps COUNT seeds (default 15) starting at --start\n"
      "(default 1) over every strategy x deployment combination plus the\n"
      "hot-spot preset (chord, top-down). With --seed: replays that single\n"
      "seed (optionally filtered), shrinking the fault schedule of any\n"
      "failure.\n"
      "\n"
      "--transport tcp|udp: runs the battery on the real runtime — every\n"
      "wire message crosses a loopback socket (TCP streams, or one UDP\n"
      "datagram per frame) with the transport's own fault hook injecting\n"
      "the same seeded fault schedule below the protocol. Per seed: chord\n"
      "(top-down + level-parallel), pastry, the hot-spot preset, and the\n"
      "continuous-churn preset (the socket-capable deployments; default 8\n"
      "seeds). Schedule shrinking is skipped — message order is wall-clock\n"
      "real, so a minimized schedule would not replay deterministically\n"
      "anyway. Between mutation bursts the harness waits for every publish\n"
      "and withdraw callback (bounded) before its settle window.\n"
      "\n"
      "--churn: continuous-churn preset (mirrored deployment, kill-only\n"
      "peer failures, self-healing maintenance plane racing the workload).\n"
      "Adds the *convergence invariant*: after the last fault the plane\n"
      "must report converged() — failures detected, placement and mirror\n"
      "backlogs drained, replication restored — within a bounded number of\n"
      "repair windows, after which strict verification searches must match\n"
      "the oracle exactly. --no-heal disables the plane (the control run\n"
      "that demonstrates the invariants break without it).\n",
      argv0);
}

/// Runs one scenario; on failure prints the seed, the (optionally
/// minimized) fault schedule, and the violations. Returns whether it passed.
bool run_one(ScenarioRunner& runner, const ScenarioConfig& cfg, bool shrink,
             bool verbose, std::size_t& scenarios) {
  ScenarioReport rep = runner.run(cfg);
  ++scenarios;
  if (rep.ok()) {
    if (verbose) {
      std::printf("ok    %s (searches=%zu mutations=%zu cancels=%zu "
                  "faults=%llu",
                  cfg.to_string().c_str(), rep.searches, rep.mutations,
                  rep.cancels,
                  static_cast<unsigned long long>(rep.faults_applied));
      if (cfg.max_scan_skew > 0.0)
        std::printf(" scan_skew=%g", rep.scan_skew);
      std::printf(")\n");
    }
    return true;
  }
  std::printf("FAIL  %s\n", cfg.to_string().c_str());
  if (shrink && !rep.plan.events.empty()) {
    const ShrinkResult min = shrink_plan(runner, cfg, rep.plan);
    scenarios += min.runs;
    std::printf("--- minimized fault schedule (%zu -> %zu events, %zu "
                "runs) ---\n",
                rep.plan.events.size(), min.plan.events.size(), min.runs);
    rep = min.report;
  }
  std::printf("%s", rep.to_string().c_str());
  const char* transport = "";
  if (cfg.backend == Backend::kTcp) transport = " --transport tcp";
  if (cfg.backend == Backend::kUdp) transport = " --transport udp";
  if (cfg.continuous_churn)
    std::printf("reproduce: tools/torture --churn%s%s --seed %llu\n",
                cfg.self_healing ? "" : " --no-heal", transport,
                static_cast<unsigned long long>(cfg.seed));
  else
    std::printf("reproduce: tools/torture%s --seed %llu --deployment %s "
                "--strategy %s\n",
                transport, static_cast<unsigned long long>(cfg.seed),
                to_string(cfg.deployment), to_string(cfg.strategy));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::uint64_t> single_seed;
  std::uint64_t start = 1;
  std::optional<std::size_t> count;
  std::optional<Deployment> only_deployment;
  std::optional<SearchStrategy> only_strategy;
  bool shrink = true;
  bool verbose = false;
  bool churn = false;
  bool heal = true;
  Backend backend = Backend::kSim;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      single_seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--seeds") {
      count = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--start") {
      start = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--deployment") {
      only_deployment = parse_deployment(next());
      if (!only_deployment) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--strategy") {
      only_strategy = parse_strategy(next());
      if (!only_strategy) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--transport") {
      const std::string t = next();
      if (t == "tcp") {
        backend = Backend::kTcp;
      } else if (t == "udp") {
        backend = Backend::kUdp;
      } else if (t != "sim") {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--churn") {
      churn = true;
    } else if (arg == "--no-heal") {
      heal = false;
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else {
      usage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  // Schedule shrinking re-runs the scenario with event subsets and relies
  // on deterministic replay; over real sockets message order is wall-clock,
  // so a minimized schedule would not reproduce the failure. Skip it.
  const bool sock = backend != Backend::kSim;
  if (sock) shrink = false;

  ScenarioRunner runner;
  std::size_t scenarios = 0;
  std::size_t failures = 0;

  const auto sweep_seed = [&](std::uint64_t seed) {
    if (churn) {
      // Continuous-churn preset: one mirrored scenario per seed, the
      // self-healing plane racing kill-only failures (unless --no-heal).
      ScenarioConfig cfg = ScenarioConfig::churn_preset(seed);
      cfg.self_healing = heal;
      cfg.backend = backend;
      if (!run_one(runner, cfg, shrink, verbose, scenarios)) ++failures;
      return;
    }
    if (sock) {
      // Real-runtime battery: the socket-capable deployments, each
      // scenario over loopback sockets (TCP streams or UDP datagrams) with
      // the seeded fault schedule injected by the transport's fault hook.
      // Reduced relative to the sim sweep (each scenario costs real
      // wall-clock), but it covers both overlay routers, the strategy
      // extremes, the hot-spot replication path and the continuous-churn
      // maintenance plane per seed.
      ScenarioConfig battery[] = {
          ScenarioConfig::from_seed(seed, Deployment::kChord,
                                    SearchStrategy::kTopDownSequential),
          ScenarioConfig::from_seed(seed, Deployment::kChord,
                                    SearchStrategy::kLevelParallel),
          ScenarioConfig::from_seed(seed, Deployment::kPastry,
                                    SearchStrategy::kBottomUpSequential),
          ScenarioConfig::hot_spot_preset(seed),
          ScenarioConfig::churn_preset(seed),
      };
      for (ScenarioConfig& cfg : battery) {
        if (only_deployment && cfg.deployment != *only_deployment) continue;
        if (only_strategy && cfg.strategy != *only_strategy) continue;
        cfg.backend = backend;
        if (!run_one(runner, cfg, shrink, verbose, scenarios)) ++failures;
      }
      return;
    }
    for (Deployment d : kDeployments) {
      if (only_deployment && d != *only_deployment) continue;
      for (SearchStrategy s : kStrategies) {
        if (only_strategy && s != *only_strategy) continue;
        // HyperCuP tree forwarding has no strategy knob; run it once.
        if (d == Deployment::kHyperCup &&
            s != SearchStrategy::kTopDownSequential && !only_strategy)
          continue;
        if (!run_one(runner, ScenarioConfig::from_seed(seed, d, s), shrink,
                     verbose, scenarios))
          ++failures;
      }
    }
    // The hot-spot preset (Chord, top-down): replication racing kills under
    // the load-balance invariant, as in the socket battery.
    const ScenarioConfig hot = ScenarioConfig::hot_spot_preset(seed);
    if ((!only_deployment || hot.deployment == *only_deployment) &&
        (!only_strategy || hot.strategy == *only_strategy) &&
        !run_one(runner, hot, shrink, verbose, scenarios))
      ++failures;
  };

  if (single_seed) {
    sweep_seed(*single_seed);
  } else {
    const std::size_t n = count.value_or(sock ? 8 : 15);
    for (std::uint64_t seed = start; seed < start + n; ++seed)
      sweep_seed(seed);
  }

  std::printf("%zu scenario(s), %zu failure(s)\n", scenarios, failures);
  return failures == 0 ? 0 : 1;
}
