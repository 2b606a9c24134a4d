// Serving-latency benchmark — the query-serving engine under open-loop
// Poisson load. Three parts:
//
//  A. Offered-QPS sweep (lossless, heavy-tailed LogNormal link latency):
//     the engine replays the Zipf query log at several offered rates and
//     reports p50/p95/p99 end-to-end latency, achieved QPS, in-flight and
//     backlog high-water marks, and shed/timeout counts. One run repeats
//     the middle rate with the query cache off to expose its latency win.
//     Sweep runs serve under adaptive (AIMD) admission; the headline
//     number is sustained_qps_at_slo — the highest offered rate served
//     with zero shed, zero timeouts, and steady-state p99 end-to-end
//     latency under kSloP99 ticks. "Steady-state" drops queries submitted
//     during the first quarter of the replay horizon: the AIMD limit ramps
//     from its cold-start value over the first few service intervals, and
//     that warm-up backlog is a property of the ramp, not of the sustained
//     rate under test.
//  B. Dimension sweep: the middle rate at r = 8 and r = 12.
//  C. Loss correctness: 1% message loss with retransmission enabled; every
//     query that did not time out must return exactly the result set of a
//     serial lossless baseline. A mismatch fails the benchmark (exit 1).
//  D. Churn sweep: the middle rate on a mirrored deployment while peers are
//     killed mid-run, with the self-healing maintenance plane racing the
//     load (plus one no-heal control). Every run reports availability
//     (= served/submitted, served = completed + degraded) and the
//     completeness rate among served queries (= completed/served).
//  E. Hot-spot pair: the middle rate on a log whose Zipf head is sharpened
//     so ~85% of queries hit its 3 most frequent keyword sets, once with
//     hot-cell replication off and once with the maintenance plane's
//     replication ticker promoting hot cells mid-run. The headline is the
//     max/mean scan-skew cut (and the CI gate pins the replicated run's
//     skew in bench/baselines/ci_perf.json).
//
// Scale knobs (independent of the generic HYPERKWS_* ones so CI reduction
// does not void the acceptance criteria):
//   HYPERKWS_SERVING_OBJECTS  corpus size         (default 25000)
//   HYPERKWS_SERVING_QUERIES  queries per run     (default 12000)
//   HYPERKWS_SERVING_LOSSQ    loss-phase queries  (default 1500)
//
// Machine-readable results land in BENCH_serving.json (cwd).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "engine/load_driver.hpp"
#include "engine/query_engine.hpp"
#include "maint/maintenance.hpp"
#include "net/fault_model.hpp"
#include "obs/trace.hpp"
#include "obs/windowed.hpp"
#include "workload/arrivals.hpp"

namespace {

using namespace hkws;

constexpr std::size_t kPeers = 224;
constexpr std::size_t kSearchers = 32;
constexpr double kLatencyMedian = 30.0;  // ticks (~ms): WAN-ish one-way
constexpr double kLatencySigma = 0.45;

struct Setup {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<index::KeywordSearchService> service;

  Setup(index::KeywordSearchService::Options opts, std::uint64_t seed) {
    net = std::make_unique<sim::Network>(
        clock, std::make_unique<sim::LogNormalLatency>(kLatencyMedian,
                                                       kLatencySigma),
        seed);
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*net, kPeers, {}));
    service = std::make_unique<index::KeywordSearchService>(*dht, opts);
  }

  void publish(const workload::Corpus& corpus) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const auto& rec = corpus[i];
      service->publish(1 + i % kPeers, rec.id, rec.keywords);
      // Keep the event heap shallow: drain while publishing.
      if (i % 512 == 511) clock.run();
    }
    clock.run();
  }
};

std::vector<sim::EndpointId> searcher_pool() {
  std::vector<sim::EndpointId> out;
  for (std::size_t i = 1; i <= kSearchers; ++i) out.push_back(i);
  return out;
}

/// Windowed time-series bucket width: 1 kilotick = 1 s at 1 tick = 1 ms.
constexpr sim::Time kWindowWidth = 1000;

/// Serving SLO for the headline: steady-state p99 end-to-end latency bound
/// (ticks), judged on queries submitted after the warm-up fraction of the
/// replay horizon.
constexpr double kSloP99 = 4000.0;
constexpr double kWarmupFraction = 0.25;

struct RunResult {
  std::string name;
  double offered_qps = 0;
  int r = 10;
  bool cache = true;
  engine::EngineReport report;
  std::string timeseries;  ///< obs::WindowedMetrics::to_json()
  /// Steady-state view (queries submitted after the warm-up fraction of the
  /// replay horizon): latency p50/p99 and completion rate. Zero when the
  /// steady window served nothing.
  double steady_p50 = 0;
  double steady_p99 = 0;
  double steady_qps = 0;
  // Part D (zero/true defaults for the non-churn runs, so every run object
  // in BENCH_serving.json carries the same columns):
  std::size_t kills = 0;      ///< peers killed mid-run
  bool self_healing = true;   ///< maintenance plane active
  bool converged = true;      ///< plane drained its backlog post-load
  std::uint64_t repair_work = 0;  ///< entries re-homed + replicas pushed
  /// Outstanding repair work when the run ended: 0 once the plane has
  /// converged; without it, the churn damage (stranded entries, lost
  /// replicas) that stays in the index — the mirror masks it from
  /// searches, but the next kill is unprotected.
  std::size_t backlog_end = 0;
};

/// Fraction of submitted queries that were served at all (completed or
/// degraded). Sheds, timeouts, and protocol failures all count against it.
double availability(const engine::EngineReport& rep) {
  if (rep.submitted == 0) return 1.0;
  return static_cast<double>(rep.completed + rep.degraded) /
         static_cast<double>(rep.submitted);
}

/// Among served queries, the fraction served complete (not via failover /
/// single-cube degraded mode).
double completeness_rate(const engine::EngineReport& rep) {
  const std::uint64_t served = rep.completed + rep.degraded;
  if (served == 0) return 1.0;
  return static_cast<double>(rep.completed) / static_cast<double>(served);
}

/// Whether a run met the serving SLO: nothing rejected or expired across
/// the whole run, and steady-state p99 bounded. An engine falling behind
/// the offered rate shows up here as unbounded backlog wait, so no separate
/// throughput criterion is needed.
bool slo_ok(const RunResult& run) {
  const engine::EngineReport& rep = run.report;
  return rep.shed == 0 && rep.timed_out == 0 && rep.failed == 0 &&
         run.steady_p99 > 0 && run.steady_p99 <= kSloP99;
}

/// Fills the steady-state fields of `run` from the finished records:
/// latency quantiles and completion rate over served queries submitted
/// after the warm-up fraction of the submission horizon.
void steady_state_view(const engine::QueryEngine& engine, RunResult& run) {
  const auto& records = engine.records();
  if (records.empty()) return;
  sim::Time first = records.front().submitted, last = first;
  for (const auto& rec : records) {
    first = std::min(first, rec.submitted);
    last = std::max(last, rec.submitted);
  }
  const sim::Time cutoff =
      first + static_cast<sim::Time>(kWarmupFraction *
                                     static_cast<double>(last - first));
  std::vector<double> lat;
  sim::Time last_finish = cutoff;
  for (const auto& rec : records) {
    if (rec.submitted < cutoff) continue;
    if (rec.outcome != engine::QueryOutcome::kCompleted &&
        rec.outcome != engine::QueryOutcome::kDegraded)
      continue;
    lat.push_back(static_cast<double>(rec.latency()));
    last_finish = std::max(last_finish, rec.finished);
  }
  if (lat.empty()) return;
  std::sort(lat.begin(), lat.end());
  const auto q = [&](double p) {
    return lat[static_cast<std::size_t>(p * static_cast<double>(lat.size() - 1))];
  };
  run.steady_p50 = q(0.50);
  run.steady_p99 = q(0.99);
  if (last_finish > cutoff)
    run.steady_qps = 1000.0 * static_cast<double>(lat.size()) /
                     static_cast<double>(last_finish - cutoff);
}

/// One open-loop serving run: fresh cluster, publish, replay at `qps`.
/// When `tracer` is non-null the engine's spans and (post-publish) the wire
/// sends of this run are captured into it.
RunResult serve_run(const std::string& name, const workload::Corpus& corpus,
                    const workload::QueryLog& log, double qps, int r,
                    bool cache, obs::Tracer* tracer = nullptr) {
  index::KeywordSearchService::Options opts;
  opts.r = r;
  opts.cache_capacity = cache ? 64 : 0;
  Setup setup(opts, 0xbe7c5 + static_cast<std::uint64_t>(qps));
  setup.publish(corpus);
  // Attach after publishing so the trace captures serving traffic only.
  if (tracer != nullptr) obs::attach_network(*tracer, *setup.net);

  obs::WindowedMetrics windows(kWindowWidth);
  engine::EngineConfig cfg;
  cfg.max_in_flight = 64;  // the AIMD controller's starting point
  cfg.max_backlog = 2000;  // floor of the adaptive backlog bound
  // Adaptive admission: the limit climbs while completions land under the
  // service-latency target and halves on overload, so the sweep finds the
  // serving capacity instead of pinning it at a guessed constant.
  cfg.adaptive.enabled = true;
  cfg.adaptive.latency_target = 4000;
  cfg.search.limit = 64;
  cfg.search.strategy = index::SearchStrategy::kLevelParallel;
  cfg.latency_reservoir = 4096;  // bounded memory over long runs
  cfg.tracer = tracer;
  cfg.windows = &windows;
  engine::QueryEngine engine(*setup.service, setup.clock, cfg);

  workload::PoissonArrivals arrivals(qps, 0xa11c + static_cast<std::uint64_t>(qps));
  engine::LoadDriver driver(engine, setup.clock, searcher_pool());
  driver.start(log, arrivals);
  setup.clock.run();

  RunResult result;
  result.name = name;
  result.offered_qps = qps;
  result.r = r;
  result.cache = cache;
  result.report = engine.report();
  result.timeseries = windows.to_json();
  steady_state_view(engine, result);

  std::printf("\n--- %s (offered %.0f qps, r=%d, cache=%s) ---\n",
              name.c_str(), qps, r, cache ? "on" : "off");
  std::fputs(result.report.to_string().c_str(), stdout);
  std::printf("steady: p50=%.0f p99=%.0f qps=%.1f -> slo=%s (p99 <= %.0f, "
              "zero shed/timeouts)\n",
              result.steady_p50, result.steady_p99, result.steady_qps,
              slo_ok(result) ? "met" : "MISSED", kSloP99);
  return result;
}

/// Part D: open-loop load on a mirrored deployment while `kills` peers die
/// mid-run. With `heal` the maintenance plane (heartbeat detection +
/// budgeted background repair) races the workload; without it the failures
/// stay unrepaired and serving leans on degraded mode for the rest of the
/// run. Repair budgets are raised above the torture-harness defaults — at
/// bench corpus sizes a kill strands thousands of entries, and the point
/// here is the availability/completeness trade, not repair pacing.
RunResult churn_run(const std::string& name, const workload::Corpus& corpus,
                    const workload::QueryLog& log, double qps,
                    std::size_t kills, bool heal) {
  obs::WindowedMetrics windows(kWindowWidth);  // shared: engine+plane+index
  index::KeywordSearchService::Options opts;
  opts.r = 10;
  opts.cache_capacity = 0;  // cached hits would mask degraded serving
  opts.mirror_index = true;
  opts.replication_factor = 3;
  opts.step_timeout = 800;  // >> p99 round trip at median 30
  opts.max_retries = 4;
  opts.failover_after = 2;
  opts.windows = &windows;
  Setup setup(opts, 0xc4a0 + kills * 2 + (heal ? 1 : 0));
  setup.publish(corpus);

  dht::ChordNetwork* chord = setup.dht.get();
  index::KeywordSearchService* svc = setup.service.get();
  maint::MaintenancePlane::Config mcfg;
  // The detector defaults assume near-instant links; this bench runs WAN-ish
  // LogNormal latency (median 30, sigma 0.45), so the ping timeout must sit
  // well above the p99.9 round trip or every probe "times out" and the
  // detector confirms healthy peers dead by the hundreds.
  mcfg.detector.period = 500;
  mcfg.detector.timeout = 400;
  mcfg.entries_per_tick = 64;
  mcfg.refs_per_tick = 64;
  maint::MaintenancePlane plane(*setup.net, mcfg, *chord, *svc);
  plane.set_windows(&windows);
  if (heal) plane.start();

  engine::EngineConfig cfg;
  cfg.max_in_flight = 64;
  cfg.max_backlog = 2000;
  cfg.deadline = 30000;  // bounds queries racing a kill, loose enough that
                         // backlog wait alone does not burn it
  cfg.search.limit = 64;
  cfg.search.strategy = index::SearchStrategy::kLevelParallel;
  cfg.latency_reservoir = 4096;
  cfg.windows = &windows;
  engine::QueryEngine engine(*setup.service, setup.clock, cfg);

  // Kills spread across the first half of the replay horizon (so a healing
  // plane has the second half to win back completeness), never a searcher
  // endpoint, deterministic victim choice.
  const sim::Time horizon = static_cast<sim::Time>(
      1000.0 * static_cast<double>(log.size()) / qps);
  for (std::size_t i = 0; i < kills; ++i) {
    const sim::EndpointId victim =
        kSearchers + 1 + (i * 29) % (kPeers - kSearchers);
    const sim::Time at = horizon * (i + 1) / (2 * (kills + 1));
    setup.clock.schedule_in(at, [chord, &plane, victim, heal] {
      if (!chord->is_live(victim)) return;
      if (heal) plane.note_true_failure(victim);
      chord->fail(victim);
    });
  }

  workload::PoissonArrivals arrivals(qps,
                                     0xc0a1 + static_cast<std::uint64_t>(qps));
  engine::LoadDriver driver(engine, setup.clock, searcher_pool());
  driver.start(log, arrivals);
  // run() would never return while the plane's heartbeat timers are armed;
  // drive the clock in windows until the replay drains (bounded).
  const sim::Time load_deadline = setup.clock.now() + horizon + 400000;
  while ((!driver.done() || engine.in_flight() != 0 ||
          engine.backlog() != 0) &&
         setup.clock.now() < load_deadline)
    setup.clock.run_until(setup.clock.now() + kWindowWidth);

  // Give the plane a bounded post-load convergence window, then stop it
  // and drain whatever is still on the wire.
  bool converged = !heal || plane.converged();
  for (int w = 0; heal && !converged && w < 400; ++w) {
    setup.clock.run_until(setup.clock.now() + 100);
    converged = plane.converged();
  }
  plane.stop();
  setup.clock.run();

  RunResult result;
  result.name = name;
  result.offered_qps = qps;
  result.r = opts.r;
  result.cache = false;
  result.report = engine.report();
  result.timeseries = windows.to_json();
  result.kills = kills;
  result.self_healing = heal;
  result.repair_work = plane.repair_work_done();
  result.backlog_end = svc->repair_backlog();
  // "Converged" means no outstanding damage, so the no-heal control
  // honestly reports false while its stranded backlog persists.
  result.converged = converged && result.backlog_end == 0;

  std::printf("\n--- %s (offered %.0f qps, kills=%zu, heal=%s) ---\n",
              name.c_str(), qps, kills, heal ? "on" : "off");
  std::fputs(result.report.to_string().c_str(), stdout);
  std::printf("availability=%.4f completeness_rate=%.4f converged=%s "
              "repair_work=%llu backlog_end=%zu\n",
              availability(result.report), completeness_rate(result.report),
              result.converged ? "yes" : "NO",
              static_cast<unsigned long long>(result.repair_work),
              result.backlog_end);
  return result;
}

/// Part E workload: sharpen the log's Zipf head so ~85% of queries hit its
/// three most frequent keyword sets — the skew profile PR-7's serving runs
/// exposed (one peer scanning ~50x the mean).
workload::QueryLog sharpen_hot_head(const workload::QueryLog& log) {
  const auto freq = log.frequencies();
  std::vector<KeywordSet> head;
  for (std::size_t i = 0; i < freq.size() && head.size() < 3; ++i)
    head.push_back(freq[i].first);
  Rng rng(0x407c311);
  std::vector<workload::Query> out = log.queries();
  if (!head.empty())
    for (auto& q : out)
      if (rng.next_bool(0.85))
        q.keywords = head[rng.next_below(head.size())];
  return workload::QueryLog(std::move(out));
}

/// Part E: the hot-head workload under open-loop load, with the
/// maintenance plane's always-on replication ticker promoting hot cells in
/// the background (or idling, for the control). The runs differ ONLY in
/// Options::hot.enabled, so the skew cut and the message overhead of
/// replication read off the off/on pair directly. Query cache off: cached
/// answers would absorb exactly the recurring head the skew measurement
/// needs on the wire.
RunResult hotspot_run(const std::string& name, const workload::Corpus& corpus,
                      const workload::QueryLog& log, double qps,
                      bool replication) {
  obs::WindowedMetrics windows(kWindowWidth);  // shared: engine+plane+index
  index::KeywordSearchService::Options opts;
  opts.r = 10;
  opts.cache_capacity = 0;
  opts.step_timeout = 800;  // >> p99 round trip at median 30
  opts.max_retries = 4;
  opts.failover_after = 2;
  opts.hot.enabled = replication;
  // Level-parallel head queries touch hundreds of cells each, so the hot
  // set is wide and moderately hot rather than narrow and extreme: promote
  // early (low min_scans) and cap generously, and use enough replicas that
  // the owner's 1/(replicas+1) residual share sits near the mean.
  opts.hot.replicas = 7;
  opts.hot.window = 20000;  // sliding: a scan counts for 20-40 s
  opts.hot.min_scans = 8;
  opts.hot.max_hot = 768;
  opts.windows = &windows;
  Setup setup(opts, 0x407 + (replication ? 1 : 0));
  setup.publish(corpus);

  maint::MaintenancePlane::Config mcfg;
  mcfg.detector.period = 500;  // WAN-ish latency: see churn_run
  mcfg.detector.timeout = 400;
  // Promote fast: at 160 qps the whole replay fits in ~7500 ticks, so a
  // lazy ticker would leave most of the load unspread.
  mcfg.replication_interval = 250;
  mcfg.replica_entries_per_tick = 8192;
  maint::MaintenancePlane plane(*setup.net, mcfg, *setup.dht, *setup.service);
  plane.set_windows(&windows);
  plane.start();

  engine::EngineConfig cfg;
  cfg.max_in_flight = 64;
  cfg.max_backlog = 2000;
  cfg.adaptive.enabled = true;
  cfg.adaptive.latency_target = 4000;
  cfg.search.limit = 64;
  cfg.search.strategy = index::SearchStrategy::kLevelParallel;
  cfg.latency_reservoir = 4096;
  cfg.windows = &windows;
  engine::QueryEngine engine(*setup.service, setup.clock, cfg);

  workload::PoissonArrivals arrivals(qps,
                                     0x407a + static_cast<std::uint64_t>(qps));
  engine::LoadDriver driver(engine, setup.clock, searcher_pool());
  driver.start(log, arrivals);
  // run() would never return while the plane's timers are armed; drive the
  // clock in windows until the replay drains (bounded).
  const sim::Time horizon = static_cast<sim::Time>(
      1000.0 * static_cast<double>(log.size()) / qps);
  const sim::Time load_deadline = setup.clock.now() + horizon + 400000;
  while ((!driver.done() || engine.in_flight() != 0 ||
          engine.backlog() != 0) &&
         setup.clock.now() < load_deadline)
    setup.clock.run_until(setup.clock.now() + kWindowWidth);
  plane.stop();
  setup.clock.run();

  RunResult result;
  result.name = name;
  result.offered_qps = qps;
  result.r = opts.r;
  result.cache = false;
  result.report = engine.report();
  result.timeseries = windows.to_json();
  steady_state_view(engine, result);

  std::printf("\n--- %s (offered %.0f qps, replication=%s) ---\n",
              name.c_str(), qps, replication ? "on" : "off");
  std::fputs(result.report.to_string().c_str(), stdout);
  std::printf("steady: p50=%.0f p99=%.0f qps=%.1f\n", result.steady_p50,
              result.steady_p99, result.steady_qps);
  return result;
}

std::set<ObjectId> id_set(const std::vector<index::Hit>& hits) {
  std::set<ObjectId> ids;
  for (const auto& h : hits) ids.insert(h.object);
  return ids;
}

struct LossCheck {
  std::size_t queries = 0;
  std::size_t compared = 0;
  std::size_t matched = 0;
  std::size_t timed_out = 0;
  std::size_t failed = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t messages_lost = 0;
  bool ok = false;
};

/// Part C: exhaustive searches under 1% loss vs a serial lossless baseline.
LossCheck loss_correctness(const workload::Corpus& corpus,
                           const workload::QueryLog& log) {
  index::KeywordSearchService::Options opts;
  opts.r = 10;
  opts.cache_capacity = 64;
  opts.step_timeout = 800;  // >> p99 round trip at median 30
  opts.max_retries = 6;

  // Serial lossless baseline over the distinct queries of the log.
  std::map<KeywordSet, std::set<ObjectId>> expected;
  {
    Setup base(opts, 0x5e41a1);
    base.publish(corpus);
    for (const auto& q : log.queries()) {
      if (expected.count(q.keywords)) continue;
      auto& slot = expected[q.keywords];
      base.service->search(
          1, q.keywords,
          {.limit = 0, .strategy = index::SearchStrategy::kLevelParallel},
          [&slot](const index::KeywordSearchService::Answer& a) {
            slot = id_set(a.hits);
          });
      base.clock.run();  // serial: one query at a time
    }
  }

  // The same cluster seeds, now with 1% loss switched on after publishing.
  Setup lossy(opts, 0x5e41a1);
  lossy.publish(corpus);
  lossy.net->set_fault_model(std::make_unique<net::BernoulliDrop>(0.01));

  engine::EngineConfig cfg;
  cfg.max_in_flight = 128;
  cfg.max_backlog = 4000;
  cfg.deadline = 15000;
  cfg.search.limit = 0;  // exhaustive, so results are comparable
  cfg.search.strategy = index::SearchStrategy::kLevelParallel;
  engine::QueryEngine engine(*lossy.service, lossy.clock, cfg);

  LossCheck check;
  check.queries = log.size();
  engine.set_on_finished([&](const engine::QueryRecord& rec) {
    switch (rec.outcome) {
      case engine::QueryOutcome::kTimedOut: ++check.timed_out; return;
      case engine::QueryOutcome::kFailed: ++check.failed; return;
      case engine::QueryOutcome::kShed: return;
      case engine::QueryOutcome::kCompleted: break;
    }
  });

  workload::PoissonArrivals arrivals(40.0, 0xfeed);
  engine::LoadDriver driver(engine, lossy.clock, searcher_pool());
  driver.start(log, arrivals);
  lossy.clock.run();

  // Hit-count comparison for every completed query (the engine records the
  // delivered result size), plus a full id-set comparison replayed serially
  // on the still-lossy cluster for the distinct queries.
  for (const auto& rec : engine.records()) {
    if (rec.outcome != engine::QueryOutcome::kCompleted) continue;
    const auto& q = log[static_cast<std::size_t>(rec.id - 1)].keywords;
    ++check.compared;
    if (rec.hits == expected[q].size()) ++check.matched;
  }

  // Exact id-level verification on the lossy cluster, serially.
  bool ids_ok = true;
  for (const auto& [q, want] : expected) {
    std::set<ObjectId> got;
    bool done = false;
    lossy.service->search(
        1, q,
        {.limit = 0, .strategy = index::SearchStrategy::kLevelParallel},
        [&](const index::KeywordSearchService::Answer& a) {
          if (!a.stats.failed) got = id_set(a.hits);
          done = !a.stats.failed;
        });
    lossy.clock.run();
    if (done && got != want) {
      ids_ok = false;
      std::printf("MISMATCH for query [%s]: got %zu ids, want %zu\n",
                  q.to_string().c_str(), got.size(), want.size());
    }
  }

  check.retransmits = engine.report().retransmits;
  check.messages_lost = lossy.net->messages_lost();
  check.ok = ids_ok && check.matched == check.compared && check.compared > 0;

  std::printf("\n--- loss correctness (1%% loss, exhaustive) ---\n");
  std::printf(
      "queries=%zu compared=%zu matched=%zu timed_out=%zu failed=%zu "
      "retransmits=%llu lost=%llu ok=%s\n",
      check.queries, check.compared, check.matched, check.timed_out,
      check.failed, static_cast<unsigned long long>(check.retransmits),
      static_cast<unsigned long long>(check.messages_lost),
      check.ok ? "yes" : "NO");
  return check;
}

}  // namespace

int main() {
  const std::size_t objects =
      bench::env_size("HYPERKWS_SERVING_OBJECTS", 25000);
  const std::size_t queries =
      bench::env_size("HYPERKWS_SERVING_QUERIES", 12000);
  const std::size_t loss_queries =
      bench::env_size("HYPERKWS_SERVING_LOSSQ", 1500);

  bench::banner("Serving latency under open-loop load");
  std::printf("objects=%zu queries/run=%zu loss-phase=%zu peers=%zu\n",
              objects, queries, loss_queries, kPeers);

  const auto corpus = bench::paper_corpus(objects);
  const auto generator = bench::paper_queries(corpus, queries);
  const workload::QueryLog log = generator.generate();

  std::vector<RunResult> runs;
  // The first sweep run is span-traced end to end; the trace file feeds
  // tools/traceview and the CI smoke check (docs/OBSERVABILITY.md).
  obs::Tracer tracer(400000);
  // Part A: offered-QPS sweep, cache on; middle rate repeated cache-off.
  bool trace_this = true;
  for (double qps : {40.0, 160.0, 640.0}) {
    runs.push_back(serve_run("sweep", corpus, log, qps, 10, true,
                             trace_this ? &tracer : nullptr));
    trace_this = false;
  }
  runs.push_back(serve_run("cacheless", corpus, log, 160.0, 10, false));
  // Part B: hypercube dimension at the middle rate.
  for (int r : {8, 12})
    runs.push_back(serve_run("dimension", corpus, log, 160.0, r, true));
  // Part D: churn sweep at the middle rate — self-healing at two kill
  // counts, plus the no-heal control at the heavier one.
  for (std::size_t kills : {4u, 8u})
    runs.push_back(churn_run("churn", corpus, log, 160.0, kills, true));
  runs.push_back(churn_run("churn-noheal", corpus, log, 160.0, 8, false));
  // Part E: hot-head workload at the middle rate, replication off and on.
  const workload::QueryLog hot_log = sharpen_hot_head(log);
  runs.push_back(
      hotspot_run("hotspot-noreplication", corpus, hot_log, 160.0, false));
  runs.push_back(hotspot_run("hotspot", corpus, hot_log, 160.0, true));

  // Part C: loss correctness on a truncated log.
  std::vector<workload::Query> head(
      log.queries().begin(),
      log.queries().begin() +
          static_cast<std::ptrdiff_t>(std::min(loss_queries, log.size())));
  const LossCheck check = loss_correctness(corpus, workload::QueryLog(head));

  // Headline: the highest offered rate the sweep served within the SLO.
  double sustained = 0.0;
  for (const RunResult& run : runs)
    if (run.name == "sweep" && slo_ok(run))
      sustained = std::max(sustained, run.offered_qps);
  std::printf("\nsustained_qps_at_slo=%.0f (zero shed/timeouts, steady p99 "
              "<= %.0f)\n",
              sustained, kSloP99);

  // Hot-spot headline: max/mean scan skew without and with replication.
  double skew_off = 0.0, skew_on = 0.0;
  for (const RunResult& run : runs) {
    if (run.name == "hotspot-noreplication")
      skew_off = run.report.scan_skew_max_over_mean;
    if (run.name == "hotspot") skew_on = run.report.scan_skew_max_over_mean;
  }
  std::printf("hot-spot scan skew: off=%.1fx on=%.1fx (%.1fx reduction)\n",
              skew_off, skew_on, skew_on > 0 ? skew_off / skew_on : 0.0);

  std::ofstream json("BENCH_serving.json");
  json << "{\"objects\":" << objects << ",\"queries\":" << queries
       << ",\"peers\":" << kPeers
       << ",\"sustained_qps_at_slo\":" << sustained
       << ",\"hot_spot\":{\"scan_skew_noreplication\":" << skew_off
       << ",\"scan_skew_replication\":" << skew_on << "}"
       << ",\"slo\":{\"p99_max\":" << kSloP99
       << ",\"warmup_fraction\":" << kWarmupFraction << "},\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i) json << ",";
    json << "{\"name\":\"" << runs[i].name
         << "\",\"offered_qps\":" << runs[i].offered_qps
         << ",\"r\":" << runs[i].r
         << ",\"cache\":" << (runs[i].cache ? "true" : "false")
         << ",\"slo_ok\":" << (slo_ok(runs[i]) ? "true" : "false")
         << ",\"steady_p50\":" << runs[i].steady_p50
         << ",\"steady_p99\":" << runs[i].steady_p99
         << ",\"steady_qps\":" << runs[i].steady_qps
         << ",\"availability\":" << availability(runs[i].report)
         << ",\"completeness_rate\":" << completeness_rate(runs[i].report)
         << ",\"kills\":" << runs[i].kills
         << ",\"self_healing\":" << (runs[i].self_healing ? "true" : "false")
         << ",\"converged\":" << (runs[i].converged ? "true" : "false")
         << ",\"repair_work\":" << runs[i].repair_work
         << ",\"repair_backlog_end\":" << runs[i].backlog_end
         << ",\"report\":" << runs[i].report.to_json()
         << ",\"timeseries\":" << runs[i].timeseries << "}";
  }
  json << "],\"loss_check\":{\"queries\":" << check.queries
       << ",\"compared\":" << check.compared
       << ",\"matched\":" << check.matched
       << ",\"timed_out\":" << check.timed_out
       << ",\"failed\":" << check.failed
       << ",\"retransmits\":" << check.retransmits
       << ",\"messages_lost\":" << check.messages_lost
       << ",\"ok\":" << (check.ok ? "true" : "false") << "}}\n";
  json.close();
  std::printf("\nwrote BENCH_serving.json\n");

  tracer.write_chrome_json("BENCH_serving_trace.json");
  std::printf("wrote BENCH_serving_trace.json (%zu events, %llu dropped)\n",
              tracer.events().size(),
              static_cast<unsigned long long>(tracer.dropped()));

  return check.ok ? 0 : 1;
}
