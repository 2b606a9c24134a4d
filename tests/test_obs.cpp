#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dht/chord_network.hpp"
#include "engine/query_engine.hpp"
#include "obs/trace_reader.hpp"
#include "obs/trace_summary.hpp"
#include "obs/windowed.hpp"
#include "torture/scenario.hpp"

namespace hkws::obs {
namespace {

// --- Tracer -----------------------------------------------------------------

TEST(Tracer, TracksOpenSpansPerTrack) {
  Tracer t;
  t.begin(10, 1, "query");
  t.begin(12, 1, "root_lookup");
  t.begin(11, 2, "query");
  EXPECT_EQ(t.open_spans(1), 2u);
  EXPECT_EQ(t.open_top(1), "root_lookup");
  EXPECT_EQ(t.open_top(2), "query");
  t.end(20, 1);
  EXPECT_EQ(t.open_top(1), "query");
  t.close_open(30, 1);
  EXPECT_EQ(t.open_spans(1), 0u);
  EXPECT_EQ(t.open_spans(2), 1u);
  EXPECT_TRUE(span_imbalance(t.events()).count(2));
  t.close_open(31, 2);
  EXPECT_TRUE(span_imbalance(t.events()).empty());
}

TEST(Tracer, EndWithoutOpenSpanIsIgnored) {
  Tracer t;
  t.end(5, 7);
  EXPECT_TRUE(t.events().empty());
  EXPECT_TRUE(span_imbalance(t.events()).empty());
}

TEST(Tracer, CapKeepsTraceBalanced) {
  // Past the cap, new spans and instants are dropped (and counted) but the
  // end events of already-open spans are still recorded: a truncated trace
  // must still balance or traceview --check would reject every capped run.
  Tracer t(3);
  t.begin(1, 1, "query");
  t.begin(2, 1, "root_lookup");
  t.instant(3, 1, "scan");          // 3rd event: at cap
  t.instant(4, 1, "scan");          // dropped
  t.begin(5, 2, "query");           // dropped
  t.end(6, 2);                      // no open span on 2: ignored
  t.end(7, 1);                      // recorded: root_lookup was open
  t.close_open(8, 1);               // recorded: query was open
  EXPECT_EQ(t.events().size(), 5u);
  EXPECT_EQ(t.dropped(), 2u);
  EXPECT_TRUE(span_imbalance(t.events()).empty());
}

// --- Chrome JSON round trip -------------------------------------------------

TEST(TraceJson, RoundTripsThroughParser) {
  Tracer t;
  t.begin(100, 1, "query", "engine", 3);
  t.begin(120, 1, "root_lookup", "engine");
  t.instant(150, 1, "root", "proto", 9, 4);
  t.end(150, 1);
  t.begin(150, 1, "level", "proto", 0, 2);
  t.instant(160, 1, "scan", "proto", 17, 5);
  t.end(170, 1);
  t.instant(170, 1, "complete", "engine", 12);
  t.close_open(170, 1);
  t.instant(105, 0, "T_QUERY", "net", 2, 9);

  const ParsedTrace parsed = parse_chrome_trace(t.to_chrome_json());
  ASSERT_EQ(parsed.events.size(), t.events().size());
  EXPECT_EQ(parsed.dropped, 0u);
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    const TraceEvent& want = t.events()[i];
    const TraceEvent& got = parsed.events[i];
    EXPECT_EQ(got.ts, want.ts) << i;
    EXPECT_EQ(got.tid, want.tid) << i;
    EXPECT_EQ(got.ph, want.ph) << i;
    EXPECT_EQ(got.name, want.name) << i;
    EXPECT_EQ(got.a, want.a) << i;
    EXPECT_EQ(got.b, want.b) << i;
  }
  EXPECT_TRUE(span_imbalance(parsed.events).empty());
}

TEST(TraceJson, EscapesAndReportsDropped) {
  Tracer t(1);
  t.instant(1, 0, "he said \"hi\"\n", "cat\\path");
  t.instant(2, 0, "over cap");
  const ParsedTrace parsed = parse_chrome_trace(t.to_chrome_json());
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].name, "he said \"hi\"\n");
  EXPECT_EQ(parsed.events[0].cat, "cat\\path");
  EXPECT_EQ(parsed.dropped, 1u);
}

TEST(TraceJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_chrome_trace("not json"), std::runtime_error);
  EXPECT_THROW(parse_chrome_trace("{\"traceEvents\":[{]}"),
               std::runtime_error);
  EXPECT_THROW(parse_chrome_trace("{\"noEvents\":1}"), std::runtime_error);
}

TEST(TraceJson, ParsesBareArraysAndSkipsMetadataEvents) {
  const char* doc =
      "[{\"name\":\"q\",\"ph\":\"B\",\"ts\":5,\"pid\":1,\"tid\":3},"
      " {\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
      "\"tid\":0},"
      " {\"name\":\"q\",\"ph\":\"E\",\"ts\":9,\"pid\":1,\"tid\":3}]";
  const ParsedTrace parsed = parse_chrome_trace(doc);
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_EQ(parsed.events[0].ph, 'B');
  EXPECT_EQ(parsed.events[1].ph, 'E');
  EXPECT_TRUE(span_imbalance(parsed.events).empty());
}

// --- Engine integration round trip ------------------------------------------

struct EngineNet {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<index::KeywordSearchService> service;

  EngineNet() {
    net = std::make_unique<sim::Network>(
        clock, std::make_unique<sim::UniformLatency>(1, 20), 99);
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*net, 24, {}));
    index::KeywordSearchService::Options opts;
    opts.r = 6;
    opts.cache_capacity = 32;
    service = std::make_unique<index::KeywordSearchService>(*dht, opts);
  }
};

TEST(TraceJson, EngineRunExportsBalancedTrace) {
  EngineNet t;
  const std::vector<KeywordSet> sets = {
      KeywordSet{"alpha", "beta"}, KeywordSet{"beta", "gamma"},
      KeywordSet{"alpha", "gamma"}, KeywordSet{"beta"},
  };
  for (std::size_t i = 0; i < sets.size(); ++i)
    t.service->publish(2 + i % 10, static_cast<ObjectId>(i + 1), sets[i]);
  t.clock.run();

  Tracer tracer;
  WindowedMetrics windows(50);
  engine::EngineConfig cfg;
  cfg.max_in_flight = 2;  // forces backlog spans
  cfg.search.limit = 0;
  cfg.tracer = &tracer;
  cfg.windows = &windows;
  engine::QueryEngine engine(*t.service, t.clock, cfg);
  attach_network(tracer, *t.net);

  const std::vector<KeywordSet> queries = {
      KeywordSet{"alpha"}, KeywordSet{"beta"}, KeywordSet{"gamma"},
      KeywordSet{"alpha", "beta"}, KeywordSet{"beta", "gamma"},
  };
  for (const auto& q : queries) engine.submit(3, q);
  t.clock.run();
  ASSERT_EQ(engine.records().size(), queries.size());

  // Round trip: export, parse, balance per query track.
  const ParsedTrace parsed = parse_chrome_trace(tracer.to_chrome_json());
  EXPECT_FALSE(parsed.events.empty());
  EXPECT_TRUE(span_imbalance(parsed.events).empty());

  // Every query shows up as a timeline with a terminal outcome.
  const TraceSummary summary = summarize(parsed.events);
  EXPECT_TRUE(summary.balanced);
  ASSERT_EQ(summary.queries.size(), queries.size());
  for (const auto& q : summary.queries) {
    EXPECT_EQ(q.outcome, "complete") << "query " << q.id;
    EXPECT_GE(q.finish, q.start);
  }
  EXPECT_EQ(summary.outcomes.at("complete"), queries.size());

  // The wire traffic landed on the global track.
  bool saw_net = false;
  for (const auto& e : parsed.events)
    if (e.tid == 0 && e.ph == 'i') saw_net = true;
  EXPECT_TRUE(saw_net);

  // And the windowed sink saw the run.
  EXPECT_FALSE(windows.empty());
  std::uint64_t completed = 0;
  for (const auto& [k, w] : windows.windows()) {
    const auto it = w.counters.find("completed");
    if (it != w.counters.end()) completed += it->second;
  }
  EXPECT_EQ(completed, queries.size());
}

TEST(TraceJson, TortureRunnerExportsBalancedTrace) {
  Tracer tracer;
  torture::ScenarioRunner runner;
  runner.set_tracer(&tracer);
  const auto cfg = torture::ScenarioConfig::from_seed(
      3, torture::Deployment::kChord,
      index::SearchStrategy::kTopDownSequential);
  const auto rep = runner.run(cfg);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_FALSE(tracer.events().empty());
  const ParsedTrace parsed = parse_chrome_trace(tracer.to_chrome_json());
  EXPECT_TRUE(span_imbalance(parsed.events).empty());
  // Rounds were traced on the global track; wire sends rode along.
  std::size_t rounds = 0;
  bool saw_net = false;
  for (const auto& e : parsed.events) {
    if (e.ph == 'B' && e.name == "round") ++rounds;
    if (e.cat == "net" || e.cat == "net.lost") saw_net = true;
  }
  EXPECT_EQ(rounds, cfg.rounds);
  EXPECT_TRUE(saw_net);
}

// --- Windowed metrics -------------------------------------------------------

TEST(WindowedMetrics, BucketsBySimTime) {
  WindowedMetrics w(100);
  w.count(0, "submitted");
  w.count(99, "submitted");
  w.count(100, "submitted");
  w.gauge(10, "in_flight", 3);
  w.gauge(20, "in_flight", 7);
  w.gauge(30, "in_flight", 5);
  w.observe(150, "latency", 10);
  w.observe(160, "latency", 30);

  ASSERT_EQ(w.windows().size(), 2u);
  const auto& w0 = w.windows().at(0);
  const auto& w1 = w.windows().at(1);
  EXPECT_EQ(w0.start, 0u);
  EXPECT_EQ(w1.start, 100u);
  EXPECT_EQ(w0.counters.at("submitted"), 2u);
  EXPECT_EQ(w1.counters.at("submitted"), 1u);
  EXPECT_DOUBLE_EQ(w0.gauges.at("in_flight"), 7.0);  // max within window
  ASSERT_EQ(w1.samples.at("latency").size(), 2u);
}

// Windows are half-open [k*width, (k+1)*width): the last tick of window k
// and the first tick of window k+1 must never share a bucket, and window
// indices are computed in 64 bits (a long-horizon serving run overflows
// 32-bit index arithmetic).
TEST(WindowedMetrics, WindowBoundariesAreHalfOpenAndSixtyFourBit) {
  WindowedMetrics w(100);
  w.count(199, "x");  // last tick of window 1
  w.count(200, "x");  // first tick of window 2
  w.count(200, "x");
  w.gauge(299, "g", 9);  // last tick of window 2
  w.gauge(300, "g", 2);  // first tick of window 3: no max-carryover
  ASSERT_EQ(w.windows().size(), 3u);
  EXPECT_EQ(w.windows().at(1).start, 100u);
  EXPECT_EQ(w.windows().at(2).start, 200u);
  EXPECT_EQ(w.windows().at(3).start, 300u);
  EXPECT_EQ(w.windows().at(1).counters.at("x"), 1u);
  EXPECT_EQ(w.windows().at(2).counters.at("x"), 2u);
  EXPECT_DOUBLE_EQ(w.windows().at(2).gauges.at("g"), 9.0);
  EXPECT_DOUBLE_EQ(w.windows().at(3).gauges.at("g"), 2.0);

  // Width 1: every tick is its own window.
  WindowedMetrics fine(1);
  fine.count(0, "x");
  fine.count(1, "x");
  ASSERT_EQ(fine.windows().size(), 2u);
  EXPECT_EQ(fine.windows().at(0).counters.at("x"), 1u);
  EXPECT_EQ(fine.windows().at(1).counters.at("x"), 1u);

  // Past 2^32 ticks the index and start must still be exact.
  WindowedMetrics wide(100);
  const sim::Time far = 10'000'000'001ULL;
  wide.count(far, "x");
  ASSERT_EQ(wide.windows().size(), 1u);
  const auto& [idx, win] = *wide.windows().begin();
  EXPECT_EQ(idx, 100'000'000u);
  EXPECT_EQ(win.start, 10'000'000'000ULL);
}

TEST(WindowedMetrics, RejectsZeroWidth) {
  EXPECT_THROW(WindowedMetrics(0), std::invalid_argument);
}

TEST(WindowedMetrics, JsonExportHasSchema) {
  WindowedMetrics w(100);
  w.count(5, "submitted", 3);
  w.observe(7, "latency", 12.5);
  w.gauge(9, "backlog", 4);
  const std::string json = w.to_json();
  EXPECT_NE(json.find("\"window\":100"), std::string::npos);
  EXPECT_NE(json.find("\"start\":0"), std::string::npos);
  EXPECT_NE(json.find("\"submitted\":3"), std::string::npos);
  EXPECT_NE(json.find("\"backlog\":4"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(WindowedMetrics, PrometheusExportAggregates) {
  WindowedMetrics w(100);
  w.count(5, "submitted", 3);
  w.count(150, "submitted", 2);
  w.observe(10, "latency ms", 5);   // name gets sanitized
  w.observe(120, "latency ms", 15);
  w.gauge(10, "in_flight", 9);
  w.gauge(150, "in_flight", 4);
  const std::string text = w.to_prometheus();
  EXPECT_NE(text.find("hkws_submitted_total 5"), std::string::npos);
  EXPECT_NE(text.find("hkws_latency_ms{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("hkws_latency_ms_count 2"), std::string::npos);
  // Gauge reports the latest window's level, not the all-run max.
  EXPECT_NE(text.find("hkws_in_flight 4"), std::string::npos);
}

// --- Golden summaries -------------------------------------------------------

/// A fixed two-query trace: query 1 waits in the backlog, resolves its root,
/// scans two levels and completes; query 2 is shed at admission.
std::vector<TraceEvent> golden_events() {
  Tracer t;
  t.begin(100, 1, "query", "engine", 0);
  t.begin(100, 1, "backlog", "engine");
  t.end(140, 1);
  t.begin(140, 1, "root_lookup", "engine");
  t.instant(180, 1, "root", "proto", 7, 3);
  t.end(180, 1);
  t.begin(180, 1, "level", "proto", 0, 1);
  t.instant(200, 1, "scan", "proto", 4, 7);
  t.end(210, 1);
  t.begin(210, 1, "level", "proto", 1, 2);
  t.instant(230, 1, "scan", "proto", 5, 9);
  t.instant(240, 1, "retransmit", "proto", 9);
  t.instant(260, 1, "complete", "engine", 12);
  t.close_open(260, 1);
  t.begin(150, 2, "query", "engine", 1);
  t.instant(150, 2, "shed", "engine");
  t.close_open(150, 2);
  return t.events();
}

TEST(TraceSummaryGolden, RenderSummary) {
  const TraceSummary summary = summarize(golden_events());
  const std::string golden =
      "trace summary: 18 events, 2 queries, spans balanced\n"
      "outcomes: complete=1 shed=1\n"
      "phase breakdown over 1 completed queries (ticks):\n"
      "  backlog      mean=40.0 p50=40.0 p95=40.0\n"
      "  root_lookup  mean=40.0 p50=40.0 p95=40.0\n"
      "  scan         mean=80.0 p50=80.0 p95=80.0\n"
      "  total        mean=160.0 p50=160.0 p95=160.0\n"
      "slowest queries:\n"
      "  id       latency  backlog  root     scan     levels scans rtx "
      "outcome\n"
      "  1        160      40       40       80       2      2     1   "
      "complete\n";
  EXPECT_EQ(render_summary(summary, 5), golden);
}

TEST(TraceSummaryGolden, RenderHopTree) {
  const std::string golden =
      "query 1 hop tree:\n"
      "  query (priority=0) @100\n"
      "    backlog @100\n"
      "    root_lookup @140\n"
      "      root: peer=7 hops=3 @180\n"
      "    level 0 (width 1) @180\n"
      "      scan: cube=4 peer=7 @200\n"
      "    level 1 (width 2) @210\n"
      "      scan: cube=5 peer=9 @230\n"
      "      retransmit: node=9 @240\n"
      "      complete: hits=12 @260\n";
  EXPECT_EQ(render_hop_tree(golden_events(), 1), golden);
  EXPECT_TRUE(render_hop_tree(golden_events(), 99).empty());
}

}  // namespace
}  // namespace hkws::obs
