// §3.5 — complexity of the operations, validated on the real message
// protocol over the Chord overlay (not the cost model):
//
//   pin search       1 routed query (O(log n) hops) + 1 direct reply
//   insert / delete  1 reference placement + 1 index-entry message
//   superset search  <= 2 * 2^(r - |One(F_h(K))|) coordination messages;
//                    sequential time ~ subcube size; level-parallel time
//                    r - |One| rounds, level by level as the paper
//                    dispatches it (coalescing off). The default index
//                    runs an exhaustive search's whole subcube in one
//                    round, reported beside it as an extension.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "dht/chord_network.hpp"
#include "dht/dolr.hpp"
#include "index/overlay_index.hpp"

int main() {
  using namespace hkws;
  constexpr std::size_t kPeers = 64;
  constexpr int kR = 8;

  sim::EventQueue clock;
  sim::Network net(clock);
  auto dht = dht::ChordNetwork::build(net, kPeers, {});
  dht::Dolr dolr(dht);
  index::OverlayIndex overlay(dolr, {.r = kR, .cache_capacity = 0});

  const auto corpus = bench::paper_corpus(2000);

  bench::banner("Insert cost (paper: one lookup for the reference, one for "
                "the index entry)");
  double dolr_hops = 0, index_hops = 0;
  std::size_t indexed = 0;
  for (const auto& rec : corpus.records()) {
    overlay.publish(1 + rec.id % kPeers, rec.id, rec.keywords,
                    [&](const index::OverlayIndex::PublishResult& r) {
                      dolr_hops += r.dolr_hops;
                      index_hops += r.index_hops;
                      indexed += r.indexed ? 1 : 0;
                    });
  }
  clock.run();
  std::printf("objects published      = %zu (all first copies: %zu)\n",
              corpus.size(), indexed);
  std::printf("avg reference hops     = %.2f (O(log %zu) ~ %.1f)\n",
              dolr_hops / static_cast<double>(corpus.size()), kPeers,
              std::log2(static_cast<double>(kPeers)));
  std::printf("avg index-entry hops   = %.2f\n",
              index_hops / static_cast<double>(corpus.size()));

  bench::banner("Pin search (paper: 1 query message + 1 result message)");
  double pin_msgs = 0, pin_nodes = 0;
  int pins = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    std::optional<index::SearchResult> res;
    overlay.pin_search(1, corpus[i * 17].keywords,
                       [&](const index::SearchResult& r) { res = r; });
    clock.run();
    if (!res) continue;
    pin_msgs += static_cast<double>(res->stats.messages);
    pin_nodes += static_cast<double>(res->stats.nodes_contacted);
    ++pins;
  }
  std::printf("avg messages = %.2f (= routed hops + direct reply)\n",
              pin_msgs / pins);
  std::printf("avg index nodes touched = %.2f (paper: exactly 1)\n",
              pin_nodes / pins);

  bench::banner("Superset search vs the 2 * 2^(r-|One|) message bound");
  std::printf("%-4s %-6s %-9s %-9s %-10s %-10s %-8s %-8s\n", "m", "|One|",
              "subcube", "nodes", "messages", "bound", "seqRnds", "parLvls");
  const auto queries = bench::paper_queries(corpus, 1000);
  for (std::size_t m = 1; m <= 4; ++m) {
    const auto sets = queries.popular_sets(m, 5);
    for (const auto& q : sets) {
      const auto root = overlay.responsible_node(q);
      const auto ones = cube::Hypercube::one_count(root);
      const auto subcube = overlay.cube().subcube_size(root);

      // Warm the contact caches so coordination messages are direct, as in
      // the paper's cost model; then measure.
      std::optional<index::SearchResult> warmup;
      overlay.superset_search(1, q, 0,
                              index::SearchStrategy::kTopDownSequential,
                              [&](const index::SearchResult& r) { warmup = r; });
      clock.run();
      std::optional<index::SearchResult> seq, par;
      overlay.superset_search(1, q, 0,
                              index::SearchStrategy::kTopDownSequential,
                              [&](const index::SearchResult& r) { seq = r; });
      clock.run();
      overlay.superset_search(1, q, 0, index::SearchStrategy::kLevelParallel,
                              [&](const index::SearchResult& r) { par = r; });
      clock.run();
      if (!seq || !par) continue;
      std::printf("%-4zu %-6d %-9llu %-9zu %-10zu %-10llu %-8zu %-8zu\n", m,
                  ones, static_cast<unsigned long long>(subcube),
                  seq->stats.nodes_contacted, seq->stats.messages,
                  static_cast<unsigned long long>(2 * subcube + 2),
                  seq->stats.rounds, par->stats.levels);
    }
  }
  std::printf("\nlevel-parallel levels should equal r - |One| + 1 = the\n"
              "subcube dimension + 1 (the paper's r - |One| speed-up).\n");

  // --- Simulated wall-clock latency under random per-message delays -------
  bench::banner("Search latency in simulated time (per-message delay 1-10)");
  {
    // Two identical deployments. "parallel" is the paper's level-by-level
    // dispatch (coalescing off); "one round" is the default index, whose
    // exhaustive search visits the whole subcube in one round.
    struct Deployment {
      sim::EventQueue clock;
      sim::Network net{clock, std::make_unique<sim::UniformLatency>(1, 10),
                       7};
      dht::ChordNetwork dht = dht::ChordNetwork::build(net, kPeers, {});
      dht::Dolr dolr{dht};
      index::OverlayIndex idx;

      Deployment(bool coalesce, const workload::Corpus& corpus)
          : idx(dolr, {.r = kR, .coalesce_visits = coalesce}) {
        for (const auto& rec : corpus.records())
          idx.publish(1 + rec.id % kPeers, rec.id, rec.keywords);
        clock.run();
      }

      /// Simulated time of one exhaustive search.
      sim::Time time(const KeywordSet& q, index::SearchStrategy strategy) {
        const auto t0 = clock.now();
        idx.superset_search(1, q, 0, strategy,
                            [](const index::SearchResult&) {});
        clock.run();
        return clock.now() - t0;
      }

      /// Sequential and level-parallel times, after a warm-up search that
      /// learns the contacts, so both pay direct-message latencies.
      std::pair<sim::Time, sim::Time> times(const KeywordSet& q) {
        time(q, index::SearchStrategy::kTopDownSequential);
        const sim::Time seq =
            time(q, index::SearchStrategy::kTopDownSequential);
        return {seq, time(q, index::SearchStrategy::kLevelParallel)};
      }
    };
    Deployment level_rounds(false, corpus), one_round(true, corpus);

    std::printf("%-4s %-9s %14s %14s %8s %10s\n", "m", "subcube",
                "sequential", "parallel", "ratio", "one round");
    for (std::size_t m = 1; m <= 3; ++m) {
      for (const auto& q : queries.popular_sets(m, 3)) {
        const auto subcube = level_rounds.idx.cube().subcube_size(
            level_rounds.idx.responsible_node(q));
        const auto [seq_time, par_time] = level_rounds.times(q);
        const sim::Time one_time = one_round.times(q).second;
        std::printf("%-4zu %-9llu %14llu %14llu %7.1fx %10llu\n", m,
                    static_cast<unsigned long long>(subcube),
                    static_cast<unsigned long long>(seq_time),
                    static_cast<unsigned long long>(par_time),
                    par_time == 0
                        ? 0.0
                        : static_cast<double>(seq_time) /
                              static_cast<double>(par_time),
                    static_cast<unsigned long long>(one_time));
      }
    }
    std::printf("(sequential time grows with the subcube size; parallel\n"
                "time with its dimension — the paper's §3.5 distinction.\n"
                "One round, an extension: the whole subcube at once, one\n"
                "message per peer)\n");
  }
  return 0;
}
