// Micro-benchmarks (google-benchmark) for the primitives every operation is
// built from: hashing, hypercube math, SBT traversal, index-table access,
// searches (in-process and over the simulated overlay), and DHT lookups.
#include <benchmark/benchmark.h>

#include <map>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "cube/sbt.hpp"
#include "analysis/occupancy.hpp"
#include "dht/chord_network.hpp"
#include "dht/dolr.hpp"
#include "dht/pastry_network.hpp"
#include "index/index_table.hpp"
#include "index/keyword_hash.hpp"
#include "index/logical_index.hpp"
#include "index/overlay_index.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "workload/corpus_generator.hpp"
#include "workload/query_generator.hpp"

namespace {

using namespace hkws;

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 0x12345;
  for (auto _ : state) benchmark::DoNotOptimize(x = mix64(x));
}
BENCHMARK(BM_Mix64);

void BM_HashKeyword(benchmark::State& state) {
  const std::string word = "telecommunication";
  for (auto _ : state)
    benchmark::DoNotOptimize(hash_bytes(word, seeds::kKeywordHash));
}
BENCHMARK(BM_HashKeyword);

void BM_ResponsibleNode(benchmark::State& state) {
  index::KeywordHasher hasher(static_cast<int>(state.range(0)));
  const KeywordSet keywords(
      {"isp", "telecom", "network", "download", "news", "tv", "sports"});
  for (auto _ : state)
    benchmark::DoNotOptimize(hasher.responsible_node(keywords));
}
BENCHMARK(BM_ResponsibleNode)->Arg(10)->Arg(16);

void BM_SbtBfsOrder(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  cube::Hypercube cube(r);
  cube::SpanningBinomialTree sbt(cube, 0b11);
  for (auto _ : state) benchmark::DoNotOptimize(sbt.bfs_order());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sbt.size()));
}
BENCHMARK(BM_SbtBfsOrder)->Arg(10)->Arg(14);

void BM_SubcubeEnumeration(benchmark::State& state) {
  cube::Hypercube cube(static_cast<int>(state.range(0)));
  std::uint64_t acc = 0;
  for (auto _ : state) {
    cube.for_each_in_subcube(0b101, [&](cube::CubeId w) { acc ^= w; });
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SubcubeEnumeration)->Arg(10)->Arg(14);

index::LogicalIndex& bench_index() {
  static index::LogicalIndex idx = [] {
    index::LogicalIndex built({.r = 10});
    Rng rng(5);
    for (ObjectId o = 1; o <= 20000; ++o) {
      std::vector<Keyword> words;
      const int n = 1 + static_cast<int>(rng.next_below(9));
      for (int i = 0; i < n; ++i)
        words.push_back("kw" + std::to_string(rng.next_below(5000)));
      built.insert(o, KeywordSet(std::move(words)));
    }
    return built;
  }();
  return idx;
}

void BM_IndexInsertRemove(benchmark::State& state) {
  auto& idx = bench_index();
  const KeywordSet k({"bench", "insert", "remove"});
  ObjectId o = 1000000;
  for (auto _ : state) {
    idx.insert(o, k);
    idx.remove(o, k);
    ++o;
  }
}
BENCHMARK(BM_IndexInsertRemove);

void BM_PinSearch(benchmark::State& state) {
  auto& idx = bench_index();
  const KeywordSet k({"kw1", "kw2"});
  for (auto _ : state) benchmark::DoNotOptimize(idx.pin_search(k));
}
BENCHMARK(BM_PinSearch);

void BM_SupersetSearchThreshold(benchmark::State& state) {
  auto& idx = bench_index();
  const KeywordSet q({"kw1"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        idx.superset_search(q, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_SupersetSearchThreshold)->Arg(10)->Arg(100)->Arg(0);

void BM_TraversalProfile(benchmark::State& state) {
  auto& idx = bench_index();
  const KeywordSet q({"kw2", "kw3"});
  for (auto _ : state) benchmark::DoNotOptimize(idx.traversal_profile(q));
}
BENCHMARK(BM_TraversalProfile);

// One visit's table scan in isolation (in situ it is part of
// perfbench's proto.handler_us_per_op). The table is the fullest of the
// 2^10 tables the benchmark corpus's first 25 000 objects fill at r = 10;
// the probe is one keyword, prepared once as a search prepares its query.
// Absent (arg 0): the corpus's most frequent keyword the table lacks, the
// common case of a level-parallel visit. Present (arg 1): the first
// keyword, in keyword order, held by the fewest of the table's entries.
struct ScanFixture {
  std::vector<index::IndexTable> tables;
  const index::IndexTable* table = nullptr;
  Keyword absent;
  Keyword present;
};

const ScanFixture& scan_fixture() {
  static const ScanFixture fixture = [] {
    workload::CorpusConfig cfg;
    cfg.object_count = 25000;
    const workload::Corpus corpus = workload::CorpusGenerator(cfg).generate();
    const index::KeywordHasher hasher(10);
    ScanFixture f;
    f.tables.resize(1U << 10);
    for (const workload::ObjectRecord& rec : corpus.records())
      f.tables[hasher.responsible_node(rec.keywords)].add(rec.keywords,
                                                          rec.id);
    f.table = &f.tables[0];
    for (const index::IndexTable& t : f.tables)
      if (t.entry_count() > f.table->entry_count()) f.table = &t;
    std::map<Keyword, std::size_t> held;
    for (const auto& [k, objects] : f.table->entries())
      for (const Keyword& w : k) ++held[w];
    std::size_t fewest = ~std::size_t{0};
    for (const auto& [w, n] : held)
      if (n < fewest) {
        fewest = n;
        f.present = w;
      }
    for (const auto& [w, n] : corpus.keyword_frequencies())
      if (!held.contains(w)) {
        f.absent = w;
        break;
      }
    return f;
  }();
  return fixture;
}

void BM_TableScan(benchmark::State& state) {
  const ScanFixture& f = scan_fixture();
  const index::IndexTable::Query query(
      KeywordSet({state.range(0) != 0 ? f.present : f.absent}));
  std::vector<index::Hit> out;
  bool truncated = false;
  for (auto _ : state) {
    f.table->supersets_into(query, 0, &truncated, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["entries"] = static_cast<double>(f.table->entry_count());
  state.counters["hits"] = static_cast<double>(out.size());
}
BENCHMARK(BM_TableScan)->Arg(0)->Arg(1);

// One exhaustive superset search on a warm simulator overlay at perfbench's
// scale: r = 10, 224 Chord peers and the benchmark corpus's first 25 000
// objects. The search is level-parallel with coalescing on, so it visits
// its whole subcube in one round. It times the per-visit protocol path
// (table scans, destination grouping, result assembly and the simulated
// fabric's event dispatch) without sockets. Queries are
// drawn uniformly from the corpus's query universe, as perfbench's
// scan-read draws them, and each ran once before timing, so every
// coordinator's contacts are warm.
struct OverlayFixture {
  sim::EventQueue clock;
  sim::Network net{clock};
  dht::ChordNetwork dht = dht::ChordNetwork::build(net, 224, {});
  dht::Dolr dolr{dht};
  index::OverlayIndex index{dolr, {.r = 10}};
  std::vector<KeywordSet> queries;
  std::vector<sim::EndpointId> searchers;

  OverlayFixture() {
    workload::CorpusConfig cfg;
    cfg.object_count = 25000;
    const workload::Corpus corpus = workload::CorpusGenerator(cfg).generate();
    for (const dht::RingId id : dht.live_ids())
      searchers.push_back(dht.endpoint_of(id));
    std::size_t i = 0;
    for (const workload::ObjectRecord& rec : corpus.records())
      index.publish(searchers[i++ % searchers.size()], rec.id, rec.keywords);
    clock.run();
    const workload::QueryLogGenerator log(corpus, {});
    const std::vector<KeywordSet>& universe = log.universe();
    Rng rng(7);
    for (int q = 0; q < 256; ++q)
      queries.push_back(universe[rng.next_below(universe.size())]);
    for (std::size_t q = 0; q < queries.size(); ++q) search(q);
  }

  /// Runs query `q` to completion; returns its result's stats.
  index::SearchStats search(std::size_t q) {
    index::SearchStats stats;
    index.superset_search(searchers[q % searchers.size()],
                          queries[q % queries.size()], 0,
                          index::SearchStrategy::kLevelParallel,
                          [&](const index::SearchResult& r) {
                            stats = r.stats;
                          });
    clock.run();
    return stats;
  }
};

void BM_OverlayExhaustiveSearch(benchmark::State& state) {
  static OverlayFixture fixture;
  std::size_t q = 0;
  std::size_t visits = 0;
  std::size_t messages = 0;
  for (auto _ : state) {
    const index::SearchStats stats = fixture.search(q++);
    benchmark::DoNotOptimize(stats.nodes_contacted);
    visits += stats.nodes_contacted;
    messages += stats.messages;
  }
  const auto searches = static_cast<double>(state.iterations());
  state.counters["visits"] = static_cast<double>(visits) / searches;
  state.counters["msgs"] = static_cast<double>(messages) / searches;
  state.SetItemsProcessed(static_cast<std::int64_t>(visits));
}
BENCHMARK(BM_OverlayExhaustiveSearch)->Unit(benchmark::kMicrosecond);

void BM_ChordLookup(benchmark::State& state) {
  static sim::EventQueue clock;
  static sim::Network net(clock);
  static dht::ChordNetwork dht = dht::ChordNetwork::build(
      net, static_cast<std::size_t>(1024), {});
  const auto ids = dht.live_ids();
  Rng rng(7);
  for (auto _ : state) {
    const auto key = dht.space().clamp(rng.next_u64());
    const auto start = ids[rng.next_below(ids.size())];
    benchmark::DoNotOptimize(dht.lookup_now(start, key, "bench"));
  }
}
BENCHMARK(BM_ChordLookup);

void BM_PastryLookup(benchmark::State& state) {
  static sim::EventQueue clock;
  static sim::Network net(clock);
  static dht::PastryNetwork dht = dht::PastryNetwork::build(
      net, static_cast<std::size_t>(1024), {});
  const auto ids = dht.live_ids();
  Rng rng(7);
  for (auto _ : state) {
    const auto key = dht.space().clamp(rng.next_u64());
    const auto start = ids[rng.next_below(ids.size())];
    benchmark::DoNotOptimize(dht.lookup_now(start, key, "bench"));
  }
}
BENCHMARK(BM_PastryLookup);

void BM_OccupancyDistribution(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::occupancy_distribution(
        static_cast<int>(state.range(0)), 7));
}
BENCHMARK(BM_OccupancyDistribution)->Arg(10)->Arg(32);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int acc = 0;
    for (int i = 0; i < 1000; ++i)
      q.schedule_in(static_cast<sim::Time>(i % 17), [&acc] { ++acc; });
    q.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

}  // namespace
