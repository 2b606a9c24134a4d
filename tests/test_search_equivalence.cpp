// Byte-identical equivalence of the superset-search fast path: the
// signature-indexed tables and the co-host VisitBatch coalescing are pure
// optimisations, so on seeded lossless runs the distributed OverlayIndex
// must produce the exact hit sequence (objects AND keyword sets, in order)
// of the in-process LogicalIndex reference — with coalescing on, with it
// off, with cold and with warm contact caches, and regardless of message
// latency, because hit assembly is deterministic in visit order. Ranking
// is applied on top and must agree too.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "cube/sbt.hpp"
#include "dht/chord_network.hpp"
#include "index/keyword_hash.hpp"
#include "index/logical_index.hpp"
#include "index/overlay_index.hpp"
#include "index/ranking.hpp"
#include "net/tcp_transport.hpp"

namespace hkws::index {
namespace {

constexpr int kR = 6;
constexpr std::size_t kPeers = 16;
constexpr std::size_t kObjects = 160;
constexpr std::size_t kVocab = 12;

std::map<ObjectId, KeywordSet> corpus(std::uint64_t seed) {
  std::map<ObjectId, KeywordSet> out;
  Rng rng(seed);
  for (ObjectId id = 1; id <= kObjects; ++id) {
    std::vector<Keyword> words;
    const std::size_t n = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < n; ++i)
      words.push_back("w" + std::to_string(rng.next_below(kVocab)));
    out[id] = KeywordSet(std::move(words));
  }
  return out;
}

struct Deployment {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<dht::Dolr> dolr;
  std::unique_ptr<OverlayIndex> index;

  Deployment(bool coalesce, std::unique_ptr<sim::LatencyModel> latency) {
    net = std::make_unique<sim::Network>(clock, std::move(latency));
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*net, kPeers, {}));
    dolr = std::make_unique<dht::Dolr>(*dht);
    index = std::make_unique<OverlayIndex>(
        *dolr, OverlayIndex::Config{.r = kR, .coalesce_visits = coalesce});
    for (const auto& [id, k] : corpus(0xc0ffee)) index->publish(1, id, k);
    clock.run();
  }

  SearchResult search(const KeywordSet& query, std::size_t threshold,
                      SearchStrategy strategy) {
    std::optional<SearchResult> result;
    index->superset_search(2, query, threshold, strategy,
                           [&](const SearchResult& r) { result = r; });
    clock.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(SearchResult{});
  }
};

std::vector<KeywordSet> probe_queries() {
  return {
      KeywordSet({"w0"}),       KeywordSet({"w3"}),
      KeywordSet({"w7"}),       KeywordSet({"w1", "w4"}),
      KeywordSet({"w2", "w8"}), KeywordSet({"w0", "w5", "w9"}),
  };
}

const std::vector<SearchStrategy> kStrategies = {
    SearchStrategy::kTopDownSequential,
    SearchStrategy::kBottomUpSequential,
    SearchStrategy::kLevelParallel,
};

// The distributed bottom-up traversal differs from LogicalIndex in exactly
// one documented way: the root scans its own table when the T_QUERY arrives
// (paper step 0), so its hits lead the sequence, whereas the in-process
// reference collects the root last. Reconstruct the overlay's expected
// sequence from the exhaustive reference: group hits by their home node
// F_h(K) (within-node order is table order either way), then concatenate
// root-first followed by the deepest-first visit order, cutting at the
// threshold the way the per-node room accounting does.
std::vector<Hit> bottom_up_reference(const std::vector<Hit>& exhaustive,
                                     const KeywordSet& query,
                                     std::size_t threshold) {
  const KeywordHasher hasher(kR);
  const cube::Hypercube cube(kR);
  const cube::CubeId root = hasher.responsible_node(query);
  std::map<cube::CubeId, std::vector<Hit>> groups;
  for (const Hit& h : exhaustive)
    groups[hasher.responsible_node(h.keywords)].push_back(h);
  std::vector<cube::CubeId> order{root};
  for (cube::CubeId w :
       cube::SpanningBinomialTree(cube, root).bottom_up_order())
    if (w != root) order.push_back(w);
  std::vector<Hit> out;
  for (cube::CubeId w : order) {
    const auto it = groups.find(w);
    if (it == groups.end()) continue;
    for (const Hit& h : it->second) {
      if (threshold != 0 && out.size() >= threshold) return out;
      out.push_back(h);
    }
  }
  return out;
}

std::vector<Hit> reference_hits(LogicalIndex& logical, const KeywordSet& q,
                                std::size_t threshold,
                                SearchStrategy strategy) {
  if (strategy == SearchStrategy::kBottomUpSequential) {
    const SearchResult full =
        logical.superset_search(q, 0, SearchStrategy::kTopDownSequential);
    return bottom_up_reference(full.hits, q, threshold);
  }
  return logical.superset_search(q, threshold, strategy).hits;
}

void expect_identical(const std::vector<Hit>& got, const std::vector<Hit>& ref,
                      const KeywordSet& query, const char* label) {
  ASSERT_EQ(got.size(), ref.size()) << label << " query=" << query.to_string();
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], ref[i])
        << label << " query=" << query.to_string() << " position " << i;
  }
  // Ranking is a stable sort over the sequence: identical input order means
  // identical ranked order, checked explicitly for both preferences.
  for (const auto pref :
       {RankingPreference::kGeneralFirst, RankingPreference::kSpecificFirst}) {
    std::vector<Hit> a = got, b = ref;
    order_hits(a, query, pref);
    order_hits(b, query, pref);
    ASSERT_EQ(a, b) << label << " ranked query=" << query.to_string();
  }
}

// Exhaustive searches: every strategy, coalescing on and off, cold and
// warm contact caches, against the LogicalIndex reference hit-for-hit.
TEST(SearchEquivalence, ExhaustiveMatchesLogicalByteForByte) {
  LogicalIndex logical({.r = kR});
  for (const auto& [id, k] : corpus(0xc0ffee)) logical.insert(id, k);

  Deployment on(true, nullptr), off(false, nullptr);
  std::size_t coalesced_batches = 0;
  for (const SearchStrategy strategy : kStrategies) {
    for (const KeywordSet& q : probe_queries()) {
      const std::vector<Hit> ref = reference_hits(logical, q, 0, strategy);
      // Two rounds: the first resolves contacts through the DHT (no
      // coalescing opportunities yet), the second runs on warm contacts
      // where co-hosted level nodes share one VisitBatch.
      for (int round = 0; round < 2; ++round) {
        const SearchResult a = on.search(q, 0, strategy);
        const SearchResult b = off.search(q, 0, strategy);
        expect_identical(a.hits, ref, q, "coalesce-on vs logical");
        expect_identical(b.hits, ref, q, "coalesce-off vs logical");
        EXPECT_TRUE(a.stats.complete);
        EXPECT_TRUE(b.stats.complete);
        coalesced_batches += a.stats.coalesced_batches;
        EXPECT_EQ(b.stats.coalesced_batches, 0u);
        if (round == 1 && strategy == SearchStrategy::kLevelParallel) {
          // Coalescing must not cost messages, and on warm contacts with
          // co-hosted nodes it must save some.
          EXPECT_LE(a.stats.messages, b.stats.messages)
              << "query=" << q.to_string();
        }
      }
    }
  }
  // The fast path actually engaged somewhere in the sweep.
  EXPECT_GT(coalesced_batches, 0u);
}

// Same equivalence under randomized per-message latency: visit-order hit
// assembly makes the sequence independent of arrival order.
TEST(SearchEquivalence, RandomLatencyDoesNotReorderHits) {
  LogicalIndex logical({.r = kR});
  for (const auto& [id, k] : corpus(0xc0ffee)) logical.insert(id, k);

  Deployment on(true, std::make_unique<sim::UniformLatency>(1, 23));
  Deployment off(false, std::make_unique<sim::UniformLatency>(2, 17));
  for (const SearchStrategy strategy : kStrategies) {
    for (const KeywordSet& q : probe_queries()) {
      const std::vector<Hit> ref = reference_hits(logical, q, 0, strategy);
      for (int round = 0; round < 2; ++round) {
        expect_identical(on.search(q, 0, strategy).hits, ref, q,
                         "coalesce-on random-latency");
        expect_identical(off.search(q, 0, strategy).hits, ref, q,
                         "coalesce-off random-latency");
      }
    }
  }
}

// Thresholded searches. Sequential strategies visit nodes one at a time,
// so the early-stopped prefix is deterministic and must match the logical
// reference exactly. Level-parallel scan timing is arrival-dependent by
// design, so there the coalesced and uncoalesced runs are held to the
// threshold contract rather than byte-compared against the reference.
TEST(SearchEquivalence, ThresholdedSequentialMatchesLogical) {
  LogicalIndex logical({.r = kR});
  for (const auto& [id, k] : corpus(0xc0ffee)) logical.insert(id, k);

  Deployment on(true, nullptr), off(false, nullptr);
  for (const SearchStrategy strategy : {SearchStrategy::kTopDownSequential,
                                        SearchStrategy::kBottomUpSequential}) {
    for (const KeywordSet& q : probe_queries()) {
      for (const std::size_t threshold : {std::size_t{3}, std::size_t{9}}) {
        const std::vector<Hit> ref =
            reference_hits(logical, q, threshold, strategy);
        // Top-down also sets `complete` by the reference's rule: a search
        // stopped at node w is incomplete iff a node queued before w's
        // children was left unvisited.
        const bool top_down = strategy == SearchStrategy::kTopDownSequential;
        const bool ref_complete =
            logical.superset_search(q, threshold, strategy).stats.complete;
        for (int round = 0; round < 2; ++round) {
          const SearchResult a = on.search(q, threshold, strategy);
          const SearchResult b = off.search(q, threshold, strategy);
          expect_identical(a.hits, ref, q, "thresholded coalesce-on");
          expect_identical(b.hits, ref, q, "thresholded coalesce-off");
          if (top_down) {
            EXPECT_EQ(a.stats.complete, ref_complete)
                << "query=" << q.to_string() << " threshold=" << threshold;
            EXPECT_EQ(b.stats.complete, ref_complete)
                << "query=" << q.to_string() << " threshold=" << threshold;
          }
        }
      }
    }
  }
}

// Cumulative sessions walk the SBT in the reference's BFS order, resuming
// mid-node where the previous page stopped: every page must equal
// LogicalIndex::CumulativeSession::next's page of the same size. Page
// sizes 1 and 3 split nodes' match lists; the largest exceeds every
// node's table, so each page ends on a node boundary or at the end. The
// overlay notices exhaustion one page late when the last match fills a
// page exactly; after the reference reports complete it may return one
// more page, and that page must be empty. Fixed latency: a page is
// assembled in the order its nodes' slices arrive at the searcher.
TEST(SearchEquivalence, CumulativePagesMatchLogicalSessions) {
  LogicalIndex logical({.r = kR});
  for (const auto& [id, k] : corpus(0xc0ffee)) logical.insert(id, k);
  std::size_t largest_table = 0;
  for (const std::size_t load : logical.loads())
    largest_table = std::max(largest_table, load);

  Deployment d(true, nullptr);
  for (const std::size_t page : {std::size_t{1}, std::size_t{3},
                                 largest_table + 1}) {
    for (const KeywordSet& q : probe_queries()) {
      auto ref = logical.begin_cumulative(q);
      const std::uint64_t session = d.index->open_cumulative(2, q);
      const auto next_page = [&] {
        std::optional<SearchResult> result;
        d.index->cumulative_next(session, page,
                                 [&](const SearchResult& r) { result = r; });
        d.clock.run();
        EXPECT_TRUE(result.has_value());
        return result.value_or(SearchResult{});
      };
      std::size_t pages = 0;
      for (bool complete = false; !complete; ++pages) {
        ASSERT_LT(pages, 1000u) << "query=" << q.to_string();
        const SearchResult want = ref.next(page);
        const SearchResult got = next_page();
        expect_identical(got.hits, want.hits, q, "cumulative page");
        complete = want.stats.complete;
        if (!complete) EXPECT_FALSE(got.stats.complete);
      }
      if (!d.index->cumulative_exhausted(session)) {
        const SearchResult tail = next_page();
        EXPECT_TRUE(tail.hits.empty()) << "query=" << q.to_string();
        EXPECT_TRUE(tail.stats.complete) << "query=" << q.to_string();
      }
      EXPECT_TRUE(d.index->cumulative_exhausted(session));
      d.index->close_cumulative(session);
    }
  }
}

TEST(SearchEquivalence, ThresholdedLevelParallelHonorsContract) {
  LogicalIndex logical({.r = kR});
  for (const auto& [id, k] : corpus(0xc0ffee)) logical.insert(id, k);

  Deployment on(true, nullptr), off(false, nullptr);
  for (const KeywordSet& q : probe_queries()) {
    const SearchResult ref =
        logical.superset_search(q, 0, SearchStrategy::kLevelParallel);
    const std::size_t total = ref.hits.size();
    if (total == 0) continue;
    const std::size_t threshold = 1 + total / 2;
    std::set<ObjectId> all;
    for (const Hit& h : ref.hits) all.insert(h.object);
    for (int round = 0; round < 2; ++round) {
      for (Deployment* d : {&on, &off}) {
        const SearchResult r =
            d->search(q, threshold, SearchStrategy::kLevelParallel);
        EXPECT_GE(r.hits.size(), std::min(threshold, total));
        for (const Hit& h : r.hits) EXPECT_TRUE(all.contains(h.object));
      }
    }
  }
}

// Hot-cell replication is a pure load optimization: replica tables are
// write-through copies of the owner's, and the coordinator round-robins
// visits across owner + replicas. So a warmed-up deployment with
// replication promoted must keep returning the LogicalIndex reference
// sequence byte for byte no matter which replica serves each visit — even
// for entries published AFTER promotion. Level-parallel rounds also group
// a replica pick with whatever else its holder serves that round.
TEST(SearchEquivalence, ReplicaSpreadKeepsHitSequencesByteIdentical) {
  constexpr int kReplicas = 2;
  LogicalIndex logical({.r = kR});
  for (const auto& [id, k] : corpus(0xc0ffee)) logical.insert(id, k);

  sim::EventQueue clock;
  sim::Network net(clock, nullptr);
  auto dht = dht::ChordNetwork::build(net, kPeers, {});
  dht::Dolr dolr(dht);
  OverlayIndex::Config cfg;
  cfg.r = kR;
  cfg.cache_capacity = 0;  // every search must reach the (replica) tables
  cfg.hot.enabled = true;
  cfg.hot.replicas = kReplicas;
  cfg.hot.window = 1 << 20;  // one popularity window covers the whole test
  cfg.hot.min_scans = 2;
  // Replicate every cell the query touches, so a level-parallel round
  // meets several replica picks bound for one holder.
  cfg.hot.max_hot = std::size_t{1} << kR;
  OverlayIndex index(dolr, cfg);
  for (const auto& [id, k] : corpus(0xc0ffee)) index.publish(1, id, k);
  clock.run();

  const auto run_search = [&](const KeywordSet& q,
                              SearchStrategy strategy =
                                  SearchStrategy::kTopDownSequential) {
    std::optional<SearchResult> result;
    index.superset_search(2, q, 0, strategy,
                          [&](const SearchResult& r) { result = r; });
    clock.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(SearchResult{});
  };

  const KeywordSet q({"w1", "w4"});
  // Heat the query's cells past min_scans, then promote.
  for (int i = 0; i < 4; ++i) run_search(q);
  index.replication_step(std::numeric_limits<std::size_t>::max());
  const auto promoted = index.hot_cell_stats();
  ASSERT_GT(promoted.promotions, 0u);
  ASSERT_GT(promoted.replica_holders, 0u);

  // Write-through: a publish AFTER promotion lands in the replica tables
  // immediately — the next replication round finds nothing left to copy.
  const ObjectId extra = kObjects + 1;
  logical.insert(extra, q);
  index.publish(1, extra, q);
  clock.run();
  EXPECT_EQ(index.replication_step(std::numeric_limits<std::size_t>::max()),
            0u);
  EXPECT_EQ(index.replication_backlog(), 0u);

  // 2*(k+1) searches cycle the round-robin through every replica slot
  // twice; each sequence must match the reference byte for byte.
  for (const SearchStrategy strategy : {SearchStrategy::kTopDownSequential,
                                        SearchStrategy::kLevelParallel}) {
    const std::uint64_t spread = index.hot_cell_stats().spread_visits;
    const std::vector<Hit> ref = reference_hits(logical, q, 0, strategy);
    ASSERT_FALSE(ref.empty());
    for (int i = 0; i < 2 * (kReplicas + 1); ++i)
      expect_identical(run_search(q, strategy).hits, ref, q,
                       "replica spread");
    EXPECT_GT(index.hot_cell_stats().spread_visits, spread);
  }
}

// --- The same state machines on the real-socket backend ---------------------
//
// The cluster below is byte-for-byte the sim Deployment — same overlay
// build, same corpus, same searches — but every message crosses a real
// loopback TCP socket via net::TcpTransport, handlers run on its dispatch
// strand, and "time" is wall-clock ticks. The protocol's visit-order hit
// assembly makes the hit sequence independent of arrival timing, so the
// distributed results must STILL match the in-process LogicalIndex
// reference byte for byte. This is the acceptance oracle for the runtime:
// if the transport reordered, dropped, duplicated, or raced anything, the
// pinned sequences would differ.
struct TcpDeployment {
  net::TcpTransport tcp;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<dht::Dolr> dolr;
  std::unique_ptr<OverlayIndex> index;

  static constexpr std::chrono::seconds kSettle{30};

  explicit TcpDeployment(bool coalesce) {
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(tcp, kPeers, {}));
    dolr = std::make_unique<dht::Dolr>(*dht);
    index = std::make_unique<OverlayIndex>(
        *dolr, OverlayIndex::Config{.r = kR, .coalesce_visits = coalesce});
    // Protocol state machines are strand-confined: initiate the publishes
    // on the strand, then wait for the resulting message storm to drain.
    std::mutex mu;
    std::condition_variable cv;
    bool initiated = false;
    tcp.schedule_in(0, [&] {
      for (const auto& [id, k] : corpus(0xc0ffee)) index->publish(1, id, k);
      std::lock_guard<std::mutex> lk(mu);
      initiated = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait_for(lk, kSettle, [&] { return initiated; });
    EXPECT_TRUE(initiated);
    EXPECT_TRUE(tcp.wait_idle(kSettle));
  }

  SearchResult search(const KeywordSet& query, std::size_t threshold,
                      SearchStrategy strategy) {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<SearchResult> result;
    tcp.schedule_in(0, [&] {
      index->superset_search(2, query, threshold, strategy,
                             [&](const SearchResult& r) {
                               std::lock_guard<std::mutex> lk(mu);
                               result = r;
                               cv.notify_all();
                             });
    });
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait_for(lk, kSettle, [&] { return result.has_value(); });
    }
    EXPECT_TRUE(result.has_value()) << query.to_string();
    // Drain trailing traffic (stop fan-out, late results) so the next
    // search starts from a quiet wire.
    EXPECT_TRUE(tcp.wait_idle(kSettle));
    return result.value_or(SearchResult{});
  }
};

TEST(SearchEquivalenceTcp, ExhaustiveMatchesLogicalOverRealSockets) {
  LogicalIndex logical({.r = kR});
  for (const auto& [id, k] : corpus(0xc0ffee)) logical.insert(id, k);

  TcpDeployment on(true), off(false);
  std::size_t coalesced_batches = 0;
  for (const SearchStrategy strategy : kStrategies) {
    for (const KeywordSet& q : probe_queries()) {
      const std::vector<Hit> ref = reference_hits(logical, q, 0, strategy);
      for (int round = 0; round < 2; ++round) {
        const SearchResult a = on.search(q, 0, strategy);
        const SearchResult b = off.search(q, 0, strategy);
        expect_identical(a.hits, ref, q, "tcp coalesce-on vs logical");
        expect_identical(b.hits, ref, q, "tcp coalesce-off vs logical");
        EXPECT_TRUE(a.stats.complete);
        EXPECT_TRUE(b.stats.complete);
        coalesced_batches += a.stats.coalesced_batches;
      }
    }
  }
  EXPECT_GT(coalesced_batches, 0u);  // the fast path engaged over TCP too
  // Real frames moved through real sockets; nothing failed to decode.
  EXPECT_GT(on.tcp.metrics().counter("net.wire_bytes"), 0u);
  EXPECT_EQ(on.tcp.decode_errors(), 0u);
  EXPECT_EQ(off.tcp.decode_errors(), 0u);
}

TEST(SearchEquivalenceTcp, ThresholdedSequentialMatchesLogical) {
  LogicalIndex logical({.r = kR});
  for (const auto& [id, k] : corpus(0xc0ffee)) logical.insert(id, k);

  TcpDeployment on(true);
  for (const SearchStrategy strategy : {SearchStrategy::kTopDownSequential,
                                        SearchStrategy::kBottomUpSequential}) {
    for (const KeywordSet& q : probe_queries()) {
      for (const std::size_t threshold : {std::size_t{3}, std::size_t{9}}) {
        const std::vector<Hit> ref =
            reference_hits(logical, q, threshold, strategy);
        expect_identical(on.search(q, threshold, strategy).hits, ref, q,
                         "tcp thresholded");
      }
    }
  }
}

}  // namespace
}  // namespace hkws::index
