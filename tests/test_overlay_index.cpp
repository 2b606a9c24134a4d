#include "index/overlay_index.hpp"

#include "dht/chord_network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>

#include "common/rng.hpp"
#include "cube/sbt.hpp"
#include "index/logical_index.hpp"
#include "net/fault_model.hpp"

namespace hkws::index {
namespace {

std::set<ObjectId> ids_of(const std::vector<Hit>& hits) {
  std::set<ObjectId> out;
  for (const Hit& h : hits) out.insert(h.object);
  return out;
}

struct OverlayNet {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<dht::Dolr> dolr;
  std::unique_ptr<OverlayIndex> index;
  std::size_t peers;

  explicit OverlayNet(std::size_t n, OverlayIndex::Config cfg = {.r = 6})
      : peers(n) {
    net = std::make_unique<sim::Network>(clock);
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*net, n, {}));
    dolr = std::make_unique<dht::Dolr>(*dht);
    index = std::make_unique<OverlayIndex>(*dolr, cfg);
  }

  sim::EndpointId peer(std::size_t i) const {
    return static_cast<sim::EndpointId>(1 + i % peers);
  }

  void publish_all(const std::map<ObjectId, KeywordSet>& objects) {
    std::size_t i = 0;
    for (const auto& [id, k] : objects) index->publish(peer(i++), id, k);
    clock.run();
  }

  SearchResult superset(const KeywordSet& query, std::size_t threshold = 0,
                        SearchStrategy strategy =
                            SearchStrategy::kTopDownSequential) {
    std::optional<SearchResult> result;
    index->superset_search(peer(0), query, threshold, strategy,
                           [&](const SearchResult& r) { result = r; });
    clock.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(SearchResult{});
  }
};

std::map<ObjectId, KeywordSet> random_objects(std::size_t n, std::size_t vocab,
                                              std::uint64_t seed) {
  std::map<ObjectId, KeywordSet> out;
  Rng rng(seed);
  for (ObjectId id = 1; id <= n; ++id) {
    std::vector<Keyword> words;
    const int size = 1 + static_cast<int>(rng.next_below(5));
    for (int i = 0; i < size; ++i)
      words.push_back("w" + std::to_string(rng.next_below(vocab)));
    out[id] = KeywordSet(std::move(words));
  }
  return out;
}

TEST(OverlayIndex, PublishFirstCopyCreatesIndexEntry) {
  OverlayNet t(16);
  const KeywordSet k({"isp", "network"});
  std::optional<OverlayIndex::PublishResult> result;
  t.index->publish(1, 42, k, [&](const auto& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->indexed);
  const auto u = t.index->responsible_node(k);
  const IndexTable* table = t.index->table_of(u);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->exact(k), std::vector<ObjectId>{42});
}

TEST(OverlayIndex, SecondCopyDoesNotReindex) {
  OverlayNet t(16);
  const KeywordSet k({"news"});
  t.index->publish(1, 42, k);
  t.clock.run();
  std::optional<OverlayIndex::PublishResult> result;
  t.index->publish(2, 42, k, [&](const auto& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->indexed);
  const IndexTable* table = t.index->table_of(t.index->responsible_node(k));
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->object_count(), 1u);
}

TEST(OverlayIndex, WithdrawLastCopyRemovesEntry) {
  OverlayNet t(16);
  const KeywordSet k({"tv", "news"});
  t.index->publish(1, 7, k);
  t.index->publish(2, 7, k);
  t.clock.run();
  std::optional<OverlayIndex::WithdrawResult> w1, w2;
  t.index->withdraw(1, 7, k, [&](const auto& r) { w1 = r; });
  t.clock.run();
  EXPECT_FALSE(w1->index_removed);
  t.index->withdraw(2, 7, k, [&](const auto& r) { w2 = r; });
  t.clock.run();
  EXPECT_TRUE(w2->index_removed);
  const IndexTable* table = t.index->table_of(t.index->responsible_node(k));
  EXPECT_TRUE(table == nullptr || table->exact(k).empty());
}

TEST(OverlayIndex, PublishRejectsEmptyKeywords) {
  OverlayNet t(4);
  EXPECT_THROW(t.index->publish(1, 1, KeywordSet{}), std::invalid_argument);
}

TEST(OverlayIndex, PinSearchFindsExactSet) {
  OverlayNet t(16);
  t.index->publish(1, 1, KeywordSet({"a", "b"}));
  t.index->publish(2, 2, KeywordSet({"a", "b", "c"}));
  t.clock.run();
  std::optional<SearchResult> result;
  t.index->pin_search(3, KeywordSet({"a", "b"}),
                      [&](const SearchResult& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ids_of(result->hits), (std::set<ObjectId>{1}));
  EXPECT_EQ(result->stats.nodes_contacted, 1u);
  EXPECT_TRUE(result->stats.complete);
}

TEST(OverlayIndex, SupersetAgreesWithLogicalIndex) {
  const OverlayIndex::Config cfg{.r = 6};
  OverlayNet t(24, cfg);
  LogicalIndex logical({.r = cfg.r, .hash_seed = cfg.hash_seed});
  const auto objects = random_objects(150, 25, 21);
  t.publish_all(objects);
  for (const auto& [id, k] : objects) logical.insert(id, k);

  Rng rng(22);
  for (int trial = 0; trial < 25; ++trial) {
    auto it = objects.begin();
    std::advance(it, rng.next_below(objects.size()));
    const KeywordSet query({it->second.words().front()});
    const auto overlay_result = t.superset(query);
    const auto logical_result = logical.superset_search(query);
    EXPECT_EQ(ids_of(overlay_result.hits), ids_of(logical_result.hits))
        << query.to_string();
    EXPECT_EQ(overlay_result.stats.nodes_contacted,
              logical_result.stats.nodes_contacted);
    EXPECT_TRUE(overlay_result.stats.complete);
  }
}

TEST(OverlayIndex, AllStrategiesAgreeOnHitSets) {
  OverlayNet t(16, {.r = 6});
  const auto objects = random_objects(100, 15, 23);
  t.publish_all(objects);
  const KeywordSet query({objects.begin()->second.words().front()});
  const auto td = t.superset(query, 0, SearchStrategy::kTopDownSequential);
  const auto bu = t.superset(query, 0, SearchStrategy::kBottomUpSequential);
  const auto lp = t.superset(query, 0, SearchStrategy::kLevelParallel);
  EXPECT_EQ(ids_of(td.hits), ids_of(bu.hits));
  EXPECT_EQ(ids_of(td.hits), ids_of(lp.hits));
  EXPECT_FALSE(td.hits.empty());
}

TEST(OverlayIndex, ThresholdLimitsResults) {
  OverlayNet t(16, {.r = 6});
  std::map<ObjectId, KeywordSet> objects;
  for (ObjectId o = 1; o <= 40; ++o)
    objects[o] = KeywordSet({"pop", "e" + std::to_string(o)});
  t.publish_all(objects);
  const auto result = t.superset(KeywordSet({"pop"}), 10);
  EXPECT_EQ(result.hits.size(), 10u);
  EXPECT_FALSE(result.stats.complete);
  const auto all = t.superset(KeywordSet({"pop"}), 0);
  EXPECT_EQ(all.hits.size(), 40u);
}

TEST(OverlayIndex, QueryCacheServesRepeatsWithFewerContacts) {
  OverlayNet t(16, {.r = 8, .cache_capacity = 64});
  std::map<ObjectId, KeywordSet> objects;
  for (ObjectId o = 1; o <= 20; ++o)
    objects[o] = KeywordSet({"hot", "v" + std::to_string(o % 3)});
  t.publish_all(objects);
  const KeywordSet query({"hot"});
  const auto cold = t.superset(query);
  const auto warm = t.superset(query);
  EXPECT_FALSE(cold.stats.cache_hit);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(ids_of(cold.hits), ids_of(warm.hits));
  EXPECT_LT(warm.stats.nodes_contacted, cold.stats.nodes_contacted);
  EXPECT_LT(warm.stats.messages, cold.stats.messages);
}

TEST(OverlayIndex, ContactCachingCutsRoutingCost) {
  OverlayNet t(32, {.r = 6, .cache_capacity = 0});
  const auto objects = random_objects(60, 10, 24);
  t.publish_all(objects);
  const KeywordSet query({objects.begin()->second.words().front()});
  const auto cold = t.superset(query);
  const auto warm = t.superset(query);
  // Same traversal, but resolved contacts replace multi-hop routing.
  EXPECT_EQ(warm.stats.nodes_contacted, cold.stats.nodes_contacted);
  EXPECT_LE(warm.stats.messages, cold.stats.messages);
}

TEST(OverlayIndex, RepairPlacementAfterMembershipChange) {
  OverlayNet t(12, {.r = 6});
  const auto objects = random_objects(80, 12, 25);
  t.publish_all(objects);
  const KeywordSet query({objects.begin()->second.words().front()});
  const auto before = t.superset(query);

  // Grow the ring: ownership of some cube nodes moves to the newcomers.
  for (sim::EndpointId e = 13; e <= 18; ++e) t.dht->join(e, 1);
  for (int round = 0; round < 30; ++round) t.dht->stabilize_all();
  t.index->repair_placement();

  const auto after = t.superset(query);
  EXPECT_EQ(ids_of(before.hits), ids_of(after.hits));
  EXPECT_TRUE(after.stats.complete);
}

TEST(OverlayIndex, PurgeDeadDropsLostEntries) {
  OverlayNet t(8, {.r = 6});
  const auto objects = random_objects(100, 12, 26);
  t.publish_all(objects);
  auto loads_sum = [&] {
    std::size_t total = 0;
    for (std::size_t l : t.index->loads_by_cube_node()) total += l;
    return total;
  };
  const std::size_t before = loads_sum();
  EXPECT_EQ(before, objects.size());
  // Fail a peer abruptly; its index entries are gone (paper fault model).
  t.dht->fail(3);
  for (int round = 0; round < 20; ++round) t.dht->stabilize_all();
  t.index->purge_dead();
  t.index->repair_placement();
  EXPECT_LT(loads_sum(), before);
}

TEST(OverlayIndex, CorrectUnderMessageReordering) {
  // Random per-message latencies reorder deliveries arbitrarily; the
  // protocol's completion rule (done + all result messages received) must
  // still produce exact, complete answers.
  sim::EventQueue clock;
  sim::Network net(clock, std::make_unique<sim::UniformLatency>(1, 50), 99);
  auto dht = dht::ChordNetwork::build(net, 24, {});
  dht::Dolr dolr(dht);
  OverlayIndex index(dolr, {.r = 6});
  LogicalIndex logical({.r = 6});

  const auto objects = random_objects(120, 20, 28);
  std::size_t i = 0;
  for (const auto& [id, k] : objects) {
    index.publish(1 + (i++ % 24), id, k);
    logical.insert(id, k);
  }
  clock.run();

  Rng rng(29);
  for (int trial = 0; trial < 15; ++trial) {
    auto it = objects.begin();
    std::advance(it, rng.next_below(objects.size()));
    const KeywordSet query({it->second.words().front()});
    std::optional<SearchResult> result;
    index.superset_search(1, query, 0,
                          SearchStrategy::kTopDownSequential,
                          [&](const SearchResult& r) { result = r; });
    clock.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(ids_of(result->hits),
              ids_of(logical.superset_search(query).hits))
        << query.to_string();
    EXPECT_TRUE(result->stats.complete);
  }
}

TEST(OverlayIndex, LevelParallelCorrectUnderReordering) {
  sim::EventQueue clock;
  sim::Network net(clock, std::make_unique<sim::UniformLatency>(1, 50), 17);
  auto dht = dht::ChordNetwork::build(net, 16, {});
  dht::Dolr dolr(dht);
  OverlayIndex index(dolr, {.r = 6});
  const auto objects = random_objects(80, 12, 30);
  std::size_t i = 0;
  for (const auto& [id, k] : objects) index.publish(1 + (i++ % 16), id, k);
  clock.run();

  const KeywordSet query({objects.begin()->second.words().front()});
  std::optional<SearchResult> seq, par;
  index.superset_search(1, query, 0, SearchStrategy::kTopDownSequential,
                        [&](const SearchResult& r) { seq = r; });
  clock.run();
  index.superset_search(1, query, 0, SearchStrategy::kLevelParallel,
                        [&](const SearchResult& r) { par = r; });
  clock.run();
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(par.has_value());
  EXPECT_EQ(ids_of(seq->hits), ids_of(par->hits));
}

TEST(OverlayIndex, WithdrawOfUnknownObjectIsHarmless) {
  OverlayNet t(8, {.r = 6});
  std::optional<OverlayIndex::WithdrawResult> result;
  t.index->withdraw(1, 99999, KeywordSet({"ghost"}),
                    [&](const auto& r) { result = r; });
  t.clock.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->index_removed);
}

TEST(OverlayIndex, RepublishWithDifferentKeywordsKeepsFirstEntry) {
  // Keyword sets are immutable per object id in this scheme: a second
  // publish of the same object id is "another copy", so it never creates a
  // second index entry even if the metadata differs. To change metadata,
  // withdraw all copies (deleting the entry) and publish afresh.
  OverlayNet t(16, {.r = 6});
  const KeywordSet original({"music", "mp3"});
  const KeywordSet changed({"video", "avi"});
  t.index->publish(1, 7, original);
  t.clock.run();
  std::optional<OverlayIndex::PublishResult> second;
  t.index->publish(2, 7, changed, [&](const auto& r) { second = r; });
  t.clock.run();
  EXPECT_FALSE(second->indexed);
  EXPECT_FALSE(t.superset(KeywordSet({"music"})).hits.empty());
  EXPECT_TRUE(t.superset(KeywordSet({"video"})).hits.empty());

  // The documented metadata-change flow.
  t.index->withdraw(1, 7, original);
  t.index->withdraw(2, 7, original);
  t.clock.run();
  t.index->publish(2, 7, changed);
  t.clock.run();
  EXPECT_TRUE(t.superset(KeywordSet({"music"})).hits.empty());
  EXPECT_FALSE(t.superset(KeywordSet({"video"})).hits.empty());
}

TEST(OverlayIndexCumulative, BatchesAreDisjointAndExhaustive) {
  OverlayNet t(16, {.r = 6});
  const auto objects = random_objects(150, 18, 31);
  t.publish_all(objects);
  const KeywordSet query({objects.begin()->second.words().front()});

  // Oracle: the one-shot full search.
  const auto full = t.superset(query);
  const auto expected = ids_of(full.hits);
  ASSERT_FALSE(expected.empty());

  const auto session = t.index->open_cumulative(1, query);
  std::set<ObjectId> collected;
  int batches = 0;
  while (!t.index->cumulative_exhausted(session) && batches < 200) {
    std::optional<SearchResult> batch;
    t.index->cumulative_next(session, 4,
                             [&](const SearchResult& r) { batch = r; });
    t.clock.run();
    ASSERT_TRUE(batch.has_value());
    EXPECT_LE(batch->hits.size(), 4u);
    for (const Hit& h : batch->hits)
      EXPECT_TRUE(collected.insert(h.object).second)
          << "duplicate " << h.object;
    ++batches;
    if (batch->hits.empty() && batch->stats.complete) break;
  }
  EXPECT_EQ(collected, expected);
  EXPECT_TRUE(t.index->cumulative_exhausted(session));
  if (expected.size() > 4) EXPECT_GT(batches, 1);
}

TEST(OverlayIndexCumulative, ExhaustedSessionReturnsEmptyComplete) {
  OverlayNet t(8, {.r = 6});
  t.index->publish(1, 1, KeywordSet({"only"}));
  t.clock.run();
  const auto session = t.index->open_cumulative(1, KeywordSet({"only"}));
  std::optional<SearchResult> first, after;
  t.index->cumulative_next(session, 100,
                           [&](const SearchResult& r) { first = r; });
  t.clock.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->hits.size(), 1u);
  EXPECT_TRUE(first->stats.complete);
  t.index->cumulative_next(session, 100,
                           [&](const SearchResult& r) { after = r; });
  t.clock.run();
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->hits.empty());
  EXPECT_TRUE(after->stats.complete);
  EXPECT_EQ(after->stats.messages, 0u);  // answered without network traffic
}

TEST(OverlayIndexCumulative, SecondBatchSkipsRouting) {
  OverlayNet t(24, {.r = 6});
  std::map<ObjectId, KeywordSet> objects;
  for (ObjectId o = 1; o <= 30; ++o)
    objects[o] = KeywordSet({"page", "e" + std::to_string(o)});
  t.publish_all(objects);
  const auto session = t.index->open_cumulative(1, KeywordSet({"page"}));
  std::optional<SearchResult> b1, b2;
  t.index->cumulative_next(session, 5, [&](const SearchResult& r) { b1 = r; });
  t.clock.run();
  t.index->cumulative_next(session, 5, [&](const SearchResult& r) { b2 = r; });
  t.clock.run();
  ASSERT_TRUE(b1 && b2);
  EXPECT_EQ(b1->hits.size(), 5u);
  EXPECT_EQ(b2->hits.size(), 5u);
  // No node prefix is re-visited across pages: two cumulative pages of 5
  // touch at most one node more (a partially-consumed one) than a single
  // one-shot search for 10.
  const auto oneshot = t.superset(KeywordSet({"page"}), 10);
  EXPECT_LE(b1->stats.nodes_contacted + b2->stats.nodes_contacted,
            oneshot.stats.nodes_contacted + 2);
}

TEST(OverlayIndexCumulative, SessionLifecycleErrors) {
  OverlayNet t(8, {.r = 6});
  EXPECT_THROW(t.index->open_cumulative(1, KeywordSet{}),
               std::invalid_argument);
  const auto session = t.index->open_cumulative(1, KeywordSet({"x"}));
  EXPECT_THROW(t.index->cumulative_next(session, 0, [](const auto&) {}),
               std::invalid_argument);
  t.index->close_cumulative(session);
  EXPECT_TRUE(t.index->cumulative_exhausted(session));
  EXPECT_THROW(t.index->cumulative_next(session, 5, [](const auto&) {}),
               std::invalid_argument);
}

TEST(OverlayIndex, MessagesAreAccountedByKind) {
  OverlayNet t(16, {.r = 6});
  const auto objects = random_objects(30, 8, 27);
  t.publish_all(objects);
  t.superset(KeywordSet({objects.begin()->second.words().front()}));
  const auto& m = t.net->metrics();
  EXPECT_GT(m.counter("msg.dolr.insert"), 0u);
  EXPECT_GT(m.counter("msg.kws.insert"), 0u);
  EXPECT_GT(m.counter("msg.kws.t_query"), 0u);
  EXPECT_GT(m.counter("msg.kws.t_cont"), 0u);
  EXPECT_GT(m.counter("msg.kws.done"), 0u);
}

// A hot root cell hands the coordinator role from its owner to a replica
// holder with one kws.t_query. That handoff is a guarded step: when it is
// lost, the owner resends it to a fresh pick and the search still returns
// the reference hits. The query's responsible node is the all-ones cube, so
// its subcube is the root alone and the handoff is the only kws.t_query the
// owner sends.
TEST(OverlayIndex, LostHotRootHandoffIsRetransmitted) {
  OverlayIndex::Config cfg{.r = 6, .step_timeout = 40, .max_retries = 3};
  cfg.hot = {.enabled = true, .replicas = 2, .window = 1 << 20,
             .min_scans = 2};
  OverlayNet t(24, cfg);
  const cube::CubeId all_ones = t.index->cube().node_count() - 1;
  std::vector<Keyword> words;
  for (int i = 0; t.index->responsible_node(KeywordSet(words)) != all_ones;
       ++i) {
    std::vector<Keyword> more = words;
    more.push_back("w" + std::to_string(i));
    if (t.index->responsible_node(KeywordSet(more)) !=
        t.index->responsible_node(KeywordSet(words)))
      words = std::move(more);
  }
  const KeywordSet query(words);
  std::map<ObjectId, KeywordSet> objects;
  LogicalIndex logical({.r = cfg.r, .hash_seed = cfg.hash_seed});
  for (ObjectId id = 1; id <= 6; ++id) {
    std::vector<Keyword> k = words;
    k.push_back("extra" + std::to_string(id));
    objects[id] = KeywordSet(std::move(k));
    logical.insert(id, objects[id]);
  }
  t.publish_all(objects);
  const std::vector<Hit> ref = logical.superset_search(query).hits;
  ASSERT_FALSE(ref.empty());

  // Heat the root cell and replicate it.
  const sim::EndpointId owner = t.index->peer_of(all_ones);
  for (int i = 0; i < 3; ++i) t.superset(query);
  t.index->replication_step(1000);
  std::set<sim::EndpointId> holders;
  t.index->for_each_replica_entry(
      [&](cube::CubeId u, const KeywordSet&, ObjectId, sim::EndpointId ep) {
        if (u == all_ones) holders.insert(ep);
      });
  ASSERT_FALSE(holders.empty());
  ASSERT_FALSE(holders.contains(owner));
  ASSERT_NE(t.peer(0), owner);

  struct DropFirstHandoff final : net::FaultModel {
    sim::EndpointId owner = 0;
    std::set<sim::EndpointId> holders;
    bool dropped = false;
    net::FaultActions inspect(sim::EndpointId from, sim::EndpointId to,
                              const std::string& kind, std::uint64_t,
                              Rng&) override {
      if (dropped || from != owner || !holders.contains(to) ||
          kind != "kws.t_query")
        return {};
      dropped = true;
      return {.drop = true};
    }
  };
  auto model = std::make_unique<DropFirstHandoff>();
  model->owner = owner;
  model->holders = holders;
  const DropFirstHandoff& drop = *model;
  t.net->set_fault_model(std::move(model));

  // The rotation hands off within a round of owner + holders.
  for (std::size_t i = 0; i <= holders.size() && !drop.dropped; ++i) {
    std::optional<SearchResult> result;
    t.index->superset_search(t.peer(0), query, 0,
                             SearchStrategy::kTopDownSequential,
                             [&](const SearchResult& r) { result = r; });
    t.clock.run();
    if (!drop.dropped) continue;
    EXPECT_EQ(t.index->in_flight_requests(), 0u);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->hits, ref);
    EXPECT_GE(result->stats.retransmits, 1u);
    EXPECT_FALSE(result->stats.failed);
  }
  EXPECT_TRUE(drop.dropped);
}

// A kws.results batch lost before the done notification lands is re-shipped
// by the post-done result repair, a guarded step like every other: with
// max_retries = 1 its one re-shipment gets a full timeout to arrive, and
// the search returns the reference hits, complete.
TEST(OverlayIndex, LostResultBatchGetsItsLastReshipment) {
  OverlayNet t(16, {.r = 4, .step_timeout = 40, .max_retries = 1});
  const auto objects = random_objects(24, 8, 5);
  LogicalIndex logical({.r = 4});
  for (const auto& [id, k] : objects) logical.insert(id, k);
  t.publish_all(objects);
  const KeywordSet query({"w1"});
  const std::vector<Hit> ref = logical.superset_search(query).hits;
  ASSERT_EQ(ref.size(), 8u);

  struct DropFirstResults final : net::FaultModel {
    bool dropped = false;
    net::FaultActions inspect(sim::EndpointId, sim::EndpointId,
                              const std::string& kind, std::uint64_t,
                              Rng&) override {
      if (dropped || kind != "kws.results") return {};
      dropped = true;
      return {.drop = true};
    }
  };
  auto model = std::make_unique<DropFirstResults>();
  const DropFirstResults& drop = *model;
  t.net->set_fault_model(std::move(model));

  const SearchResult r = t.superset(query);
  ASSERT_TRUE(drop.dropped);
  EXPECT_FALSE(r.stats.failed);
  EXPECT_TRUE(r.stats.complete);
  EXPECT_EQ(r.hits, ref);
  EXPECT_EQ(r.stats.retransmits, 1u);
  EXPECT_EQ(t.index->in_flight_requests(), 0u);
}

// The subcube of a one-keyword query at r = 6: five free dimensions, 32
// nodes on six SBT levels, spread over the 16 peers.
const KeywordSet kOneWord({"w1"});

// An exhaustive level-parallel search with coalescing on has no level
// boundary to stop at, so on warm contacts it dispatches its whole subcube
// in one round: each peer gets one kws.visit_batch (or one kws.t_query if
// it hosts a single node) and answers once.
TEST(OverlayIndex, ExhaustiveLevelParallelSearchSendsOneMessagePerPeer) {
  OverlayNet t(16, {.r = 6});
  const auto objects = random_objects(60, 8, 11);
  t.publish_all(objects);
  LogicalIndex logical({.r = 6});
  for (const auto& [id, k] : objects) logical.insert(id, k);
  const std::vector<Hit> ref = logical.superset_search(kOneWord).hits;
  ASSERT_FALSE(ref.empty());
  const cube::CubeId root = t.index->responsible_node(kOneWord);
  const int dimension = t.index->cube().zero_count(root);
  ASSERT_EQ(dimension, 5);

  t.superset(kOneWord, 0, SearchStrategy::kLevelParallel);  // learn contacts
  const sim::EndpointId coordinator = t.index->peer_of(root);
  std::map<sim::EndpointId, int> visits;
  t.net->set_send_observer(
      [&](const std::string& kind, const net::SendRecord& r) {
        if (r.from == coordinator &&
            (kind == "kws.visit_batch" || kind == "kws.t_query"))
          ++visits[r.to];
      });
  const SearchResult r =
      t.superset(kOneWord, 0, SearchStrategy::kLevelParallel);
  t.net->set_send_observer(nullptr);

  EXPECT_EQ(r.hits, ref);
  EXPECT_TRUE(r.stats.complete);
  EXPECT_EQ(r.stats.rounds, 1u);
  EXPECT_EQ(r.stats.levels, static_cast<std::size_t>(dimension) + 1);
  EXPECT_EQ(r.stats.nodes_contacted, std::size_t{1} << dimension);
  EXPECT_GT(r.stats.coalesced_batches, 0u);
  ASSERT_FALSE(visits.empty());
  for (const auto& [peer, sends] : visits)
    EXPECT_EQ(sends, 1) << "peer " << peer;
}

// A lost batch falls back to per-node retransmission: each node of the
// dropped kws.visit_batch keeps its own step guard, so each is resent on
// its own, and the search still returns the reference hits, complete.
TEST(OverlayIndex, LostSubcubeBatchRetransmitsEachNodeOnItsOwn) {
  OverlayNet t(16, {.r = 6, .step_timeout = 40, .max_retries = 3});
  const auto objects = random_objects(60, 8, 11);
  t.publish_all(objects);
  LogicalIndex logical({.r = 6});
  for (const auto& [id, k] : objects) logical.insert(id, k);
  const std::vector<Hit> ref = logical.superset_search(kOneWord).hits;
  t.superset(kOneWord, 0, SearchStrategy::kLevelParallel);  // learn contacts

  struct DropFirstBatch final : net::FaultModel {
    sim::EndpointId to = 0;
    net::FaultActions inspect(sim::EndpointId, sim::EndpointId dest,
                              const std::string& kind, std::uint64_t,
                              Rng&) override {
      if (to != 0 || kind != "kws.visit_batch") return {};
      to = dest;
      return {.drop = true};
    }
  };
  auto model = std::make_unique<DropFirstBatch>();
  const DropFirstBatch& drop = *model;
  t.net->set_fault_model(std::move(model));
  std::set<cube::CubeId> resent;
  t.index->set_trace([&](const OverlayIndex::Trace& tr) {
    if (std::string_view(tr.point) == "retransmit") resent.insert(tr.a);
  });
  const SearchResult r =
      t.superset(kOneWord, 0, SearchStrategy::kLevelParallel);
  t.index->set_trace(nullptr);

  // The batch carried every node of the subcube that its peer hosts.
  ASSERT_NE(drop.to, 0u);
  const cube::CubeId root = t.index->responsible_node(kOneWord);
  std::set<cube::CubeId> batch;
  for (const cube::CubeId w :
       cube::SpanningBinomialTree(t.index->cube(), root).bfs_order())
    if (w != root && t.index->peer_of(w) == drop.to) batch.insert(w);
  ASSERT_GE(batch.size(), 2u);
  EXPECT_EQ(resent, batch);
  EXPECT_EQ(r.stats.retransmits, batch.size());
  EXPECT_EQ(r.hits, ref);
  EXPECT_TRUE(r.stats.complete);
  EXPECT_FALSE(r.stats.failed);
  EXPECT_EQ(t.index->in_flight_requests(), 0u);
}

// A thresholded level-parallel search keeps one round per level, which its
// early stop needs, and so does every search with coalescing off: that is
// the paper's level-by-level dispatch.
TEST(OverlayIndex, LevelRoundsStayWithAThresholdOrWithoutCoalescing) {
  const auto objects = random_objects(60, 8, 11);
  for (const bool coalesce : {true, false}) {
    OverlayNet t(16, {.r = 6, .coalesce_visits = coalesce});
    t.publish_all(objects);
    const int dimension =
        t.index->cube().zero_count(t.index->responsible_node(kOneWord));
    t.superset(kOneWord, 0, SearchStrategy::kLevelParallel);  // warm
    for (const std::size_t threshold : {std::size_t{0}, std::size_t{1000}}) {
      if (coalesce && threshold == 0) continue;  // the one-round case
      const SearchResult r =
          t.superset(kOneWord, threshold, SearchStrategy::kLevelParallel);
      EXPECT_TRUE(r.stats.complete);
      EXPECT_EQ(r.stats.rounds, static_cast<std::size_t>(dimension))
          << "coalesce=" << coalesce << " threshold=" << threshold;
      EXPECT_EQ(r.stats.levels, static_cast<std::size_t>(dimension) + 1);
    }
  }
}

}  // namespace
}  // namespace hkws::index
