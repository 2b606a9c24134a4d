#include "index/service.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "dht/chord_network.hpp"
#include "dht/pastry_network.hpp"

namespace hkws::index {
namespace {

/// The options these tests run: r = 6 with a 32-record query cache.
KeywordSearchService::Options options(int replication_factor = 2,
                                      bool mirror = false) {
  KeywordSearchService::Options o;
  o.r = 6;
  o.cache_capacity = 32;
  o.replication_factor = replication_factor;
  o.mirror_index = mirror;
  return o;
}

struct ServiceNet {
  sim::EventQueue clock;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<dht::ChordNetwork> dht;
  std::unique_ptr<KeywordSearchService> service;

  explicit ServiceNet(KeywordSearchService::Options opts) {
    net = std::make_unique<sim::Network>(clock);
    dht = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(*net, 24, {}));
    service = std::make_unique<KeywordSearchService>(*dht, opts);
  }

  KeywordSearchService::Answer search(
      const KeywordSet& q, KeywordSearchService::SearchOptions opts = {}) {
    std::optional<KeywordSearchService::Answer> answer;
    service->search(1, q, opts,
                    [&](const KeywordSearchService::Answer& a) { answer = a; });
    clock.run();
    EXPECT_TRUE(answer.has_value());
    return answer.value_or(KeywordSearchService::Answer{});
  }
};

void publish_catalogue(ServiceNet& t) {
  t.service->publish(2, 1, KeywordSet({"music", "mp3"}));
  t.service->publish(3, 2, KeywordSet({"music", "mp3", "live"}));
  t.service->publish(4, 3, KeywordSet({"music", "flac"}));
  t.service->publish(5, 4, KeywordSet({"video", "live"}));
  t.clock.run();
}

TEST(Service, PublishSearchRoundTrip) {
  ServiceNet t(options());
  publish_catalogue(t);
  const auto answer = t.search(KeywordSet({"music"}));
  std::set<ObjectId> ids;
  for (const auto& h : answer.hits) ids.insert(h.object);
  EXPECT_EQ(ids, (std::set<ObjectId>{1, 2, 3}));
  EXPECT_TRUE(answer.stats.complete);
}

TEST(Service, RankingOrderApplied) {
  ServiceNet t(options());
  publish_catalogue(t);
  KeywordSearchService::SearchOptions opts;
  opts.order = RankingPreference::kSpecificFirst;
  const auto specific = t.search(KeywordSet({"music"}), opts);
  ASSERT_EQ(specific.hits.size(), 3u);
  EXPECT_EQ(specific.hits.front().keywords.size(), 3u);  // live,mp3,music
  opts.order = RankingPreference::kGeneralFirst;
  const auto general = t.search(KeywordSet({"music"}), opts);
  EXPECT_EQ(general.hits.front().keywords.size(), 2u);
}

TEST(Service, RefinementsAndExpansionAttached) {
  ServiceNet t(options());
  publish_catalogue(t);
  KeywordSearchService::SearchOptions opts;
  opts.refinement_categories = 5;
  opts.suggest_expansion = true;
  const auto answer = t.search(KeywordSet({"music"}), opts);
  EXPECT_FALSE(answer.refinements.empty());
  ASSERT_TRUE(answer.expansion.has_value());
  EXPECT_TRUE(KeywordSet({"music"}).subset_of(*answer.expansion));
  EXPECT_GT(answer.expansion->size(), 1u);
}

TEST(Service, PinIsExact) {
  ServiceNet t(options());
  publish_catalogue(t);
  std::optional<KeywordSearchService::Answer> answer;
  t.service->pin(1, KeywordSet({"music", "mp3"}),
                 [&](const KeywordSearchService::Answer& a) { answer = a; });
  t.clock.run();
  ASSERT_TRUE(answer.has_value());
  ASSERT_EQ(answer->hits.size(), 1u);
  EXPECT_EQ(answer->hits[0].object, 1u);
}

TEST(Service, BrowsePagesAreDisjoint) {
  ServiceNet t(options());
  for (ObjectId o = 1; o <= 17; ++o)
    t.service->publish(2, o, KeywordSet({"page", "v" + std::to_string(o)}));
  t.clock.run();
  const auto session = t.service->open_browse(1, KeywordSet({"page"}));
  std::set<ObjectId> seen;
  while (!t.service->browse_done(session)) {
    std::optional<KeywordSearchService::Answer> page;
    t.service->browse_next(session, 5,
                           [&](const KeywordSearchService::Answer& a) {
                             page = a;
                           });
    t.clock.run();
    ASSERT_TRUE(page.has_value());
    EXPECT_LE(page->hits.size(), 5u);
    for (const auto& h : page->hits)
      EXPECT_TRUE(seen.insert(h.object).second);
    if (page->hits.empty()) break;
  }
  EXPECT_EQ(seen.size(), 17u);
  t.service->close_browse(session);
  EXPECT_TRUE(t.service->browse_done(session));
}

TEST(Service, ResolveFindsReplicaHolders) {
  ServiceNet t(options(3));
  publish_catalogue(t);
  std::optional<dht::Dolr::ReadResult> read;
  t.service->resolve(7, 2, [&](const dht::Dolr::ReadResult& r) { read = r; });
  t.clock.run();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->holders, std::vector<sim::EndpointId>{3});
}

TEST(Service, WithdrawRemovesFromSearch) {
  ServiceNet t(options());
  publish_catalogue(t);
  t.service->withdraw(3, 2, KeywordSet({"music", "mp3", "live"}));
  t.clock.run();
  const auto answer = t.search(KeywordSet({"music"}));
  EXPECT_EQ(answer.hits.size(), 2u);
}

TEST(Service, MirroredModeSurvivesFailuresWithRepair) {
  ServiceNet t(options(3, true));
  publish_catalogue(t);
  t.dht->fail(5);
  t.dht->fail(9);
  for (int round = 0; round < 30; ++round) t.dht->stabilize_all();
  t.service->repair();
  t.clock.run();
  const auto answer = t.search(KeywordSet({"music"}));
  EXPECT_EQ(answer.hits.size(), 3u);
}

TEST(Service, MirrorIndexIsTheSecondaryCube) {
  ServiceNet plain(options());
  EXPECT_EQ(plain.service->mirror_index(), nullptr);
  ServiceNet t(options(2, true));
  publish_catalogue(t);
  const OverlayIndex* mirror = t.service->mirror_index();
  ASSERT_NE(mirror, nullptr);
  EXPECT_NE(mirror, &t.service->primary_index());
  std::size_t entries = 0;
  mirror->for_each_entry(
      [&](cube::CubeId, const KeywordSet&, ObjectId, sim::EndpointId) {
        ++entries;
      });
  EXPECT_EQ(entries, 4u);
}

TEST(Service, BrowseWorksInMirroredMode) {
  ServiceNet t(options(2, true));
  for (ObjectId o = 1; o <= 12; ++o)
    t.service->publish(2, o, KeywordSet({"page", "v" + std::to_string(o)}));
  t.clock.run();
  const auto session = t.service->open_browse(1, KeywordSet({"page"}));
  std::set<ObjectId> seen;
  while (!t.service->browse_done(session)) {
    std::optional<KeywordSearchService::Answer> page;
    t.service->browse_next(session, 4,
                           [&](const KeywordSearchService::Answer& a) {
                             page = a;
                           });
    t.clock.run();
    ASSERT_TRUE(page.has_value());
    for (const auto& h : page->hits) seen.insert(h.object);
    if (page->hits.empty()) break;
  }
  EXPECT_EQ(seen.size(), 12u);
}

TEST(Service, PinMissIsEmptyNotError) {
  ServiceNet t(options());
  publish_catalogue(t);
  std::optional<KeywordSearchService::Answer> answer;
  t.service->pin(1, KeywordSet({"does", "not", "exist"}),
                 [&](const KeywordSearchService::Answer& a) { answer = a; });
  t.clock.run();
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(answer->hits.empty());
  EXPECT_TRUE(answer->stats.complete);
}

TEST(Service, WorksOverPastryToo) {
  sim::EventQueue clock;
  sim::Network net(clock);
  auto pastry = dht::PastryNetwork::build(net, 24, {});
  KeywordSearchService service(pastry, options());
  service.publish(2, 1, KeywordSet({"a", "b"}));
  clock.run();
  std::optional<KeywordSearchService::Answer> answer;
  service.search(1, KeywordSet({"a"}), {},
                 [&](const KeywordSearchService::Answer& a) { answer = a; });
  clock.run();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->hits.size(), 1u);
}

}  // namespace
}  // namespace hkws::index
