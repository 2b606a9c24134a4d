#include "index/index_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace hkws::index {
namespace {

TEST(IndexTable, AddAndExact) {
  IndexTable t;
  const KeywordSet k({"news", "tv"});
  EXPECT_TRUE(t.add(k, 1));
  EXPECT_TRUE(t.add(k, 2));
  EXPECT_FALSE(t.add(k, 1));  // duplicate
  EXPECT_EQ(t.exact(k), (std::vector<ObjectId>{1, 2}));
  EXPECT_EQ(t.object_count(), 2u);
  EXPECT_EQ(t.entry_count(), 1u);  // combined entry <K, {1,2}>
}

TEST(IndexTable, ExactMissIsEmpty) {
  IndexTable t;
  t.add(KeywordSet({"a"}), 1);
  EXPECT_TRUE(t.exact(KeywordSet({"b"})).empty());
  EXPECT_TRUE(t.exact(KeywordSet({"a", "b"})).empty());
}

TEST(IndexTable, RemoveSemantics) {
  IndexTable t;
  const KeywordSet k({"x"});
  t.add(k, 1);
  t.add(k, 2);
  EXPECT_TRUE(t.remove(k, 1));
  EXPECT_FALSE(t.remove(k, 1));  // already gone
  EXPECT_FALSE(t.remove(KeywordSet({"y"}), 2));
  EXPECT_EQ(t.object_count(), 1u);
  EXPECT_TRUE(t.remove(k, 2));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.entry_count(), 0u);
}

TEST(IndexTable, SupersetsMatchesContainment) {
  IndexTable t;
  t.add(KeywordSet({"a", "b"}), 1);
  t.add(KeywordSet({"a", "b", "c"}), 2);
  t.add(KeywordSet({"a", "c"}), 3);
  t.add(KeywordSet({"b", "c"}), 4);

  const auto hits = t.supersets(KeywordSet({"a", "b"}));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].object, 1u);
  EXPECT_EQ(hits[1].object, 2u);
  EXPECT_EQ(hits[1].keywords, KeywordSet({"a", "b", "c"}));
}

TEST(IndexTable, SupersetsRespectsLimit) {
  IndexTable t;
  const KeywordSet k({"q"});
  for (ObjectId o = 1; o <= 10; ++o)
    t.add(KeywordSet({"q", "extra" + std::to_string(o)}), o);
  EXPECT_EQ(t.supersets(k).size(), 10u);
  EXPECT_EQ(t.supersets(k, 3).size(), 3u);
  EXPECT_EQ(t.supersets(k, 100).size(), 10u);
}

TEST(IndexTable, SupersetLimitCutsInsideAnEntry) {
  IndexTable t;
  const KeywordSet k({"q"});
  for (ObjectId o = 1; o <= 5; ++o) t.add(k, o);
  EXPECT_EQ(t.supersets(k, 2).size(), 2u);
}

TEST(IndexTable, ForEachSupersetEarlyStop) {
  IndexTable t;
  for (ObjectId o = 1; o <= 5; ++o)
    t.add(KeywordSet({"q", "x" + std::to_string(o)}), o);
  int calls = 0;
  t.for_each_superset(KeywordSet({"q"}),
                      [&](const KeywordSet&, const std::set<ObjectId>&) {
                        ++calls;
                        return calls < 2;
                      });
  EXPECT_EQ(calls, 2);
}

TEST(IndexTable, EmptyQueryMatchesEverything) {
  IndexTable t;
  t.add(KeywordSet({"a"}), 1);
  t.add(KeywordSet({"b"}), 2);
  EXPECT_EQ(t.supersets(KeywordSet{}).size(), 2u);
}

TEST(IndexTable, DisjointQueryMatchesNothing) {
  IndexTable t;
  t.add(KeywordSet({"a", "b"}), 1);
  EXPECT_TRUE(t.supersets(KeywordSet({"z"})).empty());
}

// Pins the deterministic hit order: entries are visited in keyword-set
// (std::map) order regardless of insertion order, and objects within an
// entry in ascending id order. Result batching, cumulative sessions and
// the torture oracle all rely on this exact sequence.
TEST(IndexTable, SupersetHitOrderIsKeywordSetOrder) {
  IndexTable t;
  t.add(KeywordSet({"q", "z"}), 9);
  t.add(KeywordSet({"a", "q"}), 4);
  t.add(KeywordSet({"a", "q"}), 3);
  t.add(KeywordSet({"m", "n", "q"}), 7);
  t.add(KeywordSet({"b", "q"}), 5);

  const auto hits = t.supersets(KeywordSet({"q"}));
  ASSERT_EQ(hits.size(), 5u);
  EXPECT_EQ(hits[0].keywords, KeywordSet({"a", "q"}));
  EXPECT_EQ(hits[0].object, 3u);
  EXPECT_EQ(hits[1].keywords, KeywordSet({"a", "q"}));
  EXPECT_EQ(hits[1].object, 4u);
  EXPECT_EQ(hits[2].keywords, KeywordSet({"b", "q"}));
  EXPECT_EQ(hits[2].object, 5u);
  EXPECT_EQ(hits[3].keywords, KeywordSet({"m", "n", "q"}));
  EXPECT_EQ(hits[3].object, 7u);
  EXPECT_EQ(hits[4].keywords, KeywordSet({"q", "z"}));
  EXPECT_EQ(hits[4].object, 9u);
}

// The limit boundary in detail: cutting mid-entry keeps the prefix of the
// entry's object set, and the truncation flag reports the cut — including
// the silent case where the limit lands exactly on an entry boundary but
// matching objects remain beyond it.
TEST(IndexTable, SupersetLimitMidEntryBoundary) {
  IndexTable t;
  t.add(KeywordSet({"a", "q"}), 1);
  t.add(KeywordSet({"a", "q"}), 2);
  t.add(KeywordSet({"a", "q"}), 3);
  t.add(KeywordSet({"b", "q"}), 4);

  bool truncated = false;
  auto hits = t.supersets(KeywordSet({"q"}), 2, &truncated);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].object, 1u);
  EXPECT_EQ(hits[1].object, 2u);
  EXPECT_TRUE(truncated);  // cut inside <{a,q}, {1,2,3}>

  hits = t.supersets(KeywordSet({"q"}), 3, &truncated);
  EXPECT_EQ(hits.size(), 3u);
  EXPECT_TRUE(truncated);  // exact entry boundary, but {b,q} remains

  hits = t.supersets(KeywordSet({"q"}), 4, &truncated);
  EXPECT_EQ(hits.size(), 4u);
  EXPECT_FALSE(truncated);  // exactly everything

  hits = t.supersets(KeywordSet({"q"}), 0, &truncated);
  EXPECT_EQ(hits.size(), 4u);
  EXPECT_FALSE(truncated);  // no limit, nothing cut
}

IndexTable::ScanStats minus(const IndexTable::ScanStats& a,
                            const IndexTable::ScanStats& b) {
  return {a.scans - b.scans,
          a.candidates - b.candidates,
          a.signature_rejects - b.signature_rejects,
          a.subset_checks - b.subset_checks,
          a.matches - b.matches,
          a.linear_equivalent - b.linear_equivalent};
}

// Scans `query` three ways — the KeywordSet entry point, a prepared query
// through for_each_superset, and a prepared query through supersets_into —
// and checks each against the linear reference entry for entry, and the
// prepared scans' work counters against the KeywordSet scan's.
void expect_scans_agree(const IndexTable& t, const KeywordSet& query) {
  std::vector<Hit> ref;
  std::uint64_t ref_entries = 0;
  t.for_each_superset_linear(query, [&](const KeywordSet& k,
                                        const std::set<ObjectId>& objects) {
    ++ref_entries;
    for (ObjectId o : objects) ref.push_back(Hit{o, k});
    return true;
  });
  const auto collect = [](std::vector<Hit>& out) {
    return [&out](const KeywordSet& k, const std::set<ObjectId>& objects) {
      for (ObjectId o : objects) out.push_back(Hit{o, k});
      return true;
    };
  };

  const IndexTable::ScanStats before = t.scan_stats();
  std::vector<Hit> by_set;
  t.for_each_superset(query, collect(by_set));
  const IndexTable::ScanStats after_set = t.scan_stats();

  const IndexTable::Query prepared(query);
  EXPECT_EQ(prepared.keywords(), query);
  std::vector<Hit> by_prepared;
  t.for_each_superset(prepared, collect(by_prepared));
  const IndexTable::ScanStats after_prepared = t.scan_stats();

  std::vector<Hit> into = {Hit{99, KeywordSet({"stale"})}};
  bool truncated = true;
  t.supersets_into(prepared, 0, &truncated, into);
  const IndexTable::ScanStats after_into = t.scan_stats();

  ASSERT_EQ(by_set, ref) << "query=" << query.to_string();
  ASSERT_EQ(by_prepared, ref) << "query=" << query.to_string();
  ASSERT_EQ(into, ref) << "query=" << query.to_string();
  EXPECT_FALSE(truncated);
  const IndexTable::ScanStats set_work = minus(after_set, before);
  EXPECT_EQ(set_work.scans, 1u);
  EXPECT_EQ(set_work.matches, ref_entries);
  EXPECT_EQ(set_work.linear_equivalent, t.entry_count());
  EXPECT_EQ(minus(after_prepared, after_set), set_work)
      << "query=" << query.to_string();
  EXPECT_EQ(minus(after_into, after_prepared), set_work)
      << "query=" << query.to_string();
}

// Differential check: the signature-indexed scan, through the KeywordSet
// entry point and through a prepared query, must produce the same
// (entry, objects) sequence as the retained linear reference scan, on a
// randomized table, across add/remove churn and query shapes.
TEST(IndexTable, SignatureScanMatchesLinearReference) {
  Rng rng(0x5eed5);
  const std::vector<std::string> vocab = {"a", "b", "c", "d", "e",
                                          "f", "g", "h", "i", "j"};
  IndexTable t;
  std::vector<std::pair<KeywordSet, ObjectId>> live;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.next_double() < 0.7) {
      std::vector<Keyword> words;
      const std::size_t n = 1 + rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i)
        words.push_back(vocab[rng.next_below(vocab.size())]);
      const KeywordSet k(words);
      const auto object = static_cast<ObjectId>(rng.next_below(64));
      if (t.add(k, object)) live.emplace_back(k, object);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      EXPECT_TRUE(t.remove(live[pick].first, live[pick].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    // Probe with a random query (sometimes empty, sometimes unindexed).
    std::vector<Keyword> qwords;
    const std::size_t qn = rng.next_below(4);
    for (std::size_t i = 0; i < qn; ++i)
      qwords.push_back(vocab[rng.next_below(vocab.size())]);
    if (rng.next_double() < 0.1) qwords.push_back("unseen");
    expect_scans_agree(t, KeywordSet(qwords));
  }

  // Withdraw every entry holding one keyword. The presence filter keeps
  // that keyword's bits (it is never cleared), so a probe passes the filter
  // and must still find nothing, alone or with other keywords.
  const Keyword gone = "c";
  std::size_t removed = 0;
  for (std::size_t i = 0; i < live.size();) {
    if (live[i].first.contains(gone)) {
      EXPECT_TRUE(t.remove(live[i].first, live[i].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      ++removed;
    } else {
      ++i;
    }
  }
  ASSERT_GT(removed, 0u);
  ASSERT_FALSE(live.empty());
  for (const auto& [k, object] : t.entries()) ASSERT_FALSE(k.contains(gone));
  for (const KeywordSet& probe :
       {KeywordSet({gone}), KeywordSet({gone, "a"}), KeywordSet({"b", gone}),
        KeywordSet({"a"}), KeywordSet{}}) {
    expect_scans_agree(t, probe);
    if (probe.contains(gone)) {
      EXPECT_TRUE(t.supersets(probe).empty()) << probe.to_string();
    }
  }
}

// The signature index must actually skip work: on a table where most
// entries don't contain the probe keyword, candidates examined stay far
// below what the linear scan would touch.
TEST(IndexTable, ScanStatsShowSublinearWork) {
  IndexTable t;
  for (ObjectId o = 0; o < 200; ++o)
    t.add(KeywordSet({"bulk" + std::to_string(o)}), o);
  t.add(KeywordSet({"rare", "x"}), 1000);
  t.add(KeywordSet({"rare", "y"}), 1001);

  t.reset_scan_stats();
  const auto hits = t.supersets(KeywordSet({"rare"}));
  EXPECT_EQ(hits.size(), 2u);
  const auto& s = t.scan_stats();
  EXPECT_EQ(s.scans, 1u);
  EXPECT_EQ(s.candidates, 2u);  // only the "rare" posting list
  EXPECT_EQ(s.matches, 2u);
  EXPECT_EQ(s.linear_equivalent, t.entry_count());
  EXPECT_LT(s.candidates, s.linear_equivalent);
}

}  // namespace
}  // namespace hkws::index
