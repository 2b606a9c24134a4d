// The hypercube keyword index with every logical node held in-process.
//
// This is the reference implementation of the paper's index scheme (§3.3):
// it executes the very same traversals as the distributed protocol (same
// visit order, same early termination, same message accounting) but without
// simulated network delivery, so the large experiments (Figs. 6-9: 131k
// objects, up to 178k queries) run in milliseconds. The distributed version
// (OverlayIndex) runs the identical logic as real protocol messages over
// the Chord overlay; integration tests assert the two agree hit-for-hit and
// message-for-message.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/keyword.hpp"
#include "cube/hypercube.hpp"
#include "cube/sbt.hpp"
#include "index/index_table.hpp"
#include "index/keyword_hash.hpp"
#include "index/query_cache.hpp"
#include "index/search_types.hpp"

namespace hkws::index {

class LogicalIndex {
 public:
  struct Config {
    int r = 10;                      ///< hypercube dimension
    std::uint64_t hash_seed = seeds::kKeywordHash;
    std::size_t cache_capacity = 0;  ///< per-node cache records; 0 = off
  };

  explicit LogicalIndex(Config cfg);

  // --- Object maintenance (one node touched per op, paper §3.5) ---------

  /// Indexes `object` under its full keyword set at F_h(keywords).
  /// Empty keyword sets are rejected (no node would be responsible).
  void insert(ObjectId object, const KeywordSet& keywords);

  /// Removes the index entry <keywords, object>. Returns whether found.
  bool remove(ObjectId object, const KeywordSet& keywords);

  // --- Search ------------------------------------------------------------

  /// Pin search: objects whose keyword set is exactly `keywords`.
  SearchResult pin_search(const KeywordSet& keywords) const;

  /// Superset search: up to `threshold` objects describable by `query`
  /// (threshold 0 = all of O_K). See SearchStrategy for exploration order.
  SearchResult superset_search(const KeywordSet& query,
                               std::size_t threshold = 0,
                               SearchStrategy strategy =
                                   SearchStrategy::kTopDownSequential);

  /// Cumulative superset search (paper §2.2/§3.3): the root keeps the
  /// traversal queue, so consecutive next() calls return disjoint batches
  /// until the subhypercube is exhausted.
  class CumulativeSession {
   public:
    /// Fetches up to `count` further objects. Empty result = exhausted.
    SearchResult next(std::size_t count);
    bool exhausted() const noexcept { return pos_ >= order_.size(); }
    const KeywordSet& query() const noexcept { return query_.keywords(); }

   private:
    friend class LogicalIndex;
    CumulativeSession(LogicalIndex& owner, KeywordSet query);
    LogicalIndex& owner_;
    IndexTable::Query query_;
    std::vector<cube::CubeId> order_;  // BFS order of the SBT
    std::size_t pos_ = 0;
    std::size_t offset_ = 0;  // results already returned from order_[pos_]
  };

  CumulativeSession begin_cumulative(const KeywordSet& query) {
    return CumulativeSession(*this, query);
  }

  /// A cost profile of the full top-down traversal for `query`, computed
  /// without touching the caches: where in the BFS visit order each
  /// contributing node sits and how many matches it holds. From this the
  /// experiment harnesses derive nodes-contacted at *any* recall rate or
  /// threshold (an early-stopped search is exactly a prefix of the full
  /// BFS), without re-running the traversal per recall point.
  struct TraversalProfile {
    cube::CubeId root = 0;
    std::uint64_t total_nodes = 0;  ///< subhypercube size (100%-recall cost)
    std::uint64_t total_hits = 0;   ///< |O_K|
    struct Contributor {
      std::uint64_t position;  ///< 0-based index in BFS visit order
      cube::CubeId node;
      std::uint32_t count;
    };
    std::vector<Contributor> contributors;  ///< in visit order

    /// Nodes contacted by a sequential top-down search stopping as soon as
    /// `target_hits` results are collected (0 or > total_hits: the whole
    /// subhypercube — the search cannot know it is done before exhausting it).
    std::uint64_t nodes_to_collect(std::uint64_t target_hits) const;
  };
  TraversalProfile traversal_profile(const KeywordSet& query) const;

  // --- Introspection (experiments, tests) --------------------------------

  const cube::Hypercube& cube() const noexcept { return cube_; }
  const KeywordHasher& hasher() const noexcept { return hasher_; }
  std::size_t object_count() const noexcept { return objects_; }

  const IndexTable& table_at(cube::CubeId u) const {
    return tables_[static_cast<std::size_t>(u)];
  }

  /// Index load (objects) per hypercube node, indexed by CubeId.
  std::vector<std::size_t> loads() const;

  /// Aggregate cache statistics over all nodes.
  struct CacheStats {
    std::uint64_t hits = 0, misses = 0, evictions = 0, stale = 0;
  };
  CacheStats cache_stats() const;
  void clear_caches();

 private:
  SearchResult search_top_down(cube::CubeId root,
                               const IndexTable::Query& query,
                               std::size_t threshold);
  SearchResult search_bottom_up(cube::CubeId root,
                                const IndexTable::Query& query,
                                std::size_t threshold);
  SearchResult search_level_parallel(cube::CubeId root,
                                     const IndexTable::Query& query,
                                     std::size_t threshold);
  /// Serves a query from a cached traversal summary (root already counted).
  SearchResult serve_from_cache(cube::CubeId root,
                                const IndexTable::Query& query,
                                std::size_t threshold,
                                const CachedTraversal& cached);
  /// Collects matches at one node into `out`; returns #objects appended.
  std::size_t collect_at(cube::CubeId u, const IndexTable::Query& query,
                         std::size_t room, std::vector<Hit>& out) const;

  Config cfg_;
  cube::Hypercube cube_;
  KeywordHasher hasher_;
  std::vector<IndexTable> tables_;
  mutable std::vector<QueryCache> caches_;  // empty when caching disabled
  std::size_t objects_ = 0;
  /// Bumped on every successful insert/remove; cached traversals carry the
  /// epoch they were built under and are invalidated when it is older (the
  /// mutated node may be a descendant of the cached root, which the local
  /// erase_if above cannot see).
  std::uint64_t mutation_epoch_ = 0;
};

}  // namespace hkws::index
