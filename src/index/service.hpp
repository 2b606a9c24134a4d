// KeywordSearchService — the application-facing facade of the keyword/
// attribute search layer (the box the paper's Fig. 2 inserts between the
// application and the P2P overlay). It owns the DOLR and the (optionally
// mirrored) hypercube index over any dht::Overlay, and packages the common
// application flows:
//
//   publish / withdraw    object lifecycle (references + index entries)
//   pin                   exact keyword-set lookup
//   search                superset search with ranking, refinement
//                         suggestions, and query-expansion advice
//   browse                cumulative paging (root keeps the queue)
//   resolve               object id -> replica holders (DOLR read)
//   repair                churn maintenance for all owned state
//
// Options is the whole OverlayIndex::Config plus the service's own fields
// (DOLR replication, mirroring, metrics sink), so a deployment built
// through the service runs the index a hand-built one would. The
// background maint::MaintenancePlane drives repair_step, repair_backlog
// and replication_step of one service.
//
// Everything is asynchronous over the simulated network; callbacks fire as
// simulation events.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "dht/dolr.hpp"
#include "index/mirrored.hpp"
#include "index/overlay_index.hpp"
#include "index/ranking.hpp"

namespace hkws::index {

class KeywordSearchService {
 public:
  /// The index configuration (OverlayIndex::Config, handed to the primary
  /// cube as is; the mirror derives its own from it) plus the service's
  /// own fields. Popularity-aware hot-cell replication (`hot`) runs on the
  /// primary cube only: the mirror's traffic share is already a failover
  /// artifact.
  struct Options : OverlayIndex::Config {
    int replication_factor = 2;  ///< DOLR reference replicas
    bool mirror_index = false;   ///< secondary hypercube (§3.4)
    /// Windowed-metrics sink for mirror-failover observability (optional;
    /// not owned, must outlive the service).
    obs::WindowedMetrics* windows = nullptr;
  };

  KeywordSearchService(dht::Overlay& overlay, Options options);

  // --- Object lifecycle ---------------------------------------------------

  void publish(sim::EndpointId peer, ObjectId object,
               const KeywordSet& keywords,
               OverlayIndex::PublishCallback done = nullptr);
  void withdraw(sim::EndpointId peer, ObjectId object,
                const KeywordSet& keywords,
                OverlayIndex::WithdrawCallback done = nullptr);

  // --- Search ----------------------------------------------------------------

  struct SearchOptions {
    std::size_t limit = 0;  ///< min(limit, |O_K|); 0 = everything
    SearchStrategy strategy = SearchStrategy::kTopDownSequential;
    RankingPreference order = RankingPreference::kGeneralFirst;
    /// Attach refinement suggestions (up to this many categories; 0 = off).
    std::size_t refinement_categories = 0;
    /// Attach a §3.4 query-expansion suggestion when one qualifies.
    bool suggest_expansion = false;
  };

  struct Answer {
    std::vector<Hit> hits;  ///< ranked per SearchOptions::order
    SearchStats stats;
    std::vector<RefinementSample> refinements;
    std::optional<KeywordSet> expansion;
  };
  using AnswerCallback = std::function<void(const Answer&)>;

  /// Exact-set lookup.
  void pin(sim::EndpointId searcher, const KeywordSet& keywords,
           AnswerCallback done);

  /// Superset search + ranking + optional refinement/expansion advice.
  /// Returns a ticket accepted by cancel_search() while in flight.
  std::uint64_t search(sim::EndpointId searcher, const KeywordSet& query,
                       const SearchOptions& options, AnswerCallback done);

  /// Abandons an in-flight search; its callback is never invoked. Returns
  /// false if the ticket already completed (or never existed).
  bool cancel_search(std::uint64_t ticket);

  // --- Browsing (cumulative search; primary cube only) ------------------------

  std::uint64_t open_browse(sim::EndpointId searcher, const KeywordSet& query);
  void browse_next(std::uint64_t session, std::size_t page_size,
                   AnswerCallback done);
  bool browse_done(std::uint64_t session) const;
  void close_browse(std::uint64_t session);

  // --- Object resolution / maintenance ------------------------------------------

  /// Resolves an object id to its replica holders (the DOLR Read).
  void resolve(sim::EndpointId reader, ObjectId object,
               dht::Dolr::ReadCallback done);

  /// Churn maintenance: drops dead peers' state, re-places misplaced index
  /// entries, restores reference replication. Returns entries moved.
  std::uint64_t repair();

  /// One rate-limited slice of the repair sweep, for the background
  /// maintenance plane: purges dead peers' state, then moves/copies at most
  /// `entry_budget` index entries (placement repair + mirror resync) and
  /// `ref_budget` replica copies. Returns total units of repair work done;
  /// 0 together with repair_backlog() == 0 means the service converged.
  std::uint64_t repair_step(std::size_t entry_budget, std::size_t ref_budget);

  /// Known outstanding repair work: misplaced index entries + entries one
  /// cube lost (mirrored only) + missing replica copies + out-of-sync
  /// hot-cell replicas.
  std::size_t repair_backlog() const;

  /// One rate-limited hot-cell replication round on the primary cube (see
  /// OverlayIndex::replication_step); the maintenance plane's replication
  /// ticker calls this. No-op returning 0 unless Options::hot.enabled.
  std::uint64_t replication_step(std::size_t max_entries);

  /// Outstanding hot-cell replication work on the primary cube.
  std::size_t replication_backlog() const;

  // --- Escape hatches ---------------------------------------------------------

  dht::Dolr& dolr() noexcept { return dolr_; }
  OverlayIndex& primary_index();
  const OverlayIndex& primary_index() const;
  /// The secondary cube; null unless Options::mirror_index.
  OverlayIndex* mirror_index();

 private:
  Answer decorate(SearchResult result, const KeywordSet& query,
                  const SearchOptions& options) const;

  dht::Dolr dolr_;
  std::unique_ptr<OverlayIndex> plain_;     // exactly one of these two
  std::unique_ptr<MirroredIndex> mirrored_;
};

}  // namespace hkws::index
