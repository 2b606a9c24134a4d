// Index replication via a secondary hypercube (paper §3.4: "replication can
// be done ... by building a secondary hypercube"). The mirror uses an
// independent keyword hash h' and an independent logical-to-physical map g',
// so the mirror entry of an object lives on a different peer than its
// primary entry with overwhelming probability; a single peer failure can
// therefore never silence a keyword set.
//
// Write path: the primary publish creates the DOLR reference and primary
// entry; the mirror entry rides one extra routed message. Read path:
// mirrored searches run the protocol on both cubes and union the results —
// roughly twice the cost, in exchange for single-fault tolerance of the
// index itself (reference replication is the DOLR's separate concern).
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "index/overlay_index.hpp"

namespace hkws::obs {
class WindowedMetrics;
}

namespace hkws::index {

class MirroredIndex {
 public:
  /// @param cfg  primary cube configuration; the mirror derives its own
  ///             hash seed and placement salt from it.
  MirroredIndex(dht::Dolr& dolr, OverlayIndex::Config cfg);

  /// Publishes the reference (DOLR) and, for first copies, both index
  /// entries. The callback reports the primary's result. Clears the
  /// object's withdrawal mark (see resync).
  void publish(sim::EndpointId publisher, ObjectId object,
               const KeywordSet& keywords,
               OverlayIndex::PublishCallback done = nullptr);

  /// Withdraws the copy; on last-copy removal both entries are deleted.
  /// The object stays marked as withdrawing from the primary's delete
  /// until the mirror's deindex lands.
  void withdraw(sim::EndpointId publisher, ObjectId object,
                const KeywordSet& keywords,
                OverlayIndex::WithdrawCallback done = nullptr);

  /// Superset search over both cubes; hits are unioned by object id. The
  /// reported stats are the sums; `complete` holds if either traversal was
  /// complete (that is the availability win). Returns a ticket usable with
  /// cancel() while either traversal is still in flight.
  std::uint64_t superset_search(sim::EndpointId searcher,
                                const KeywordSet& query,
                                std::size_t threshold, SearchStrategy strategy,
                                OverlayIndex::SearchCallback done);

  /// Abandons both in-flight traversals of a superset search; the callback
  /// is never invoked. Returns false if the ticket already completed.
  bool cancel(std::uint64_t ticket);

  /// Pin search over both cubes, unioned.
  void pin_search(sim::EndpointId searcher, const KeywordSet& keywords,
                  OverlayIndex::SearchCallback done);

  /// Churn maintenance for both cubes.
  std::uint64_t repair_placement();
  std::uint64_t repair_placement(std::size_t max_entries);
  std::size_t misplaced_entries() const;
  void purge_dead();

  /// Anti-entropy between the cubes: for up to `max_entries` entries that
  /// one cube holds (at a live peer) and the other lost with a failed peer,
  /// issues a routed reindex into the missing side. Idempotent; repeated
  /// budgeted calls converge until both cubes index the same entry set of
  /// published objects. Returns reindex messages issued.
  ///
  /// Objects marked as withdrawing are not re-seeded: that keeps a resync
  /// between withdraw's primary delete and its mirror deindex from copying
  /// the withdrawn entry back. Whether the DOLR still holds a reference
  /// does not matter, so an entry whose references were all lost with
  /// failed peers is still restored. A deindex that never lands keeps its
  /// object marked until the object is published again.
  std::uint64_t resync(std::size_t max_entries);

  /// Entries of published objects present in one cube but missing from the
  /// other — the mirror-resync backlog the maintenance plane drains.
  std::size_t resync_backlog() const;

  /// Failovers observed at merge time: searches where exactly one cube
  /// failed and the other served the query alone (primary-miss ->
  /// mirror-hit and vice versa). Cumulative; also counted into the
  /// "kws.mirror_failover" network metric and, when set_windows() was
  /// called, the "mirror.failover" windowed counter.
  std::uint64_t failover_count() const noexcept { return failovers_; }

  /// Installs a windowed-metrics sink for per-window failover observability
  /// (nullptr to remove; not owned, must outlive this object).
  void set_windows(obs::WindowedMetrics* windows) { windows_ = windows; }

  OverlayIndex& primary() noexcept { return *primary_; }
  OverlayIndex& mirror() noexcept { return *mirror_; }
  const OverlayIndex& primary() const noexcept { return *primary_; }
  const OverlayIndex& mirror() const noexcept { return *mirror_; }

 private:
  static OverlayIndex::Config mirror_config(OverlayIndex::Config cfg);
  /// Merges two finished results (union by object id, summed costs);
  /// detects and counts single-cube failovers.
  SearchResult merge(const SearchResult& a, const SearchResult& b);
  /// Whether `src`'s entry <keywords, object> at `holder` should seed
  /// `dst`: a live copy, not being withdrawn, that `dst` lacks.
  bool should_seed(const OverlayIndex& dst, const KeywordSet& keywords,
                   ObjectId object, sim::EndpointId holder) const;
  /// Entries `src` holds at live peers that `dst` should but does not
  /// index.
  std::size_t missing_entries(const OverlayIndex& src,
                              const OverlayIndex& dst) const;

  std::unique_ptr<OverlayIndex> primary_;
  std::unique_ptr<OverlayIndex> mirror_;
  obs::WindowedMetrics* windows_ = nullptr;
  std::uint64_t failovers_ = 0;
  /// In-flight superset tickets -> the two underlying request ids.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      active_;
  std::uint64_t next_ticket_ = 1;
  /// Objects whose primary entry a withdraw removed and whose mirror
  /// deindex has not landed yet.
  std::unordered_set<ObjectId> withdrawing_;
};

}  // namespace hkws::index
