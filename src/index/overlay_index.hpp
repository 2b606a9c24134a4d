// The distributed hypercube keyword-index layer (paper §3.3) running as a
// real message protocol over the Chord overlay and the DOLR reference
// service. Every logical hypercube node u is mapped by g onto the DHT peer
// owning ring key g(u); all index/search traffic travels as simulated
// network messages (T_QUERY, T_CONT, T_STOP, results, done), so hop and
// message counts come out of the network metrics, not a model.
//
// Protocol notes / adaptations (documented in DESIGN.md):
//  * One implementation per protocol step: an index-entry change is one
//    routed kws.insert/kws.delete to g(F_h(K)), a pin one routed lookup, and
//    sequential and cumulative searches walk cube::SpanningBinomialTree's
//    orders (bfs_order() is the paper's queue U).
//  * The first time a coordinator needs to reach a hypercube node it routes
//    through the DHT (multi-hop); the resolved peer contact is cached, so
//    repeat traffic is direct — exactly the neighbor-contact caching the
//    paper recommends in §3.4.
//  * Result messages go directly from each contributing node to the
//    searcher (as in the paper); the final `done` notification carries the
//    number of result messages sent so the searcher can complete exactly
//    when everything has arrived regardless of message reordering.
//  * Co-host visit coalescing (Config::coalesce_visits): when a
//    level-parallel round would visit several logical cube nodes whose
//    g-mapping resolves to the same cached physical contact, the
//    coordinator merges them into one `kws.visit_batch` wire message. The
//    peer scans every co-hosted node, ships a single `kws.batch_results`
//    message carrying per-logical-node batches to the searcher, and one
//    `kws.batch_reply` control message to the coordinator (empty co-hosted
//    nodes ride along for free). Per-node step timers stay armed: a lost
//    batch falls back to individual retransmission, which replays each
//    node's memoized scan, so loss tolerance and surrogate failover are
//    unchanged. An exhaustive search (threshold 0) cannot stop at a level
//    boundary, so with coalescing on its round is the whole subcube: every
//    SBT level goes out at once, in BFS order, and each peer gets one
//    message and answers once. A thresholded search keeps one round per
//    level for its early stop. See docs/PERF.md.
//  * Hit assembly is deterministic: each node's result batch is buffered
//    by origin and concatenated in dispatch (visit) order at completion,
//    so the hit sequence is independent of message arrival order — and
//    byte-identical with coalescing on or off.
//  * Superset search optionally runs with loss-tolerant delivery: when
//    Config::step_timeout is set, every protocol step (root route, a hot
//    root's handoff to a replica holder, per-node T_QUERY with its
//    T_CONT/T_STOP reply, result delivery, and the final done
//    notification) is one Guard — a cancelable timer plus a send count,
//    armed by arm() and expired through on_expired() — and retransmitted
//    up to Config::max_retries times. Retransmitted steps are
//    idempotent — each node memoizes its first scan per request and
//    replays the same batch, and the searcher deduplicates batches by
//    origin node — so a search over a lossy network returns exactly the
//    result set of the lossless run, or reports stats.failed when a step
//    exhausts its budget. Requests can also be cancelled mid-flight
//    (deadline abandonment): cancel() drops all coordinator state and
//    signals the root with a T_STOP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/keyword.hpp"
#include "common/rng.hpp"
#include "cube/hypercube.hpp"
#include "cube/sbt.hpp"
#include "dht/dolr.hpp"
#include "index/hit_pool.hpp"
#include "index/index_table.hpp"
#include "index/keyword_hash.hpp"
#include "index/query_cache.hpp"
#include "index/search_types.hpp"
#include "net/transport.hpp"

namespace hkws::index {

class OverlayIndex {
 public:
  struct Config {
    int r = 8;
    std::uint64_t hash_seed = seeds::kKeywordHash;
    /// Salt of the logical-to-physical map g. A mirror index (secondary
    /// hypercube, §3.4) uses a different salt so its entries land on
    /// different peers than the primary's.
    std::uint64_t ring_salt = seeds::kCubeToDht;
    std::size_t cache_capacity = 0;  ///< per-node query-cache records; 0 = off
    /// Merge a level-parallel round's visits to co-hosted cube nodes (same
    /// cached live contact) into one VisitBatch wire message per peer, and
    /// run an exhaustive search's whole subcube as one round. Only cuts
    /// messages once contacts are warm. Results are byte-identical either
    /// way (see protocol notes above); off, every search dispatches level
    /// by level (the paper's §3.5).
    bool coalesce_visits = true;
    /// Superset-search retransmission timeout in ticks; 0 disables loss
    /// tolerance (legacy behaviour: a lost message stalls the request until
    /// someone cancels it). Choose > the round-trip p99 to avoid spurious
    /// (harmless but costly) retransmits.
    sim::Time step_timeout = 0;
    /// Retransmissions per protocol step before the request is failed.
    int max_retries = 3;
    /// Retransmission backoff (partition-aware resend pacing): the k-th
    /// retransmit of a step waits min(step_timeout * 2^k, backoff_cap)
    /// plus a seeded jitter draw in [0, backoff_jitter] — during a
    /// partition the survivors stop hammering the cut at a fixed cadence,
    /// and the jitter de-synchronizes the retry thundering herd when it
    /// heals. The *first* arm of every step waits exactly step_timeout and
    /// draws no randomness, so fault-free runs are bit-identical to the
    /// legacy fixed resend. backoff_cap == 0 disables backoff entirely
    /// (legacy: every retransmit waits step_timeout).
    sim::Time backoff_cap = 0;
    sim::Time backoff_jitter = 0;   ///< jitter bound per backed-off resend
    std::uint64_t backoff_seed = 1; ///< seed of the jitter stream
    /// Degraded-mode serving: after this many consecutive timeouts on one
    /// protocol step, the coordinator re-resolves the root through the DHT
    /// and re-aims the request at the surrogate owner instead of burning
    /// the rest of the retransmit budget against a dead peer. Results that
    /// crossed a failover carry stats.degraded. Requires step_timeout != 0;
    /// 0 disables failover (legacy behaviour: retries then failure). Also
    /// gates the pin's retransmission timer.
    int failover_after = 0;
    /// Popularity-aware hot-cell replication (docs/ROBUSTNESS.md). Query
    /// traffic recreates load skew even though keyword-fusion placement
    /// balances storage: a few logical nodes absorb most T_QUERY scans.
    /// When enabled, replication_step() detects hot cube nodes from a
    /// sliding scan-count window, copies their IndexTables to `replicas`
    /// extra peers (the owner's DHT successor set), and the coordinator
    /// round-robins visits across owner + replicas. Replica tables are
    /// write-through (every index mutation applies to them immediately), so
    /// a replica's scan is byte-identical to the primary's. The same window
    /// drives popularity-proportional query-cache sizing.
    struct HotCellConfig {
      bool enabled = false;
      /// Replica holders per hot cell (extra copies beyond the owner).
      int replicas = 2;
      /// Sliding popularity-window width in ticks (two buckets: a scan
      /// counts for between one and two window widths).
      sim::Time window = 1000;
      /// Windowed scan count at which a cell qualifies as hot.
      std::uint64_t min_scans = 32;
      /// Most-scanned cells replicated per replication_step (cap on the
      /// replicated set, not per-call work — the budget handles that).
      std::size_t max_hot = 8;
    };
    HotCellConfig hot = {};
  };

  OverlayIndex(dht::Dolr& dolr, Config cfg);

  // --- Mapping ------------------------------------------------------------

  /// g(u): the ring key of logical hypercube node u.
  dht::RingId ring_key_of(cube::CubeId u) const;

  /// F_h(K).
  cube::CubeId responsible_node(const KeywordSet& keywords) const {
    return hasher_.responsible_node(keywords);
  }

  /// The peer currently playing hypercube node u (ownership oracle; used
  /// by experiments and tests, not by the protocol).
  sim::EndpointId peer_of(cube::CubeId u) const;

  // --- Object maintenance (paper Insert / Delete) --------------------------

  struct PublishResult {
    bool indexed = false;  ///< first copy: a keyword index entry was created
    int dolr_hops = 0;     ///< hops of the reference insert
    int index_hops = 0;    ///< hops of the index-entry insert (0 if !indexed)
  };
  using PublishCallback = std::function<void(const PublishResult&)>;

  /// Publishes a copy of `object` with keyword set `keywords` from
  /// `publisher`: places the reference via the DOLR; on the first copy,
  /// also inserts the index entry <keywords, object> at g(F_h(keywords)).
  void publish(sim::EndpointId publisher, ObjectId object,
               const KeywordSet& keywords, PublishCallback done = nullptr);

  struct WithdrawResult {
    bool index_removed = false;  ///< last copy: the index entry was deleted
  };
  using WithdrawCallback = std::function<void(const WithdrawResult&)>;

  /// Withdraws `publisher`'s copy; deletes the index entry when the last
  /// copy disappears.
  void withdraw(sim::EndpointId publisher, ObjectId object,
                const KeywordSet& keywords, WithdrawCallback done = nullptr);

  /// Repair/anti-entropy path: (re-)creates the index entry for an object
  /// whose references still exist but whose index entry was lost with a
  /// failed peer. Idempotent; one routed message. Also the building block
  /// for mirror (secondary-hypercube) indexing. `landed(hops)`, if set,
  /// runs at the owner once the entry is applied.
  void reindex(sim::EndpointId from, ObjectId object,
               const KeywordSet& keywords,
               std::function<void(int hops)> landed = nullptr);

  /// Inverse of reindex: removes the index entry without touching the
  /// DOLR references. One routed message; `landed` as for reindex.
  void deindex(sim::EndpointId from, ObjectId object,
               const KeywordSet& keywords,
               std::function<void(int hops)> landed = nullptr);

  // --- Search ---------------------------------------------------------------

  using SearchCallback = std::function<void(const SearchResult&)>;

  /// Pin search: one routed query to g(F_h(K)), one direct reply.
  void pin_search(sim::EndpointId searcher, const KeywordSet& keywords,
                  SearchCallback done);

  /// Superset search with the selected exploration strategy. Returns the
  /// request id, usable with cancel() while the search is in flight.
  std::uint64_t superset_search(sim::EndpointId searcher,
                                const KeywordSet& query,
                                std::size_t threshold, SearchStrategy strategy,
                                SearchCallback done);

  /// Abandons an in-flight superset search: coordinator state is dropped,
  /// the callback is never invoked, and (if the root was already located) a
  /// T_STOP message tells the root to stop exploring the subtree. Returns
  /// false if the request already completed or never existed. This is the
  /// deadline-enforcement hook of the serving engine.
  bool cancel(std::uint64_t request);

  /// Requests in flight: superset searches plus pins (see PinState).
  std::size_t in_flight_requests() const noexcept {
    return requests_.size() + pins_.size();
  }

  // --- Tracing ---------------------------------------------------------------

  /// One protocol milestone of an in-flight request. Points currently
  /// emitted: "root" (a = root peer, b = route hops), "scan" (a = cube
  /// node, b = peer that served it), "level" (one per dispatch round: a =
  /// its first level, b = nodes dispatched; a one-round search has one),
  /// "coalesce" (a = co-host peer, b = visits merged into the batch),
  /// "retransmit" (a = cube node or root cube), "failed" (budget
  /// exhausted), "spread" (a = cube node, b = replica holder serving the
  /// visit instead of the owner). See docs/ENGINE.md for the schema.
  struct Trace {
    std::uint64_t request = 0;
    const char* point = "";
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  using TraceFn = std::function<void(const Trace&)>;

  /// Installs a trace observer (nullptr to remove). Invoked synchronously
  /// from protocol event handlers; keep it cheap and non-reentrant.
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  // --- Cumulative superset search (paper §2.2/§3.3) --------------------------
  //
  // "Cumulative superset search can be easily implemented by letting the
  // root node keep the queue U for subsequent queries until the search has
  // completed." U is the SBT's BFS order; consecutive next() calls on a
  // session return disjoint batches until the subhypercube is exhausted.

  /// Opens a browsing session. Cheap (no messages until the first next()).
  std::uint64_t open_cumulative(sim::EndpointId searcher,
                                const KeywordSet& query);

  /// Fetches up to `count` further results (count >= 1). The result's
  /// stats.complete is true once the subhypercube is exhausted.
  void cumulative_next(std::uint64_t session, std::size_t count,
                       SearchCallback done);

  /// Whether the session has returned everything.
  bool cumulative_exhausted(std::uint64_t session) const;

  /// Discards the session's root-side state.
  void close_cumulative(std::uint64_t session);

  // --- Maintenance after churn ---------------------------------------------

  /// Re-places every misplaced entry (repair_placement(SIZE_MAX)) and
  /// flushes contact/query caches, even if nothing moved. Returns moves.
  std::uint64_t repair_placement();

  /// Incremental variant for the maintenance plane: moves at most
  /// `max_entries` individual <keywords, object> entries per call, so
  /// repair work is rate-limited and interleaves with serving traffic.
  /// Re-scans on every call, so repeated calls converge to zero misplaced
  /// entries. Caches are flushed only when something actually moved.
  std::uint64_t repair_placement(std::size_t max_entries);

  /// Entries at live peers whose cube node is owned by someone else — the
  /// placement-repair backlog.
  std::size_t misplaced_entries() const;

  /// Drops index state held for peers that are no longer live (their
  /// entries are lost until republished — the paper's fault model).
  void purge_dead();

  // --- Hot-cell replication (Config::hot) ------------------------------------

  /// One round of popularity-aware replication (no-op unless hot.enabled):
  /// refreshes the hot set from the popularity window, demotes cells that
  /// cooled off, restores primary entries lost with a dead owner from
  /// surviving replicas, promotes/resyncs hot cells to their replica
  /// holders (full-table copies, at most `max_entries` entries per call so
  /// the maintenance plane can rate-limit it), and re-targets query-cache
  /// capacities in proportion to popularity. Synchronous bookkeeping — no
  /// wire messages. Returns entries copied or restored this round.
  std::uint64_t replication_step(std::size_t max_entries);

  /// Outstanding replication work: entries a registered live holder should
  /// mirror but does not yet, plus primary entries recoverable from a
  /// replica but missing at the owner. Zero once replication_step has
  /// converged for the current hot set.
  std::size_t replication_backlog() const;

  /// Replication counters (see docs/OBSERVABILITY.md).
  struct HotCellStats {
    std::size_t replicated_cells = 0;   ///< cells currently replicated
    std::size_t replica_holders = 0;    ///< live (cell, holder) pairs
    std::uint64_t promotions = 0;       ///< cells promoted to hot
    std::uint64_t demotions = 0;        ///< cells demoted (cooled off)
    std::uint64_t spread_visits = 0;    ///< visits served by a replica
    std::uint64_t entries_copied = 0;   ///< entries copied or restored
  };
  HotCellStats hot_cell_stats() const;

  // --- Introspection ---------------------------------------------------------

  const cube::Hypercube& cube() const noexcept { return cube_; }
  const KeywordHasher& hasher() const noexcept { return hasher_; }
  dht::Dolr& dolr() noexcept { return dolr_; }
  const dht::Dolr& dolr() const noexcept { return dolr_; }

  /// Whether the canonical owner of F_h(keywords) currently indexes
  /// <keywords, object>. Global-knowledge check used by the mirror resync
  /// to find entries one cube lost with a failed peer.
  bool has_entry(const KeywordSet& keywords, ObjectId object) const;

  /// Invokes fn(cube_node, keywords, object, holder_endpoint) for every
  /// index entry stored anywhere (including entries still held for dead
  /// peers until purge_dead runs). Anti-entropy building block.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const auto& [ep, ps] : peers_)
      for (const auto& [u, table] : ps.tables)
        for (const auto& [k, objects] : table.entries())
          for (ObjectId o : objects) fn(u, k, o, ep);
  }

  /// Invokes fn(cube_node, keywords, object, holder_endpoint) for every
  /// *replica* index entry (hot-cell copies held beside the primaries).
  /// Together with for_each_entry this enumerates every copy of every
  /// entry anywhere — the survivor set a churn oracle must credit.
  template <typename Fn>
  void for_each_replica_entry(Fn&& fn) const {
    for (const auto& [ep, ps] : peers_)
      for (const auto& [u, table] : ps.replica_tables)
        for (const auto& [k, objects] : table.entries())
          for (ObjectId o : objects) fn(u, k, o, ep);
  }

  /// The index table of cube node u at its current owner (nullptr if the
  /// owner holds no entries for u).
  const IndexTable* table_of(cube::CubeId u) const;

  /// Objects indexed per cube node (placement snapshot across all peers).
  std::vector<std::size_t> loads_by_cube_node() const;

  /// Aggregate superset-scan work counters summed over every index table on
  /// every peer (see IndexTable::ScanStats); the search-cost benchmark uses
  /// the delta against `linear_equivalent` to price the signature index.
  IndexTable::ScanStats scan_stats() const;
  void reset_scan_stats() const;

  /// Global index mutation epoch: bumped whenever any index table gains or
  /// loses an entry (publish/withdraw/reindex/deindex/repair/purge). Query
  /// caches stamp entries with the epoch; a lookup under a newer epoch is a
  /// miss. Exposed for tests and the torture harness's oracles.
  std::uint64_t mutation_epoch() const noexcept { return mutation_epoch_; }

 private:
  using Tables = std::unordered_map<cube::CubeId, IndexTable>;

  struct PeerState {
    Tables tables;
    std::unordered_map<cube::CubeId, QueryCache> caches;
    std::unordered_map<cube::CubeId, sim::EndpointId> contacts;
    /// Hot-cell replica copies held at this peer, keyed by cube node. Kept
    /// strictly apart from `tables` so placement accounting (misplaced
    /// entries, repair, occupancy, loads) never counts a copy twice.
    Tables replica_tables;
  };

  /// One slot per cube node: a peer and that peer's primary table of the
  /// node (see table_slots_).
  struct TableSlot {
    sim::EndpointId peer = 0;
    const IndexTable* table = nullptr;  ///< null: the slot names no table
  };

  /// Replication state of one hot cube node.
  struct ReplicaSet {
    std::vector<sim::EndpointId> holders;  ///< replica peers (never the owner)
    std::size_t rr = 0;                    ///< round-robin spread cursor
  };

  /// Two-bucket sliding scan-count window: a scan stays visible for
  /// between one and two window widths, then ages out with its bucket.
  struct PopularityWindow {
    sim::Time width = 0;
    std::uint64_t cur_index = 0;
    std::unordered_map<cube::CubeId, std::uint64_t> cur;
    std::unordered_map<cube::CubeId, std::uint64_t> prev;

    void rotate_to(sim::Time at) {
      if (width == 0) return;
      const std::uint64_t idx =
          static_cast<std::uint64_t>(at) / static_cast<std::uint64_t>(width);
      if (idx == cur_index) return;
      if (idx == cur_index + 1) {
        prev = std::move(cur);
      } else {
        prev.clear();
      }
      cur.clear();
      cur_index = idx;
    }
    void note(sim::Time at, cube::CubeId u) {
      rotate_to(at);
      ++cur[u];
    }
    std::uint64_t count(sim::Time at, cube::CubeId u) const {
      if (width == 0) return 0;
      const std::uint64_t idx =
          static_cast<std::uint64_t>(at) / static_cast<std::uint64_t>(width);
      std::uint64_t n = 0;
      if (idx == cur_index) {
        if (const auto it = cur.find(u); it != cur.end()) n += it->second;
        if (const auto it = prev.find(u); it != prev.end()) n += it->second;
      } else if (idx == cur_index + 1) {
        if (const auto it = cur.find(u); it != cur.end()) n += it->second;
      }
      return n;
    }
  };

  /// kPlan: one node at a time in a fixed order; kLevels: level by level
  /// (a one_round() search: the whole subcube at once).
  enum class Mode { kPlan, kLevels };

  /// The loss-guarded protocol steps (kNode once per cube node).
  enum class Step { kPin, kRoot, kHandoff, kNode, kDone, kRepair };

  /// A guarded step: its retransmission timer (0 = not armed) and the sends
  /// made so far, the first included.
  struct Guard {
    net::Transport::TimerId timer = 0;
    int sends = 0;
  };

  /// Target-side memo of one node's first scan for a request. Keeping the
  /// batch makes retransmitted T_QUERYs idempotent: a node always replays
  /// its original answer, never a rescan (whose room() could have changed).
  /// The batch is a pooled shared buffer: wire closures and the searcher's
  /// per-node buffer hold references instead of copies, and the memo drops
  /// its own reference after shipping when retransmission is off.
  struct Visit {
    sim::EndpointId peer = 0;
    std::size_t c1 = 0;       ///< matches found at first scan
    bool stop = false;        ///< control verdict computed at first scan
    bool truncated = false;   ///< the want limit cut matching objects off
    HitBatchPool::Batch batch;  ///< null when the scan found nothing
  };

  /// The searcher's side of one answer, shared by one-shot searches and
  /// cumulative pages: result batches buffered by origin node and
  /// concatenated in visit order, so the hit sequence is independent of
  /// message arrival order (and identical to the LogicalIndex traversal
  /// order on lossless runs).
  struct HitAssembly {
    explicit HitAssembly(
        std::pmr::memory_resource* mr = std::pmr::get_default_resource())
        : batches(mr) {}
    std::vector<cube::CubeId> order;  ///< cube nodes in visit order
    /// Batches that arrived, by origin node (null: written off by repair).
    std::pmr::unordered_map<cube::CubeId, HitBatchPool::Batch> batches;
    std::size_t expected = 0;  ///< result messages the nodes shipped
    bool done = false;         ///< the done notification arrived
    bool complete() const { return done && batches.size() == expected; }
    std::vector<Hit> hits() const;
  };

  /// First chunk of a request's arena. The chunks that follow grow
  /// geometrically, so an exhaustive scan-read search (about 300 visits)
  /// takes a handful of allocations in all.
  static constexpr std::size_t kArenaFirstChunk = 8 << 10;

  struct Request {
    /// The per-node containers below allocate from this arena, which frees
    /// everything at once when the request ends. libstdc++'s hashed
    /// containers order their elements independently of the allocator, so
    /// the order repair_results re-ships in does not depend on the arena.
    std::pmr::monotonic_buffer_resource arena{kArenaFirstChunk};
    std::uint64_t id = 0;
    /// Prepared once; every visited node's table scan reuses its keys.
    IndexTable::Query query;
    std::size_t threshold = 0;
    sim::EndpointId searcher = 0;
    cube::CubeId root_cube = 0;
    sim::EndpointId root_peer = 0;
    sim::EndpointId root_owner = 0;  ///< the root's owner the route found
    bool root_resolved = false;
    /// A failover re-resolution of the root is in flight (dedup guard).
    bool failover_rerouting = false;
    /// Index mutation epoch captured at request creation. A summary cached
    /// under this epoch is invalidated by any later mutation, so a search
    /// that raced a mutation can never serve its stale plan to a successor.
    std::uint64_t epoch = 0;
    Mode mode = Mode::kPlan;
    SearchStrategy strategy = SearchStrategy::kTopDownSequential;
    // Per-node state: the scanned nodes, the coordinator's dedup of their
    // answers, and the step guards by guard_key (empty when step_timeout
    // == 0).
    std::pmr::unordered_map<cube::CubeId, Visit> visits{&arena};
    std::pmr::unordered_set<cube::CubeId> answered{&arena};
    std::pmr::unordered_map<std::uint64_t, Guard> guards{&arena};
    // kPlan state: BFS (top-down), deepest-first (bottom-up) or cached
    // contributors' order, root excluded.
    std::vector<cube::CubeId> plan;
    std::size_t plan_pos = 0;
    bool plan_complete_means_complete = true;
    // kLevels state. start_level expands each level from the previous one
    // when it dispatches it, so a search that stops early never builds its
    // deeper levels; the two buffers are reused from level to level. A
    // one_round() search expands every level in its one dispatch.
    std::vector<cube::CubeId> level_nodes;  ///< the round last dispatched
    std::vector<cube::CubeId> level_next;   ///< expansion scratch
    std::size_t level = 0;        ///< depth of the next level to dispatch
    std::size_t level_count = 0;  ///< levels in the subcube's SBT
    std::size_t outstanding = 0;
    // Common bookkeeping.
    std::size_t collected = 0;
    HitAssembly answer{&arena};  ///< order: dispatch order, root first
    std::vector<std::pair<cube::CubeId, std::uint32_t>> contributors;
    SearchStats stats;
    SearchCallback done;
  };

  /// Root-side state of a cumulative session, as LogicalIndex::
  /// CumulativeSession keeps it: the BFS order (queue U), position, offset.
  struct CumulativeState {
    IndexTable::Query query;  ///< prepared once for every node's scan
    sim::EndpointId searcher = 0;
    cube::CubeId root_cube = 0;
    sim::EndpointId root_peer = 0;
    bool resolved = false;     ///< root peer located (first next() routes)
    std::vector<cube::CubeId> order;  ///< BFS order of the SBT, root first
    std::size_t pos = 0;       ///< index in `order` of the node being read
    std::size_t offset = 0;    ///< results already returned from order[pos]
    bool exhausted = false;
    // Per-next() call bookkeeping.
    std::size_t want = 0;
    std::size_t got = 0;
    HitAssembly answer;
    SearchStats stats;
    SearchCallback done;
  };

  /// Coordinator state of one pin search until its reply lands. With
  /// Config::step_timeout and Config::failover_after both set, one timer
  /// re-routes from scratch (landing on the surrogate owner if the peer died
  /// mid-query); without them a lost query or reply leaves the state behind.
  struct PinState {
    KeywordSet keywords;
    sim::EndpointId searcher = 0;
    Guard guard;
    SearchStats stats;  ///< accumulates messages/retransmits across attempts
    SearchCallback done;
  };

  /// Sends (or resends) the pin query; arms its timer when guarded.
  void pin_attempt(std::uint64_t pin_id);
  /// The pin's one way to end: erase it, then call back.
  void deliver_pin(std::uint64_t pin_id, std::vector<Hit> hits);

  /// The one index-entry step: routes kws.insert (`add`) or kws.delete to
  /// g(F_h(keywords)), applies it at the owner (epoch, replicas, cached
  /// traversals), then calls `landed` (if set) with the route's hops.
  void route_entry(sim::EndpointId from, ObjectId object,
                   const KeywordSet& keywords, bool add,
                   std::function<void(int hops)> landed);

  /// At the root: ends the page, or visits the next node of the BFS order.
  void cumulative_step(std::uint64_t session);
  /// At the searcher: a page's slice landed (or, with `done`, its done
  /// notification); delivers the page once it is complete.
  void on_page_part(std::uint64_t session, bool done);

  PeerState& peer_state(sim::EndpointId ep) { return peers_[ep]; }

  // --- Hot-cell replication helpers (all no-ops unless cfg_.hot.enabled) ----

  /// Write-through: mirrors an index mutation into every live holder's
  /// replica table for `u`, keeping replicas byte-identical to the primary.
  void replica_apply(cube::CubeId u, const KeywordSet& keywords, ObjectId o,
                     bool add);

  /// Round-robin spread: the replica holder that should serve the next
  /// visit of `w`, or 0 when the owner should (not replicated, or the
  /// cursor landed on the owner's slot). Skips unregistered holders.
  sim::EndpointId pick_replica(cube::CubeId w);

  /// Sends the T_QUERY for `w` directly to replica holder `peer` (the
  /// spread path of visit_node); the usual step guard covers loss, and a
  /// retransmission goes back through visit_node/pick_replica.
  void visit_replica(std::uint64_t req_id, cube::CubeId w,
                     sim::EndpointId peer);
  /// Counts a visit of `w` served by replica holder `holder`.
  void count_spread(std::uint64_t req_id, cube::CubeId w,
                    sim::EndpointId holder);

  /// `coordinator`'s cached contact for cube node `w`, or 0 if none.
  sim::EndpointId cached_contact(sim::EndpointId coordinator,
                                 cube::CubeId w) const;

  /// The table `peer` scans for cube node `w`: its primary table, else
  /// (with `replicas`) its replica copy, else nullptr. One indexed load
  /// when w's slot names `peer`; otherwise a lookup in the peer's maps.
  const IndexTable* table_at(sim::EndpointId peer, cube::CubeId w,
                             bool replicas);
  /// `peer`'s primary table of `u`, created if absent. `ps` must be
  /// peers_'s entry for `peer`: the table takes u's slot, and table_at
  /// relies on a slot naming a peer only while that peer's entry holds the
  /// table.
  IndexTable& own_table(sim::EndpointId peer, PeerState& ps, cube::CubeId u);
  /// Erases the primary table `it` of `ps`, emptying the slot that names it.
  void erase_table(PeerState& ps, Tables::iterator it);
  /// Empties u's slot if it names `t`; called before `t` is erased.
  void release_slot(cube::CubeId u, const IndexTable& t);

  /// Whether a T_QUERY for `w` arriving at `peer` can be answered there:
  /// true for the current owner (an empty table is then a real answer) and
  /// for a holder that still has a replica copy. False means the cell was
  /// demoted (or ownership moved) while the spread visit was in flight —
  /// the arrival must be dropped so the step timer re-picks a serving peer
  /// instead of memoizing a bogus empty scan.
  bool can_serve(sim::EndpointId peer, cube::CubeId w) const;

  /// Re-targets per-cell query-cache capacities in proportion to the
  /// popularity window, holding the total records budget constant.
  void rebalance_caches();

  /// Drops learned contacts and cached traversals (stale after a move).
  void flush_contacts_and_caches();

  /// Message-cost sink: invoked with the number of network messages a
  /// protocol step spent, routed to whichever stats object owns the
  /// operation (a Request or a CumulativeState) if it still exists.
  using Charge = std::function<void(std::size_t)>;

  /// Sends a protocol message to the peer playing cube node `target`,
  /// using a cached direct contact when available, otherwise routing
  /// through the DHT; `at_target(peer)` runs at the destination.
  /// `on_failover`, when non-null, fires if a cached contact turned out to
  /// be dead and the send fell back to DHT routing (the surrogate-owner
  /// step failover).
  void send_to_cube_node(sim::EndpointId from, cube::CubeId target,
                         const char* kind, std::size_t bytes,
                         const Charge& charge,
                         std::function<void(sim::EndpointId)> at_target,
                         const std::function<void()>& on_failover = nullptr);

  /// At the root: scans its table (step 0), then a cached plan or the walk.
  void start_at_root(Request& req);
  void step_plan(std::uint64_t req_id);
  /// Dispatches the next level, or with one_round() every remaining level.
  void start_level(std::uint64_t req_id);
  /// Whether a level-parallel search visits its whole subcube in one round:
  /// coalescing is on and the threshold is 0, so no level boundary can stop
  /// it early.
  bool one_round(const Request& req) const {
    return req.mode == Mode::kLevels && req.threshold == 0 &&
           cfg_.coalesce_visits;
  }
  /// Routes the initial query to the root's peer; retried on timeout.
  void begin_root_route(std::uint64_t req_id);
  /// Runs the coordinator at the root's owner, or for a hot root cell hands
  /// it to the replica holder the rotation picks (a guarded step).
  void hand_off(std::uint64_t req_id);
  /// Degraded-mode serving: re-resolves the root through the DHT and, if
  /// ownership moved (the root peer died), re-aims the coordinator at the
  /// surrogate owner and marks the request degraded.
  void failover_root(std::uint64_t req_id);
  /// Counts a failover of the request (trace point "failover" a, b).
  void count_failover(Request& req, std::uint64_t a, std::uint64_t b);
  /// Sends (or resends) the T_QUERY for node `w` and arms its step guard.
  void visit_node(std::uint64_t req_id, cube::CubeId w);
  /// Runs at the peer playing `w` when a T_QUERY arrives: scans once
  /// (memoized), ships the result batch to the searcher, answers the
  /// coordinator with T_CONT/T_STOP. Idempotent under retransmission.
  void on_query_arrived(std::uint64_t req_id, cube::CubeId w,
                        sim::EndpointId peer);
  /// Every query arrival's per-node prelude: drops one for a demoted cell
  /// (nullptr), counts a first contact, runs ensure_scan.
  const Visit* arrive(Request& req, cube::CubeId w, sim::EndpointId peer,
                      bool ship);
  /// First-scan memoization: scans `w` at `peer` for the request if this is
  /// the first arrival and — unless `ship` is false — ships the batch to
  /// the searcher (replaying the memoized batch on retransmitted arrivals).
  /// With ship=false the caller owns delivery (the VisitBatch path merges
  /// several nodes' batches into one message) and, when retransmission is
  /// off, releasing the memoized batches afterwards.
  Visit& ensure_scan(Request& req, cube::CubeId w, sim::EndpointId peer,
                     bool ship = true);
  /// Sends w's memoized batch from `from` to the searcher (kws.results).
  void ship_results(Request& req, cube::CubeId w, sim::EndpointId from,
                    const Visit& v);
  /// Sends one merged VisitBatch message covering this round's cube nodes
  /// co-hosted at `peer`, arming the usual per-node step timers.
  void send_visit_batch(std::uint64_t req_id, sim::EndpointId peer,
                        const std::vector<cube::CubeId>& nodes);
  /// Runs at the co-host peer: scans every node of the batch (memoized),
  /// ships one merged result message to the searcher and one merged
  /// control reply to the coordinator. Idempotent under retransmission.
  void on_visit_batch_arrived(std::uint64_t req_id,
                              const std::vector<cube::CubeId>& nodes,
                              sim::EndpointId peer);
  void on_results(std::uint64_t req_id, cube::CubeId w,
                  const HitBatchPool::Batch& batch);
  void on_node_answered(std::uint64_t req_id, cube::CubeId w,
                        sim::EndpointId peer, std::size_t c1);
  /// Sends (or resends) the final done notification to the searcher.
  void send_done(std::uint64_t req_id);
  /// Re-ships the result batches the searcher still misses after done.
  void repair_results(std::uint64_t req_id);

  static std::uint64_t guard_key(Step step, cube::CubeId w) {
    return w << 3 | static_cast<std::uint64_t>(step);
  }
  /// The guard of `step` at `w` of pin or search `id` (nullptr once it
  /// ended); a search keeps guards only when step_timeout is set.
  Guard* guard_of(std::uint64_t id, Step step, cube::CubeId w);
  /// Counts one send and, when the step is guarded, sets its timer.
  void arm(std::uint64_t id, Step step, cube::CubeId w);
  /// Cancels the timer of a step that completed.
  void release(Request& req, Step step, cube::CubeId w);
  /// The one expiry path: the step gives up once its budget is spent,
  /// else the retransmission is counted and the step resent.
  void on_expired(std::uint64_t id, Step step, cube::CubeId w);
  /// Counts a retransmission; traces it for a search (req_id 0: a pin).
  void count_retransmit(SearchStats& stats, std::uint64_t req_id,
                        cube::CubeId a, std::uint64_t b);
  /// Gives up on the request: delivers partial hits with stats.failed set.
  void abort_request(std::uint64_t req_id);
  /// Cancels every pending timer owned by the request.
  void release_timers(Request& req);
  /// A search's one way to end: release its timers, erase it, call back.
  void deliver(Request& req);
  /// Ends the walk: records its summary in the root's cache, sends done.
  void finish(std::uint64_t req_id, bool stopped_early);
  void maybe_complete(std::uint64_t req_id);
  /// The live request, pin or session `id` names, or nullptr.
  template <typename T>
  static T* find_in(
      const std::unordered_map<std::uint64_t, std::unique_ptr<T>>& map,
      std::uint64_t id) {
    const auto it = map.find(id);
    return it == map.end() ? nullptr : it->second.get();
  }
  Request* find(std::uint64_t id) { return find_in(requests_, id); }
  PinState* find_pin(std::uint64_t id) { return find_in(pins_, id); }
  CumulativeState* find_session(std::uint64_t id) {
    return find_in(sessions_, id);
  }
  void emit(std::uint64_t request, const char* point, std::uint64_t a = 0,
            std::uint64_t b = 0) {
    if (trace_) trace_(Trace{request, point, a, b});
  }

  std::size_t room(const Request& req) const;

  /// Delay before the timer guarding attempt `attempt` (1-based) of a
  /// protocol step fires. Attempt 1 = step_timeout exactly, no RNG draw;
  /// later attempts back off exponentially to backoff_cap plus jitter.
  sim::Time resend_delay(int attempt);

  dht::Dolr& dolr_;
  dht::Overlay& overlay_;
  net::Transport& net_;
  Config cfg_;
  cube::Hypercube cube_;
  KeywordHasher hasher_;
  std::unordered_map<sim::EndpointId, PeerState> peers_;
  /// 2^r slots, 16 B each, indexed by cube node. A slot names a peer and
  /// its primary table of the node; route_entry, repair_placement and the
  /// replica restore point it at the table they write (own_table), and
  /// every erasure empties it first (release_slot), so it never names an
  /// erased table. A visit to the peer it names finds its table with one
  /// load; misplaced tables, replicas and cells the slot does not name
  /// fall back to the peer's maps.
  std::vector<TableSlot> table_slots_;
  /// Every superset scan fills this buffer, so a scan that matches nothing
  /// allocates nothing. A visit's matches move into a pooled batch
  /// (hit_pool_) by swapping buffers; a cumulative page copies its slice.
  std::vector<Hit> scan_;
  /// Recycled scan buffers for Visit::batch (see hit_pool.hpp). Mutable
  /// bookkeeping only; lookups stay logically const.
  HitBatchPool hit_pool_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Request>> requests_;
  std::unordered_map<std::uint64_t, std::unique_ptr<CumulativeState>>
      sessions_;
  std::unordered_map<std::uint64_t, std::unique_ptr<PinState>> pins_;
  std::uint64_t next_request_ = 1;
  std::uint64_t next_session_ = 1;
  std::uint64_t next_pin_ = 1;
  std::uint64_t mutation_epoch_ = 0;
  TraceFn trace_;
  /// start_level's grouping scratch, reused by every level of every
  /// request. One slot per node of the level with a destination (a replica
  /// pick or a cached contact), sorted by destination and then level
  /// position, so each destination's group is one run in level order.
  struct LevelSlot {
    sim::EndpointId dest = 0;
    std::uint32_t pos = 0;        ///< index of the node in the level
    bool replica = false;         ///< dest is a replica pick, not a contact
    bool live = false;            ///< dest is registered (runs of 2+)
    std::uint32_t run_begin = 0;  ///< first slot of dest's run
    std::uint32_t run_size = 0;   ///< nodes of the level bound for dest
  };
  std::vector<LevelSlot> level_slots_;
  std::vector<std::uint32_t> level_slot_of_;  ///< level position -> slot
  std::vector<cube::CubeId> level_batch_;     ///< one group's nodes
  /// Jitter stream for backed-off retransmissions. Dedicated (never shared
  /// with hashing or the fabric's latency stream) so enabling backoff
  /// cannot perturb any other seeded draw sequence.
  Rng backoff_rng_;
  // Hot-cell replication state (empty unless cfg_.hot.enabled).
  std::unordered_map<cube::CubeId, ReplicaSet> replicas_;
  PopularityWindow popularity_;
  std::uint64_t replica_promotions_ = 0;
  std::uint64_t replica_demotions_ = 0;
  std::uint64_t replica_spread_visits_ = 0;
  std::uint64_t replica_entries_copied_ = 0;
};

}  // namespace hkws::index
