// QueryEngine — the concurrent query-serving runtime. It sits on top of
// index::KeywordSearchService and turns the one-shot search API into a
// server: many overlapping searches in flight, admission control in front,
// deadlines behind, and SLO accounting throughout.
//
//   submit() ──► admission ──► in-flight search ──► completion record
//                  │  ▲              │
//                  ▼  └── pump ◄─────┤ (slot freed)
//               backlog              ▼
//             (FIFO/priority)   deadline timer ──► cancel + kTimedOut
//
// Semantics:
//  * At most max_in_flight searches run concurrently; excess submissions
//    wait in a bounded backlog (FIFO or priority order) and are *shed*
//    (rejected immediately, outcome kShed) when the backlog is full.
//  * A query's deadline is measured from submission, not admission — time
//    spent queued burns budget, so an overloaded server times queries out
//    instead of serving arbitrarily stale answers. On expiry the in-flight
//    search is cancelled (OverlayIndex sends T_STOP) and the query is
//    recorded as kTimedOut; a query whose deadline passed while still
//    queued is timed out at pop without ever touching the network.
//  * Loss recovery (timeout/retransmission of protocol messages) lives in
//    the index layer; the engine selects it via the service Options and
//    surfaces the retransmission totals in its report.
//  * Observability: per-query spans on an optional obs::Tracer
//    (submit/admit/root/level/scan/…, timestamped), engine-level latency
//    series (optionally reservoir-sampled), and an EngineReport with
//    p50/p95/p99, achieved QPS, shed / timeout / retry counts and the
//    per-peer scan-load histogram.
//
// Single-threaded by construction: everything runs as events on the one
// sim::EventQueue, so no locking — but the engine is re-entrant-safe in the
// sense that completion callbacks may submit new queries.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "index/service.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace hkws::obs {
class Tracer;
class WindowedMetrics;
}

namespace hkws::engine {

/// How a submitted query left the engine.
enum class QueryOutcome {
  kCompleted,  ///< search finished within the deadline, fully served
  kDegraded,   ///< answered, but via failover / partial coverage (results
               ///< may be incomplete; see SearchStats::degraded)
  kTimedOut,   ///< deadline expired (in backlog or in flight)
  kFailed,     ///< protocol gave up (retransmission budget exhausted)
  kShed,       ///< rejected at admission: backlog full
};

const char* to_string(QueryOutcome outcome) noexcept;

/// Order of the admission backlog.
enum class BacklogPolicy {
  kFifo,      ///< arrival order
  kPriority,  ///< highest priority first, FIFO within a priority
};

/// AIMD controller for the admission limits. Instead of a fixed in-flight
/// cap, the engine tracks a floating limit: completions whose *service*
/// latency (finished - admitted; queue wait excluded — waiting is an
/// under-provisioning signal, not an over-concurrency one) lands under the
/// target grow the limit, while in-flight deadline expiries and over-target
/// completions shrink it multiplicatively (rate-limited to one decrease per
/// target interval, so a burst of simultaneous timeouts costs one halving,
/// not a collapse to the floor). Growth is slow-start-style (+increase per
/// good completion) until the first decrease, then classic congestion
/// avoidance (+increase/limit). The backlog bound scales with the limit.
/// See docs/TUNING.md for the knob guide.
struct AdaptiveAdmission {
  bool enabled = false;
  /// Floor/ceiling of the floating in-flight limit.
  std::size_t min_in_flight = 4;
  std::size_t max_in_flight = 4096;
  /// Additive step per good completion (divided by the current limit once
  /// out of slow start).
  double increase = 1.0;
  /// Multiplicative factor applied on an overload signal.
  double decrease = 0.5;
  /// Service-latency target as a fraction of the deadline; used when
  /// latency_target is 0 and a deadline is set.
  double headroom = 0.5;
  /// Explicit service-latency target in ticks (overrides headroom).
  sim::Time latency_target = 0;
  /// Adaptive backlog bound = max(max_backlog, backlog_per_slot * limit).
  double backlog_per_slot = 8.0;
};

struct EngineConfig {
  /// Concurrent searches allowed on the wire. With adaptive admission
  /// enabled this is only the controller's starting point.
  std::size_t max_in_flight = 64;
  /// Queued submissions allowed beyond that; the next one is shed. With
  /// adaptive admission enabled this is the backlog bound's floor.
  std::size_t max_backlog = 1024;
  /// Floating-limit admission control; disabled = fixed limits above.
  AdaptiveAdmission adaptive;
  /// Per-query deadline in ticks from submission; 0 = none.
  sim::Time deadline = 0;
  BacklogPolicy policy = BacklogPolicy::kFifo;
  /// Options forwarded to every KeywordSearchService::search call.
  index::KeywordSearchService::SearchOptions search;
  /// Reservoir cap for the engine's latency series (0 = keep everything).
  std::size_t latency_reservoir = 0;
  /// Optional span tracer (not owned, may be null): each query becomes a
  /// "query" span with "backlog"/"root_lookup"/"level" child spans and
  /// "scan"/"retransmit" instants — see docs/OBSERVABILITY.md.
  obs::Tracer* tracer = nullptr;
  /// Optional windowed time-series sink (not owned, may be null): per-window
  /// submitted/completed/shed/... counts, latency quantiles, and
  /// in-flight/backlog gauges.
  obs::WindowedMetrics* windows = nullptr;
};

/// Everything the engine remembers about one finished query.
struct QueryRecord {
  std::uint64_t id = 0;        ///< engine-assigned, dense from 1
  QueryOutcome outcome = QueryOutcome::kCompleted;
  int priority = 0;
  sim::Time submitted = 0;
  sim::Time admitted = 0;      ///< == submitted unless it waited; 0 if shed
  sim::Time finished = 0;      ///< completion/timeout/shed time
  std::size_t hits = 0;        ///< results delivered (post-ranking)
  index::SearchStats stats;    ///< protocol cost of the search

  /// End-to-end latency (finished - submitted).
  sim::Time latency() const noexcept { return finished - submitted; }
  /// Admission delay (admitted - submitted).
  sim::Time queue_wait() const noexcept {
    return admitted >= submitted ? admitted - submitted : 0;
  }
};

/// Aggregate serving report over the engine's lifetime.
struct EngineReport {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Served, but degraded: the search failed over to a surrogate owner or
  /// a single cube of a mirrored pair, so results may be incomplete.
  /// Disjoint from `completed` and from the failure buckets below —
  /// deadline misses (timed_out), protocol give-ups (failed), and
  /// admission rejections (shed) each stay separately accounted.
  std::uint64_t degraded = 0;
  std::uint64_t timed_out = 0;
  /// Of the timed_out, how many expired while still queued (never launched).
  std::uint64_t timed_out_in_backlog = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  /// Latency stats over *served* (completed + degraded) queries, in ticks.
  double latency_mean = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  /// Completions per kilotick (= QPS at 1 tick = 1 ms), measured from the
  /// first submission to the last completion.
  double achieved_qps = 0.0;
  std::size_t in_flight_high_water = 0;
  std::size_t backlog_high_water = 0;
  /// In-flight limit at report time (the AIMD limit when adaptive admission
  /// is on; the fixed max_in_flight otherwise).
  std::size_t admit_limit = 0;
  /// Protocol-message retransmissions across all queries.
  std::uint64_t retransmits = 0;
  /// Mid-query failovers (stale contact re-routes, surrogate-root
  /// re-resolutions, dead-origin batch write-offs) across all queries.
  std::uint64_t failovers = 0;
  /// Mirrored deployments: searches one cube failed and the other served
  /// alone (primary-miss -> mirror-hit and converse).
  std::uint64_t mirror_failovers = 0;
  /// T_QUERY scans served per peer (the per-node serving-load histogram).
  /// Peers that served nothing do not appear as bins but still count in
  /// `live_peers` and the skew denominator below.
  Histogram scans_per_peer;
  /// Live peers in the overlay at report time — the denominator for the
  /// scan-load mean. The histogram alone under-reports imbalance: idle
  /// peers never get a bin, so a mean over bins flattens the very skew
  /// this report exists to expose.
  std::size_t live_peers = 0;
  /// Serving-load imbalance: max scans on any one peer over the mean across
  /// *all* live peers (1.0 = perfectly balanced). 0 when nothing scanned.
  double scan_skew_max_over_mean = 0.0;

  std::string to_string() const;
  std::string to_json() const;  ///< single JSON object, machine-readable
};

class QueryEngine {
 public:
  using CompletionFn = std::function<void(const QueryRecord&)>;

  QueryEngine(index::KeywordSearchService& service, sim::EventQueue& clock,
              EngineConfig cfg);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Submits one query from `searcher`. Returns the engine query id; the
  /// outcome lands in records() (and the completion hook) when known.
  /// Sheds synchronously if the engine is saturated.
  std::uint64_t submit(sim::EndpointId searcher,
                       const KeywordSet& query, int priority = 0);

  /// Optional per-query completion hook (any outcome, including shed).
  void set_on_finished(CompletionFn fn) { on_finished_ = std::move(fn); }

  // --- Introspection --------------------------------------------------------

  std::size_t in_flight() const noexcept { return active_.size(); }
  std::size_t backlog() const noexcept { return backlog_.size(); }
  /// Current admission bounds (floating when adaptive admission is on).
  std::size_t in_flight_limit() const noexcept;
  std::size_t backlog_limit() const noexcept;
  /// Finished queries, in finish order.
  const std::vector<QueryRecord>& records() const noexcept { return records_; }
  /// The engine's own metrics (latency series "engine.latency", counters).
  const sim::Metrics& metrics() const noexcept { return metrics_; }

  /// Snapshot report over everything finished so far.
  EngineReport report() const;

 private:
  struct Waiting {
    std::uint64_t id = 0;
    sim::EndpointId searcher = 0;
    KeywordSet query;
  };
  struct Active {
    std::uint64_t ticket = 0;  ///< service ticket (cancel handle)
    sim::EventQueue::TimerId deadline_timer = 0;
  };

  /// Starts the search for a pending record (must have a free slot).
  void launch(std::uint64_t id, sim::EndpointId searcher,
              const KeywordSet& query);
  /// Admits from the backlog while slots are free.
  void pump();
  /// Pops the next backlog entry per policy.
  Waiting pop_backlog();
  void on_answer(std::uint64_t id,
                 const index::KeywordSearchService::Answer& answer);
  void on_deadline(std::uint64_t id);
  /// Times out backlog entries whose deadline already passed. Lazy: called
  /// only when the backlog bound is hit (amortized O(1)) and at pop — but
  /// correct: sealed with the *true* expiry time, and never counted as shed.
  void expire_stale_backlog();
  /// Refreshes high-water marks and windowed gauges after any
  /// in-flight/backlog/limit transition.
  void sync_gauges();
  /// AIMD hooks (no-ops unless cfg_.adaptive.enabled).
  void adapt_on_completion(sim::Time service_latency);
  void adapt_on_overload();
  sim::Time adapt_target() const noexcept;
  /// Moves a pending record to records_ with the given outcome, finishing
  /// at `finished_at` (backlog expiries backdate to the true deadline).
  void seal(std::uint64_t id, QueryOutcome outcome, sim::Time finished_at);
  void seal(std::uint64_t id, QueryOutcome outcome);
  void on_trace(const index::OverlayIndex::Trace& t);
  /// Converts one protocol trace point into tracer span/instant events.
  void emit_span(std::uint64_t id, const char* point, std::uint64_t a,
                 std::uint64_t b);

  index::KeywordSearchService& service_;
  sim::EventQueue& clock_;
  EngineConfig cfg_;
  CompletionFn on_finished_;

  std::uint64_t next_id_ = 1;
  /// Records of queries not yet finished (backlogged or in flight).
  std::unordered_map<std::uint64_t, QueryRecord> pending_;
  std::unordered_map<std::uint64_t, Active> active_;
  std::deque<Waiting> backlog_;
  /// Service ticket -> engine id, for trace attribution.
  std::unordered_map<std::uint64_t, std::uint64_t> by_ticket_;
  std::vector<QueryRecord> records_;
  sim::Metrics metrics_;
  Histogram scans_per_peer_;
  std::size_t in_flight_high_water_ = 0;
  std::size_t backlog_high_water_ = 0;
  sim::Time first_submit_ = 0;
  bool any_submit_ = false;
  sim::Time last_finish_ = 0;
  bool pumping_ = false;  ///< re-entrancy guard for pump()
  // AIMD state (meaningful only with cfg_.adaptive.enabled).
  double limit_ = 0.0;          ///< floating in-flight limit
  bool slow_start_ = true;      ///< fast additive ramp until first decrease
  sim::Time last_decrease_ = 0; ///< decrease rate-limit anchor
  bool any_decrease_ = false;
};

}  // namespace hkws::engine
