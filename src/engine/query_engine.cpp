#include "engine/query_engine.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/trace.hpp"
#include "obs/windowed.hpp"

namespace hkws::engine {

const char* to_string(QueryOutcome outcome) noexcept {
  switch (outcome) {
    case QueryOutcome::kCompleted: return "completed";
    case QueryOutcome::kDegraded: return "degraded";
    case QueryOutcome::kTimedOut: return "timed_out";
    case QueryOutcome::kFailed: return "failed";
    case QueryOutcome::kShed: return "shed";
  }
  return "?";
}

QueryEngine::QueryEngine(index::KeywordSearchService& service,
                         sim::EventQueue& clock, EngineConfig cfg)
    : service_(service), clock_(clock), cfg_(cfg) {
  limit_ = static_cast<double>(
      cfg_.adaptive.enabled
          ? std::clamp(cfg_.max_in_flight, cfg_.adaptive.min_in_flight,
                       cfg_.adaptive.max_in_flight)
          : cfg_.max_in_flight);
  if (cfg_.latency_reservoir != 0)
    metrics_.set_reservoir("engine.latency", cfg_.latency_reservoir);
  // The protocol trace feeds two consumers: per-query trace records
  // (attributed through the service ticket, which equals the request id for
  // non-mirrored services) and the global per-peer scan-load histogram.
  service_.primary_index().set_trace(
      [this](const index::OverlayIndex::Trace& t) { on_trace(t); });
}

QueryEngine::~QueryEngine() {
  service_.primary_index().set_trace(nullptr);
  // Orphaned searches must not call back into a dead engine.
  for (auto& [id, act] : active_) {
    if (act.deadline_timer != 0) clock_.cancel_timer(act.deadline_timer);
    service_.cancel_search(act.ticket);
  }
}

std::size_t QueryEngine::in_flight_limit() const noexcept {
  if (!cfg_.adaptive.enabled) return cfg_.max_in_flight;
  return std::clamp(static_cast<std::size_t>(limit_),
                    cfg_.adaptive.min_in_flight, cfg_.adaptive.max_in_flight);
}

std::size_t QueryEngine::backlog_limit() const noexcept {
  if (!cfg_.adaptive.enabled) return cfg_.max_backlog;
  const auto scaled = static_cast<std::size_t>(
      cfg_.adaptive.backlog_per_slot * static_cast<double>(in_flight_limit()));
  return std::max(cfg_.max_backlog, scaled);
}

void QueryEngine::sync_gauges() {
  // High-water marks move on *every* transition — submit-time-only sampling
  // under-read peaks that built up between submissions (e.g. a pump wave).
  in_flight_high_water_ = std::max(in_flight_high_water_, active_.size());
  backlog_high_water_ = std::max(backlog_high_water_, backlog_.size());
  if (cfg_.windows == nullptr) return;
  const sim::Time now = clock_.now();
  cfg_.windows->gauge(now, "in_flight", static_cast<double>(active_.size()));
  cfg_.windows->gauge(now, "backlog", static_cast<double>(backlog_.size()));
  if (cfg_.adaptive.enabled) {
    cfg_.windows->gauge(now, "admit_limit",
                        static_cast<double>(in_flight_limit()));
    cfg_.windows->gauge(now, "backlog_limit",
                        static_cast<double>(backlog_limit()));
  }
}

sim::Time QueryEngine::adapt_target() const noexcept {
  if (cfg_.adaptive.latency_target != 0) return cfg_.adaptive.latency_target;
  if (cfg_.deadline != 0)
    return static_cast<sim::Time>(cfg_.adaptive.headroom *
                                  static_cast<double>(cfg_.deadline));
  return 0;
}

void QueryEngine::adapt_on_completion(sim::Time service_latency) {
  if (!cfg_.adaptive.enabled) return;
  const sim::Time target = adapt_target();
  if (target != 0 && service_latency > target) {
    adapt_on_overload();
    return;
  }
  limit_ += slow_start_ ? cfg_.adaptive.increase
                        : cfg_.adaptive.increase / std::max(1.0, limit_);
  limit_ = std::min(limit_,
                    static_cast<double>(cfg_.adaptive.max_in_flight));
}

void QueryEngine::adapt_on_overload() {
  if (!cfg_.adaptive.enabled) return;
  slow_start_ = false;
  const sim::Time now = clock_.now();
  const sim::Time target = adapt_target();
  const sim::Time cooldown = target != 0 ? target : cfg_.deadline;
  // One multiplicative decrease per target interval: a burst of queries
  // timing out together is one congestion event, not limit^-N of them.
  if (any_decrease_ && now < last_decrease_ + cooldown) return;
  any_decrease_ = true;
  last_decrease_ = now;
  limit_ = std::max(limit_ * cfg_.adaptive.decrease,
                    static_cast<double>(cfg_.adaptive.min_in_flight));
  metrics_.count("engine.admit_decrease");
  sync_gauges();
}

std::uint64_t QueryEngine::submit(sim::EndpointId searcher,
                                  const KeywordSet& query, int priority) {
  const std::uint64_t id = next_id_++;
  const sim::Time now = clock_.now();
  if (!any_submit_) {
    first_submit_ = now;
    any_submit_ = true;
  }
  metrics_.count("engine.submitted");
  if (cfg_.windows != nullptr) cfg_.windows->count(now, "submitted");
  if (cfg_.tracer != nullptr)
    cfg_.tracer->begin(now, id, "query", "engine",
                       static_cast<std::uint64_t>(priority));

  QueryRecord rec;
  rec.id = id;
  rec.priority = priority;
  rec.submitted = now;

  if (active_.size() >= in_flight_limit() &&
      backlog_.size() >= backlog_limit()) {
    // The backlog looks full, but entries whose deadline already burned out
    // are dead weight: time them out first (their true outcome) instead of
    // shedding the live newcomer against phantom occupancy.
    expire_stale_backlog();
  }
  if (active_.size() >= in_flight_limit() &&
      backlog_.size() >= backlog_limit()) {
    // Saturated: shed at the door rather than grow an unbounded queue.
    rec.outcome = QueryOutcome::kShed;
    rec.finished = now;
    metrics_.count("engine.shed");
    if (cfg_.windows != nullptr) cfg_.windows->count(now, "shed");
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->instant(now, id, "shed", "engine");
      cfg_.tracer->close_open(now, id);
    }
    sync_gauges();
    records_.push_back(std::move(rec));
    if (on_finished_) on_finished_(records_.back());
    return id;
  }

  pending_.emplace(id, std::move(rec));
  if (active_.size() < in_flight_limit()) {
    launch(id, searcher, query);
  } else {
    if (cfg_.tracer != nullptr)
      cfg_.tracer->begin(now, id, "backlog", "engine");
    backlog_.push_back(Waiting{id, searcher, query});
    sync_gauges();
  }
  return id;
}

void QueryEngine::expire_stale_backlog() {
  if (cfg_.deadline == 0 || backlog_.empty()) return;
  const sim::Time now = clock_.now();
  const auto expired = [&](const Waiting& w, sim::Time& expires) {
    const auto it = pending_.find(w.id);
    if (it == pending_.end()) return true;  // defensive; should not happen
    expires = it->second.submitted + cfg_.deadline;
    return expires <= now;
  };
  if (cfg_.policy == BacklogPolicy::kFifo) {
    // FIFO is submission-ordered, so expired entries form a prefix.
    sim::Time expires = 0;
    while (!backlog_.empty() && expired(backlog_.front(), expires)) {
      const std::uint64_t id = backlog_.front().id;
      backlog_.pop_front();
      metrics_.count("engine.timed_out_queued");
      seal(id, QueryOutcome::kTimedOut, expires);
    }
  } else {
    for (std::size_t i = 0; i < backlog_.size();) {
      sim::Time expires = 0;
      if (!expired(backlog_[i], expires)) {
        ++i;
        continue;
      }
      const std::uint64_t id = backlog_[i].id;
      backlog_.erase(backlog_.begin() + static_cast<std::ptrdiff_t>(i));
      metrics_.count("engine.timed_out_queued");
      seal(id, QueryOutcome::kTimedOut, expires);
    }
  }
  sync_gauges();
}

void QueryEngine::launch(std::uint64_t id, sim::EndpointId searcher,
                         const KeywordSet& query) {
  const sim::Time now = clock_.now();
  QueryRecord& rec = pending_[id];
  Active act;
  if (cfg_.deadline != 0) {
    const sim::Time expires = rec.submitted + cfg_.deadline;
    if (expires <= now) {
      // The deadline burned out while the query sat in the backlog. Seal at
      // the *true* expiry, not the pop time — latency must read `deadline`.
      metrics_.count("engine.timed_out_queued");
      seal(id, QueryOutcome::kTimedOut, expires);
      return;
    }
    act.deadline_timer =
        clock_.set_timer(expires - now, [this, id] { on_deadline(id); });
  }
  rec.admitted = now;
  if (cfg_.tracer != nullptr) {
    if (cfg_.tracer->open_top(id) == "backlog") cfg_.tracer->end(now, id);
    cfg_.tracer->begin(now, id, "root_lookup", "engine");
  }
  auto [it, inserted] = active_.emplace(id, act);
  sync_gauges();
  const std::uint64_t ticket = service_.search(
      searcher, query, cfg_.search,
      [this, id](const index::KeywordSearchService::Answer& answer) {
        on_answer(id, answer);
      });
  it->second.ticket = ticket;
  by_ticket_.emplace(ticket, id);
}

void QueryEngine::pump() {
  if (pumping_) return;
  pumping_ = true;
  while (active_.size() < in_flight_limit() && !backlog_.empty()) {
    Waiting w = pop_backlog();
    launch(w.id, w.searcher, w.query);
  }
  pumping_ = false;
  sync_gauges();
}

QueryEngine::Waiting QueryEngine::pop_backlog() {
  auto it = backlog_.begin();
  if (cfg_.policy == BacklogPolicy::kPriority) {
    // Stable scan: highest priority, earliest submission wins. Backlogs are
    // bounded (max_backlog), so linear selection is fine at sim scale.
    for (auto cand = backlog_.begin(); cand != backlog_.end(); ++cand) {
      const auto pending_priority = [this](const Waiting& w) {
        const auto p = pending_.find(w.id);
        return p == pending_.end() ? 0 : p->second.priority;
      };
      if (pending_priority(*cand) > pending_priority(*it)) it = cand;
    }
  }
  Waiting w = std::move(*it);
  backlog_.erase(it);
  return w;
}

void QueryEngine::on_answer(std::uint64_t id,
                            const index::KeywordSearchService::Answer& answer) {
  const auto it = active_.find(id);
  if (it == active_.end()) return;  // raced with a deadline; already sealed
  if (it->second.deadline_timer != 0)
    clock_.cancel_timer(it->second.deadline_timer);
  by_ticket_.erase(it->second.ticket);
  active_.erase(it);
  QueryRecord& rec = pending_[id];
  rec.hits = answer.hits.size();
  rec.stats = answer.stats;
  // Verdict precedence mirrors SearchStats: failed > degraded > completed.
  const QueryOutcome outcome = answer.stats.failed
                                   ? QueryOutcome::kFailed
                                   : answer.stats.degraded
                                         ? QueryOutcome::kDegraded
                                         : QueryOutcome::kCompleted;
  // AIMD signal: the query's *service* time (admission to answer). Protocol
  // failures are loss, not congestion — they neither grow nor shrink.
  if (outcome != QueryOutcome::kFailed)
    adapt_on_completion(clock_.now() - rec.admitted);
  seal(id, outcome);
  pump();
}

void QueryEngine::on_deadline(std::uint64_t id) {
  const auto it = active_.find(id);
  if (it == active_.end()) return;
  service_.cancel_search(it->second.ticket);
  by_ticket_.erase(it->second.ticket);
  active_.erase(it);
  // An admitted query that blew its deadline is the congestion signal.
  adapt_on_overload();
  seal(id, QueryOutcome::kTimedOut);
  pump();
}

void QueryEngine::seal(std::uint64_t id, QueryOutcome outcome) {
  seal(id, outcome, clock_.now());
}

void QueryEngine::seal(std::uint64_t id, QueryOutcome outcome,
                       sim::Time finished_at) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  QueryRecord& rec = it->second;
  const sim::Time now = clock_.now();
  rec.outcome = outcome;
  rec.finished = finished_at;
  const char* outcome_point = "shed";
  switch (outcome) {
    case QueryOutcome::kCompleted:
      metrics_.count("engine.completed");
      metrics_.observe("engine.latency", static_cast<double>(rec.latency()));
      metrics_.observe("engine.queue_wait",
                       static_cast<double>(rec.queue_wait()));
      last_finish_ = std::max(last_finish_, now);
      outcome_point = "complete";
      if (cfg_.windows != nullptr) {
        cfg_.windows->count(now, "completed");
        cfg_.windows->observe(now, "latency",
                              static_cast<double>(rec.latency()));
        cfg_.windows->observe(now, "queue_wait",
                              static_cast<double>(rec.queue_wait()));
      }
      break;
    case QueryOutcome::kDegraded:
      // A degraded answer was still served within the deadline, so it
      // belongs in the latency distribution — only completeness suffered.
      metrics_.count("engine.degraded");
      metrics_.observe("engine.latency", static_cast<double>(rec.latency()));
      metrics_.observe("engine.queue_wait",
                       static_cast<double>(rec.queue_wait()));
      last_finish_ = std::max(last_finish_, now);
      outcome_point = "degraded";
      if (cfg_.windows != nullptr) {
        cfg_.windows->count(now, "degraded");
        cfg_.windows->observe(now, "latency",
                              static_cast<double>(rec.latency()));
        cfg_.windows->observe(now, "queue_wait",
                              static_cast<double>(rec.queue_wait()));
      }
      break;
    case QueryOutcome::kTimedOut:
      metrics_.count("engine.timed_out");
      outcome_point = "timeout";
      if (cfg_.windows != nullptr) cfg_.windows->count(now, "timed_out");
      break;
    case QueryOutcome::kFailed:
      metrics_.count("engine.failed");
      outcome_point = "failed";
      if (cfg_.windows != nullptr) cfg_.windows->count(now, "failed");
      break;
    case QueryOutcome::kShed:
      metrics_.count("engine.shed");
      if (cfg_.windows != nullptr) cfg_.windows->count(now, "shed");
      break;
  }
  if (cfg_.tracer != nullptr) {
    cfg_.tracer->instant(now, id, outcome_point, "engine", rec.hits);
    cfg_.tracer->close_open(now, id);
  }
  records_.push_back(std::move(rec));
  pending_.erase(it);
  if (on_finished_) on_finished_(records_.back());
}

void QueryEngine::on_trace(const index::OverlayIndex::Trace& t) {
  if (std::strcmp(t.point, "scan") == 0)
    scans_per_peer_.add(static_cast<std::int64_t>(t.b));
  if (cfg_.windows != nullptr && std::strcmp(t.point, "retransmit") == 0)
    cfg_.windows->count(clock_.now(), "retransmit");
  const auto it = by_ticket_.find(t.request);
  if (it == by_ticket_.end()) return;
  if (cfg_.tracer != nullptr) emit_span(it->second, t.point, t.a, t.b);
}

void QueryEngine::emit_span(std::uint64_t id, const char* point,
                            std::uint64_t a, std::uint64_t b) {
  obs::Tracer& tracer = *cfg_.tracer;
  const sim::Time now = clock_.now();
  if (std::strcmp(point, "root") == 0) {
    // Root resolved: the root_lookup phase ends, exploration begins.
    if (tracer.open_top(id) == "root_lookup") tracer.end(now, id);
    tracer.instant(now, id, "root", "proto", a, b);
  } else if (std::strcmp(point, "level") == 0) {
    // One span per dispatch round (per SBT level, or one for a search
    // that visits its whole subcube at once); consecutive spans abut.
    if (tracer.open_top(id) == "level") tracer.end(now, id);
    tracer.begin(now, id, "level", "proto", a, b);
  } else {
    tracer.instant(now, id, point, "proto", a, b);
  }
}

EngineReport QueryEngine::report() const {
  EngineReport r;
  r.submitted = metrics_.counter("engine.submitted");
  r.completed = metrics_.counter("engine.completed");
  r.degraded = metrics_.counter("engine.degraded");
  r.timed_out = metrics_.counter("engine.timed_out");
  r.timed_out_in_backlog = metrics_.counter("engine.timed_out_queued");
  r.failed = metrics_.counter("engine.failed");
  r.shed = metrics_.counter("engine.shed");
  const std::vector<double>& lat = metrics_.samples("engine.latency");
  if (!lat.empty()) {
    r.latency_mean = metrics_.sample_mean("engine.latency");
    const std::vector<double> qs = percentiles(lat, {50.0, 95.0, 99.0});
    r.latency_p50 = qs[0];
    r.latency_p95 = qs[1];
    r.latency_p99 = qs[2];
  }
  if (r.completed + r.degraded > 0 && last_finish_ > first_submit_)
    r.achieved_qps = static_cast<double>(r.completed + r.degraded) * 1000.0 /
                     static_cast<double>(last_finish_ - first_submit_);
  r.in_flight_high_water = in_flight_high_water_;
  r.backlog_high_water = backlog_high_water_;
  r.admit_limit = in_flight_limit();
  const sim::Metrics& net_metrics =
      service_.primary_index().dolr().overlay().transport().metrics();
  r.retransmits = net_metrics.counter("kws.retransmit");
  r.failovers = net_metrics.counter("kws.failover");
  r.mirror_failovers = net_metrics.counter("kws.mirror_failover");
  r.scans_per_peer = scans_per_peer_;
  r.live_peers =
      service_.primary_index().dolr().overlay().live_ids().size();
  if (r.live_peers > 0 && !scans_per_peer_.empty()) {
    std::uint64_t max_load = 0;
    for (const auto& [peer, n] : scans_per_peer_.bins())
      max_load = std::max(max_load, n);
    const double mean = static_cast<double>(scans_per_peer_.total()) /
                        static_cast<double>(r.live_peers);
    if (mean > 0.0)
      r.scan_skew_max_over_mean = static_cast<double>(max_load) / mean;
  }
  return r;
}

std::string EngineReport::to_string() const {
  std::ostringstream os;
  os << "queries: submitted=" << submitted << " completed=" << completed
     << " degraded=" << degraded << " timed_out=" << timed_out
     << " (in_backlog=" << timed_out_in_backlog << ")"
     << " failed=" << failed << " shed=" << shed << "\n";
  os << "latency (ticks): mean=" << latency_mean << " p50=" << latency_p50
     << " p95=" << latency_p95 << " p99=" << latency_p99 << "\n";
  os << "achieved_qps=" << achieved_qps << " admit_limit=" << admit_limit
     << " in_flight_hwm=" << in_flight_high_water
     << " backlog_hwm=" << backlog_high_water
     << " retransmits=" << retransmits << " failovers=" << failovers
     << " mirror_failovers=" << mirror_failovers << "\n";
  if (!scans_per_peer.empty()) {
    // Mean over every live peer, not just the ones that served a scan —
    // idle peers are exactly what a load-imbalance number must count.
    const std::size_t peers =
        live_peers > 0 ? live_peers : scans_per_peer.bins().size();
    std::uint64_t max_load = 0;
    for (const auto& [peer, n] : scans_per_peer.bins())
      max_load = std::max(max_load, n);
    os << "scan load: peers=" << peers
       << " serving=" << scans_per_peer.bins().size()
       << " scans=" << scans_per_peer.total()
       << " mean=" << (static_cast<double>(scans_per_peer.total()) /
                       static_cast<double>(peers))
       << " max_per_peer=" << max_load
       << " skew_max_over_mean=" << scan_skew_max_over_mean << "\n";
  }
  return os.str();
}

std::string EngineReport::to_json() const {
  std::ostringstream os;
  os << "{"
     << "\"submitted\":" << submitted << ",\"completed\":" << completed
     << ",\"degraded\":" << degraded
     << ",\"timed_out\":" << timed_out
     << ",\"timed_out_in_backlog\":" << timed_out_in_backlog
     << ",\"failed\":" << failed
     << ",\"shed\":" << shed << ",\"latency_mean\":" << latency_mean
     << ",\"latency_p50\":" << latency_p50
     << ",\"latency_p95\":" << latency_p95
     << ",\"latency_p99\":" << latency_p99
     << ",\"achieved_qps\":" << achieved_qps
     << ",\"admit_limit\":" << admit_limit
     << ",\"in_flight_high_water\":" << in_flight_high_water
     << ",\"backlog_high_water\":" << backlog_high_water
     << ",\"retransmits\":" << retransmits
     << ",\"failovers\":" << failovers
     << ",\"mirror_failovers\":" << mirror_failovers
     << ",\"live_peers\":" << live_peers
     << ",\"scan_skew_max_over_mean\":" << scan_skew_max_over_mean
     << ",\"scans_per_peer\":{";
  bool first = true;
  for (const auto& [peer, n] : scans_per_peer.bins()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << peer << "\":" << n;
  }
  os << "}}";
  return os.str();
}

}  // namespace hkws::engine
