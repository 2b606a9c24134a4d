#include "index/overlay_index.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>

namespace hkws::index {

namespace {
constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kHitBytes = 48;   // rough wire size of one result hit
constexpr std::size_t kCtrlBytes = 64;  // rough wire size of a control msg
constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};  // node without a group
// Per-cache floor when popularity-proportional sizing redistributes the
// query-cache records budget.
constexpr std::size_t kMinCacheRecords = 2;

std::uint64_t total_count(const CachedTraversal& c) {
  std::uint64_t total = 0;
  for (const auto& [node, count] : c.contributors) total += count;
  return total;
}
}  // namespace

OverlayIndex::OverlayIndex(dht::Dolr& dolr, Config cfg)
    : dolr_(dolr),
      overlay_(dolr.overlay()),
      net_(dolr.overlay().transport()),
      cfg_(cfg),
      cube_(cfg.r),
      hasher_(cfg.r, cfg.hash_seed),
      backoff_rng_(cfg.backoff_seed) {
  // loads_by_cube_node() materializes a 2^r vector; protocols themselves
  // would work for larger r, but nothing in the paper's regime needs it.
  if (cfg.r > 24)
    throw std::invalid_argument("OverlayIndex: r must be <= 24");
  table_slots_.resize(static_cast<std::size_t>(cube_.node_count()));
}

sim::Time OverlayIndex::resend_delay(int attempt) {
  if (cfg_.backoff_cap == 0 || attempt <= 1) return cfg_.step_timeout;
  sim::Time d = cfg_.step_timeout;
  for (int i = 1; i < attempt && d < cfg_.backoff_cap; ++i) d *= 2;
  d = std::min(d, cfg_.backoff_cap);
  if (cfg_.backoff_jitter != 0)
    d += static_cast<sim::Time>(backoff_rng_.next_below(
        static_cast<std::uint64_t>(cfg_.backoff_jitter) + 1));
  return d;
}

dht::RingId OverlayIndex::ring_key_of(cube::CubeId u) const {
  // g: logical hypercube node -> ring key, independent of the other hashes.
  return overlay_.space().clamp(mix64(u ^ cfg_.ring_salt));
}

sim::EndpointId OverlayIndex::peer_of(cube::CubeId u) const {
  return overlay_.endpoint_of(overlay_.owner_of(ring_key_of(u)));
}

std::size_t OverlayIndex::room(const Request& req) const {
  if (req.threshold == 0) return kUnlimited;
  return req.threshold > req.collected ? req.threshold - req.collected : 0;
}

// --- Object maintenance -----------------------------------------------------

void OverlayIndex::publish(sim::EndpointId publisher, ObjectId object,
                           const KeywordSet& keywords, PublishCallback done) {
  if (keywords.empty())
    throw std::invalid_argument("OverlayIndex::publish: empty keyword set");
  dolr_.insert(
      publisher, object,
      [this, object, keywords, done = std::move(done)](
          const dht::Dolr::InsertResult& r) {
        if (!r.first_copy) {
          if (done) done(PublishResult{false, r.hops, 0});
          return;
        }
        // First copy: create the keyword index entry at g(F_h(K)).
        route_entry(overlay_.endpoint_of(r.owner), object, keywords, true,
                    [done, dolr_hops = r.hops](int hops) {
                      if (done) done(PublishResult{true, dolr_hops, hops});
                    });
      });
}

void OverlayIndex::withdraw(sim::EndpointId publisher, ObjectId object,
                            const KeywordSet& keywords,
                            WithdrawCallback done) {
  dolr_.remove(
      publisher, object,
      [this, object, keywords, done = std::move(done)](
          const dht::Dolr::DeleteResult& r) {
        if (!r.last_copy) {
          if (done) done(WithdrawResult{false});
          return;
        }
        route_entry(overlay_.endpoint_of(r.owner), object, keywords, false,
                    [done](int) { if (done) done(WithdrawResult{true}); });
      });
}

void OverlayIndex::reindex(sim::EndpointId from, ObjectId object,
                           const KeywordSet& keywords,
                           std::function<void(int hops)> landed) {
  if (keywords.empty())
    throw std::invalid_argument("OverlayIndex::reindex: empty keyword set");
  route_entry(from, object, keywords, true, std::move(landed));
}

void OverlayIndex::deindex(sim::EndpointId from, ObjectId object,
                           const KeywordSet& keywords,
                           std::function<void(int hops)> landed) {
  route_entry(from, object, keywords, false, std::move(landed));
}

void OverlayIndex::route_entry(sim::EndpointId from, ObjectId object,
                               const KeywordSet& keywords, bool add,
                               std::function<void(int hops)> landed) {
  const cube::CubeId u = hasher_.responsible_node(keywords);
  overlay_.route(
      from, ring_key_of(u), add ? "kws.insert" : "kws.delete",
      add ? kCtrlBytes + keywords.size() * 12 : kCtrlBytes,
      [this, u, object, keywords, add, landed = std::move(landed)](
          const dht::Overlay::RouteResult& rr) {
        const sim::EndpointId owner = overlay_.endpoint_of(rr.owner);
        PeerState& ps = peer_state(owner);
        if (add) {
          if (own_table(owner, ps, u).add(keywords, object)) ++mutation_epoch_;
        } else if (const auto it = ps.tables.find(u); it != ps.tables.end()) {
          if (it->second.remove(keywords, object)) ++mutation_epoch_;
          if (it->second.empty()) erase_table(ps, it);
        }
        replica_apply(u, keywords, object, add);
        if (const auto cit = ps.caches.find(u); cit != ps.caches.end())
          cit->second.erase_if(
              [&](const KeywordSet& q) { return q.subset_of(keywords); });
        if (landed) landed(rr.hops);
      });
}

// --- Pin search --------------------------------------------------------------

void OverlayIndex::pin_search(sim::EndpointId searcher,
                              const KeywordSet& keywords, SearchCallback done) {
  const std::uint64_t id = next_pin_++;
  auto pin = std::make_unique<PinState>();
  pin->keywords = keywords;
  pin->searcher = searcher;
  pin->done = std::move(done);
  pins_[id] = std::move(pin);
  pin_attempt(id);
}

void OverlayIndex::pin_attempt(std::uint64_t pin_id) {
  PinState* pin = find_pin(pin_id);
  if (!pin) return;
  const cube::CubeId u = hasher_.responsible_node(pin->keywords);
  overlay_.route(
      pin->searcher, ring_key_of(u), "kws.pin",
      kCtrlBytes + pin->keywords.size() * 12,
      [this, pin_id, u](const dht::Overlay::RouteResult& rr) {
        PinState* p = find_pin(pin_id);
        if (!p) return;  // already answered by an earlier attempt
        p->stats.messages += static_cast<std::size_t>(rr.hops);
        const sim::EndpointId ep = overlay_.endpoint_of(rr.owner);
        std::vector<Hit> hits;
        if (const IndexTable* table = table_at(ep, u, /*replicas=*/false)) {
          for (ObjectId o : table->exact(p->keywords))
            hits.push_back(Hit{o, p->keywords});
        }
        net_.send(ep, p->searcher, "kws.pin_reply", hits.size() * kHitBytes,
                  [this, pin_id, hits = std::move(hits)] {
                    PinState* p2 = find_pin(pin_id);
                    if (!p2) return;  // duplicate reply of a retried attempt
                    SearchStats& s = p2->stats;
                    ++s.messages;  // the direct reply
                    s.nodes_contacted = 1;
                    s.rounds = 1;
                    s.complete = true;
                    if (p2->guard.sends > 1) {
                      // A retry crossed a timeout: the serving peer may have
                      // changed under us, so the answer counts as degraded.
                      s.degraded = true;
                      s.failovers =
                          static_cast<std::size_t>(p2->guard.sends - 1);
                    }
                    deliver_pin(pin_id, hits);
                  });
      });
  // Guarded pins: route + reply under one retransmission timer, so a pin
  // aimed at a peer that dies mid-query retries (and the re-route lands on
  // the surrogate owner) instead of hanging forever.
  arm(pin_id, Step::kPin, 0);
}

void OverlayIndex::deliver_pin(std::uint64_t pin_id, std::vector<Hit> hits) {
  PinState* pin = find_pin(pin_id);
  if (pin->guard.timer != 0) net_.cancel_timer(pin->guard.timer);
  SearchResult result;
  result.hits = std::move(hits);
  result.stats = pin->stats;
  SearchCallback cb = std::move(pin->done);
  pins_.erase(pin_id);
  cb(result);
}

// --- Superset search ----------------------------------------------------------

std::uint64_t OverlayIndex::superset_search(sim::EndpointId searcher,
                                            const KeywordSet& query,
                                            std::size_t threshold,
                                            SearchStrategy strategy,
                                            SearchCallback done) {
  if (query.empty())
    throw std::invalid_argument("OverlayIndex: empty query");
  const std::uint64_t id = next_request_++;
  auto req = std::make_unique<Request>();
  req->id = id;
  req->query = IndexTable::Query(query);
  req->threshold = threshold;
  req->searcher = searcher;
  req->root_cube = hasher_.responsible_node(query);
  req->epoch = mutation_epoch_;
  req->strategy = strategy;
  req->done = std::move(done);
  requests_[id] = std::move(req);
  begin_root_route(id);
  return id;
}

void OverlayIndex::begin_root_route(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  overlay_.route(
      req->searcher, ring_key_of(req->root_cube), "kws.t_query",
      kCtrlBytes + req->query.keywords().size() * 12,
      [this, req_id](const dht::Overlay::RouteResult& rr) {
        Request* r = find(req_id);
        // root_resolved dedups the callback of a route superseded by a
        // timeout-triggered re-route that happened to survive after all.
        if (!r || r->root_resolved) return;
        r->root_resolved = true;
        release(*r, Step::kRoot, r->root_cube);
        r->root_peer = r->root_owner = overlay_.endpoint_of(rr.owner);
        r->stats.messages += static_cast<std::size_t>(rr.hops);
        r->stats.nodes_contacted = 1;
        emit(req_id, "root", r->root_peer, static_cast<std::uint64_t>(rr.hops));
        hand_off(req_id);
      });
  Request* r = find(req_id);  // re-find: the route may complete in place
  if (r != nullptr && !r->root_resolved)
    arm(req_id, Step::kRoot, r->root_cube);
}

void OverlayIndex::hand_off(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  // Hot root cell: hand the coordinator role to a replica holder so root
  // scans (one per query) spread across owner + replicas. One extra
  // forwarding hop; all subsequent protocol runs at the replica.
  // failover_root re-resolves to the true owner on repeated timeouts.
  const sim::EndpointId rep = pick_replica(req->root_cube);
  req->root_peer = rep != 0 ? rep : req->root_owner;
  if (rep == 0) {
    start_at_root(*req);
    return;
  }
  ++req->stats.messages;
  count_spread(req_id, req->root_cube, rep);
  net_.send(req->root_owner, rep, "kws.t_query", kCtrlBytes,
            [this, req_id, rep] {
              Request* r = find(req_id);
              // An earlier copy of a resent handoff started it already.
              if (!r || !r->answer.order.empty()) return;
              // Demoted while the handoff was in flight: the replica can no
              // longer scan the root cell — run the coordinator at the
              // owner after all.
              r->root_peer = can_serve(rep, r->root_cube) ? rep : r->root_owner;
              start_at_root(*r);
            });
  arm(req_id, Step::kHandoff, req->root_cube);
}

void OverlayIndex::failover_root(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req || req->failover_rerouting) return;
  req->failover_rerouting = true;
  // Re-resolve the root's owner through the DHT. Coordinator state lives in
  // this shared object keyed by request id, so "moving the coordinator" to
  // the surrogate owner is just re-aiming root_peer; in-flight step timers
  // then retransmit from (and reply to) the new peer.
  overlay_.route(
      req->searcher, ring_key_of(req->root_cube), "kws.t_query", kCtrlBytes,
      [this, req_id](const dht::Overlay::RouteResult& rr) {
        Request* r = find(req_id);
        if (!r) return;
        r->failover_rerouting = false;
        r->stats.messages += static_cast<std::size_t>(rr.hops);
        const sim::EndpointId surrogate = overlay_.endpoint_of(rr.owner);
        if (surrogate == r->root_peer) return;  // root is alive after all
        r->root_peer = surrogate;
        count_failover(*r, surrogate, 0);
      });
}

void OverlayIndex::count_failover(Request& req, std::uint64_t a,
                                  std::uint64_t b) {
  ++req.stats.failovers;
  req.stats.degraded = true;
  net_.metrics().count("kws.failover");
  emit(req.id, "failover", a, b);
}

bool OverlayIndex::cancel(std::uint64_t request) {
  Request* req = find(request);
  if (!req) return false;
  retire(*req);
  net_.metrics().count("kws.cancelled");
  if (req->root_resolved) {
    // Abandonment notice: a T_STOP tells the coordinator to stop exploring
    // the subtree. Coordinator state lives in this (shared) object, so
    // erasing the request is the stop itself; the message keeps the wire
    // cost model honest.
    net_.send(req->searcher, req->root_peer, "kws.t_stop", kCtrlBytes, [] {});
  }
  requests_.erase(request);
  return true;
}

void OverlayIndex::start_at_root(Request& req) {
  release(req, Step::kHandoff, req.root_cube);
  // The root examines its own index table first (paper step 0).
  req.answer.order.push_back(req.root_cube);
  const Visit& v0 = ensure_scan(req, req.root_cube, req.root_peer);
  const std::size_t c0 = v0.c1;
  req.collected += c0;
  if (c0 > 0)
    req.contributors.emplace_back(req.root_cube,
                                  static_cast<std::uint32_t>(c0));

  const cube::SpanningBinomialTree sbt(cube_, req.root_cube);
  const bool subtree_trivial = sbt.size() == 1;
  if (req.threshold != 0 && req.collected >= req.threshold) {
    finish(req.id, /*stopped_early=*/!subtree_trivial);
    return;
  }

  // Try the root's query cache: a cached traversal summary lets us contact
  // only the nodes known to contribute.
  if (cfg_.cache_capacity != 0) {
    PeerState& ps = peer_state(req.root_peer);
    if (const auto cit = ps.caches.find(req.root_cube);
        cit != ps.caches.end()) {
      if (const CachedTraversal* cached =
              cit->second.lookup(req.query.keywords(), mutation_epoch_)) {
        if (cached->complete ||
            (req.threshold != 0 && total_count(*cached) >= req.threshold)) {
          req.mode = Mode::kPlan;
          req.stats.cache_hit = true;
          req.plan_complete_means_complete = cached->complete;
          for (const auto& [node, count] : cached->contributors)
            if (node != req.root_cube) req.plan.push_back(node);
          step_plan(req.id);
          return;
        }
      }
    }
  }

  switch (req.strategy) {
    case SearchStrategy::kTopDownSequential:
    case SearchStrategy::kBottomUpSequential: {
      req.mode = Mode::kPlan;
      // The paper's queue U (breadth-first) or deepest nodes first; the
      // root was already examined on arrival.
      const std::vector<cube::CubeId> order =
          req.strategy == SearchStrategy::kTopDownSequential
              ? sbt.bfs_order()
              : sbt.bottom_up_order();
      for (const cube::CubeId w : order)
        if (w != req.root_cube) req.plan.push_back(w);
      step_plan(req.id);
      return;
    }
    case SearchStrategy::kLevelParallel: {
      req.mode = Mode::kLevels;
      req.level_nodes.assign(1, req.root_cube);
      req.level = 1;  // level 0 is the root
      req.level_count =
          static_cast<std::size_t>(cube_.zero_count(req.root_cube)) + 1;
      req.stats.levels = 1;
      start_level(req.id);
      return;
    }
  }
}

OverlayIndex::Visit& OverlayIndex::ensure_scan(Request& req, cube::CubeId w,
                                               sim::EndpointId peer,
                                               bool ship) {
  auto [it, fresh] = req.visits.try_emplace(w);
  Visit& v = it->second;
  if (fresh) {
    v.peer = peer;
    if (cfg_.hot.enabled) popularity_.note(net_.now(), w);
    // Replica holders scan their write-through copy; the ordered entry map
    // makes the batch byte-identical to the primary's scan.
    if (const IndexTable* table = table_at(peer, w, cfg_.hot.enabled)) {
      const std::size_t want = room(req);
      table->supersets_into(req.query, want == kUnlimited ? 0 : want,
                            &v.truncated, scan_);
      if (!scan_.empty()) {
        // The hits move into a pooled batch, whose empty buffer takes
        // their place for the next scan.
        v.batch = hit_pool_.acquire();
        v.batch->swap(scan_);
      }
    }
    v.c1 = v.batch ? v.batch->size() : 0;
    // Control verdict is fixed at first scan so retransmitted arrivals
    // replay the identical reply (collected may have moved on since). The
    // table's truncation indicator stands in for "the want limit filled":
    // a cut-off scan means the threshold is reached with this batch, even
    // when the cut landed mid-way through one entry's object set.
    v.stop = req.mode != Mode::kLevels && req.threshold != 0 &&
             (v.truncated || req.collected + v.c1 >= req.threshold);
    if (v.c1 > 0) ++req.answer.expected;
    emit(req.id, "scan", w, peer);
  }
  if (v.c1 > 0 && ship) {
    // Matching IDs travel directly to the searcher (paper protocol); a
    // retransmitted query replays the same batch, deduplicated there.
    ship_results(req, w, peer, v);
    if (cfg_.step_timeout == 0) {
      // No retransmission: the memo will never be replayed. Drop its
      // reference; the in-flight message keeps the buffer alive and it
      // returns to the pool once delivered.
      v.batch.reset();
    }
  }
  return v;
}

void OverlayIndex::ship_results(Request& req, cube::CubeId w,
                                sim::EndpointId from, const Visit& v) {
  // The closure shares the pooled buffer by pointer — no payload copy.
  ++req.stats.messages;
  net_.send(from, req.searcher, "kws.results", v.c1 * kHitBytes,
            [this, id = req.id, w, batch = v.batch] {
              on_results(id, w, batch);
            });
}

void OverlayIndex::on_results(std::uint64_t req_id, cube::CubeId w,
                              const HitBatchPool::Batch& batch) {
  Request* r = find(req_id);
  if (!r) return;
  if (!r->answer.batches.emplace(w, batch).second) return;  // a replay
  maybe_complete(req_id);
}

std::vector<Hit> OverlayIndex::HitAssembly::hits() const {
  std::size_t total = 0;
  for (const auto& [w, batch] : batches)
    if (batch) total += batch->size();
  std::vector<Hit> out;
  out.reserve(total);
  for (const cube::CubeId w : order) {
    const auto it = batches.find(w);
    if (it == batches.end() || !it->second) continue;
    out.insert(out.end(), it->second->begin(), it->second->end());
  }
  return out;
}

const OverlayIndex::Visit* OverlayIndex::arrive(Request& req, cube::CubeId w,
                                                sim::EndpointId peer,
                                                bool ship) {
  const bool first = !req.visits.contains(w);
  // Demoted while the spread visit was in flight: drop the arrival and let
  // the step guard retransmit through a fresh pick (only when timers exist
  // to recover — without them a drop would hang the search). Un-learn the
  // contact if it pointed here, so the retransmit re-resolves instead of
  // repeating the drop forever.
  if (cfg_.hot.enabled && cfg_.step_timeout != 0 && first &&
      !can_serve(peer, w)) {
    PeerState& ps = peer_state(req.root_peer);
    if (const auto it = ps.contacts.find(w);
        it != ps.contacts.end() && it->second == peer)
      ps.contacts.erase(it);
    return nullptr;
  }
  if (first) ++req.stats.nodes_contacted;
  return &ensure_scan(req, w, peer, ship);
}

void OverlayIndex::on_query_arrived(std::uint64_t req_id, cube::CubeId w,
                                    sim::EndpointId peer) {
  Request* req = find(req_id);
  if (!req) return;
  const Visit* v = arrive(*req, w, peer, /*ship=*/true);
  if (v == nullptr) return;
  // T_CONT carries the child list L; T_STOP ends the search. Either way one
  // direct control message back to the coordinator (replayed on
  // retransmitted queries so a lost reply cannot stall the coordinator).
  ++req->stats.messages;
  net_.send(peer, req->root_peer, v->stop ? "kws.t_stop" : "kws.t_cont",
            kCtrlBytes, [this, req_id, w, peer, c1 = v->c1] {
              on_node_answered(req_id, w, peer, c1);
            });
}

void OverlayIndex::visit_node(std::uint64_t req_id, cube::CubeId w) {
  Request* req = find(req_id);
  if (!req) return;
  // Hot cell: rotate the visit across owner + replica holders. A lost
  // spread visit re-enters here via the step timer and re-picks, so loss
  // degrades to the usual individual retransmission.
  if (const sim::EndpointId rep = pick_replica(w); rep != 0) {
    visit_replica(req_id, w, rep);
    return;
  }
  send_to_cube_node(
      req->root_peer, w, "kws.t_query", kCtrlBytes,
      [this, req_id](std::size_t n) {
        if (Request* r = find(req_id)) r->stats.messages += n;
      },
      [this, req_id, w](sim::EndpointId peer) {
        on_query_arrived(req_id, w, peer);
      },
      [this, req_id, w] {
        // A learned contact died: the step falls back to DHT routing and
        // lands on the surrogate owner, whose table may miss entries lost
        // with the peer — the result can no longer be trusted as complete.
        if (Request* r = find(req_id)) count_failover(*r, w, 2);
      });
  arm(req_id, Step::kNode, w);
}

void OverlayIndex::send_to_cube_node(
    sim::EndpointId from, cube::CubeId target, const char* kind,
    std::size_t bytes, const Charge& charge,
    std::function<void(sim::EndpointId)> at_target,
    const std::function<void()>& on_failover) {
  PeerState& ps = peer_state(from);
  if (const auto it = ps.contacts.find(target); it != ps.contacts.end()) {
    if (net_.is_registered(it->second)) {
      const sim::EndpointId to = it->second;
      charge(1);
      net_.send(from, to, kind, bytes,
                [to, at_target = std::move(at_target)] { at_target(to); });
      return;
    }
    ps.contacts.erase(it);  // stale contact: the peer is gone
    if (on_failover) on_failover();
  }
  overlay_.route(from, ring_key_of(target), kind, bytes,
                 [this, charge, at_target = std::move(at_target)](
                     const dht::Overlay::RouteResult& rr) {
                   charge(static_cast<std::size_t>(rr.hops));
                   at_target(overlay_.endpoint_of(rr.owner));
                 });
}

void OverlayIndex::step_plan(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  if (req->plan_pos >= req->plan.size()) {
    finish(req_id, /*stopped_early=*/false);
    return;
  }
  const cube::CubeId w = req->plan[req->plan_pos++];
  ++req->stats.rounds;
  req->answer.order.push_back(w);
  visit_node(req_id, w);
}

void OverlayIndex::start_level(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  if (req->level >= req->level_count) {
    finish(req_id, /*stopped_early=*/false);
    return;
  }
  const cube::SpanningBinomialTree sbt(cube_, req->root_cube);
  const std::size_t first = req->level;
  std::vector<cube::CubeId>& next = req->level_next;
  next.clear();
  sbt.expand_level(req->level_nodes, next);
  ++req->level;
  ++req->stats.levels;
  if (one_round(*req)) {
    // An exhaustive search cannot stop at a level boundary, so it dispatches
    // every remaining level in this one round, in BFS order, and each peer
    // gets one batch for the whole subcube. The reserve keeps the span over
    // the last level valid while its children are appended behind it.
    next.reserve(static_cast<std::size_t>(sbt.size()) - 1);
    for (std::size_t begin = 0; req->level < req->level_count;
         ++req->level, ++req->stats.levels) {
      const std::size_t end = next.size();
      sbt.expand_level(std::span(next).subspan(begin, end - begin), next);
      begin = end;
    }
  }
  std::swap(req->level_nodes, next);
  // Handlers never run inside a send (net::Transport's contract), so req
  // and its level stay valid through the dispatch below.
  const std::vector<cube::CubeId>& nodes = req->level_nodes;
  ++req->stats.rounds;
  req->outstanding = nodes.size();
  emit(req_id, "level", first, nodes.size());
  req->answer.order.insert(req->answer.order.end(), nodes.begin(),
                           nodes.end());

  if (!cfg_.coalesce_visits) {
    for (const cube::CubeId w : nodes) visit_node(req_id, w);
    return;
  }
  // Group this round's nodes by destination; two or more nodes co-hosted
  // at one live peer travel as a single VisitBatch wire message. Hot cells
  // rotate onto a replica holder, which joins the grouping like any
  // contact, so a replicated node still coalesces with whatever else that
  // peer serves this round. Nodes without a usable contact (cold cache,
  // dead peer) go through visit_node, which handles DHT routing and
  // surrogate failover.
  std::vector<LevelSlot>& slots = level_slots_;
  slots.clear();
  {
    const PeerState& ps = peer_state(req->root_peer);
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      if (const sim::EndpointId rep = pick_replica(nodes[i]); rep != 0) {
        slots.push_back({.dest = rep, .pos = i, .replica = true});
      } else if (const auto it = ps.contacts.find(nodes[i]);
                 it != ps.contacts.end()) {
        slots.push_back({.dest = it->second, .pos = i});
      }
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const LevelSlot& a, const LevelSlot& b) {
              return a.dest != b.dest ? a.dest < b.dest : a.pos < b.pos;
            });
  level_slot_of_.assign(nodes.size(), kNoSlot);
  for (std::uint32_t begin = 0; begin < slots.size();) {
    // One liveness check per destination that would get a batch. A replica
    // pick is registered already (pick_replica skips dead holders), and a
    // lone contact is checked where visit_node sends to it.
    std::uint32_t end = begin;
    bool live = false;
    for (; end < slots.size() && slots[end].dest == slots[begin].dest; ++end)
      live = live || slots[end].replica;
    if (!live && end - begin >= 2)
      live = net_.is_registered(slots[begin].dest);
    for (std::uint32_t k = begin; k < end; ++k) {
      slots[k].live = live;
      slots[k].run_begin = begin;
      slots[k].run_size = end - begin;
      level_slot_of_[slots[k].pos] = k;
    }
    begin = end;
  }
  // Dispatch in level order: a group goes out when its first member is
  // reached, so the wire order is deterministic.
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const cube::CubeId w = nodes[i];
    const std::uint32_t k = level_slot_of_[i];
    if (k != kNoSlot && slots[k].replica && slots[k].run_size < 2) {
      // An already-picked replica single goes out directly — re-picking in
      // visit_node would advance the rotation cursor a second time.
      visit_replica(req_id, w, slots[k].dest);
      continue;
    }
    if (k == kNoSlot || slots[k].run_size < 2 || !slots[k].live) {
      visit_node(req_id, w);
      continue;
    }
    const LevelSlot& slot = slots[k];
    if (slot.replica) count_spread(req_id, w, slot.dest);
    if (k == slot.run_begin) {
      level_batch_.clear();
      for (std::uint32_t m = k; m < k + slot.run_size; ++m)
        level_batch_.push_back(nodes[slots[m].pos]);
      send_visit_batch(req_id, slot.dest, level_batch_);
    }
  }
}

void OverlayIndex::send_visit_batch(std::uint64_t req_id, sim::EndpointId peer,
                                    const std::vector<cube::CubeId>& nodes) {
  Request* req = find(req_id);
  if (!req) return;
  ++req->stats.messages;
  ++req->stats.coalesced_batches;
  req->stats.coalesced_visits += nodes.size();
  emit(req_id, "coalesce", peer, nodes.size());
  net_.send(req->root_peer, peer, "kws.visit_batch",
            kCtrlBytes + nodes.size() * 8,
            [this, req_id, peer, nodes] {
              on_visit_batch_arrived(req_id, nodes, peer);
            });
  // The usual per-node step guards: a lost batch (or reply) retransmits
  // each node individually via visit_node, replaying the memoized scans.
  for (const cube::CubeId w : nodes) arm(req_id, Step::kNode, w);
}

void OverlayIndex::on_visit_batch_arrived(
    std::uint64_t req_id, const std::vector<cube::CubeId>& nodes,
    sim::EndpointId peer) {
  Request* req = find(req_id);
  if (!req) return;
  // Scan every co-hosted node (memoized — idempotent when the batch is
  // duplicated or raced by an individual retransmission), then merge: one
  // result message carrying per-node batches to the searcher, one control
  // reply carrying per-node verdicts to the coordinator. Nodes with empty
  // batches ride along in the reply for free.
  std::vector<std::pair<cube::CubeId, HitBatchPool::Batch>> batches;
  std::vector<std::pair<cube::CubeId, std::size_t>> verdicts;
  std::size_t total_hits = 0;
  for (const cube::CubeId w : nodes) {
    // A dropped arrival is left out of the reply; its step guard
    // retransmits the node individually.
    const Visit* v = arrive(*req, w, peer, /*ship=*/false);
    if (v == nullptr) continue;
    verdicts.emplace_back(w, v->c1);
    if (v->c1 > 0) {
      batches.emplace_back(w, v->batch);  // shares the buffer, no copy
      total_hits += v->c1;
    }
  }
  if (cfg_.step_timeout == 0) {
    // No retransmission: the memos will never be replayed. The merged
    // result message below still holds its own references.
    for (const cube::CubeId w : nodes) req->visits[w].batch.reset();
  }
  if (total_hits > 0) {
    ++req->stats.messages;
    net_.send(peer, req->searcher, "kws.batch_results",
              total_hits * kHitBytes + batches.size() * 8,
              [this, req_id, batches = std::move(batches)] {
                for (const auto& [w, batch] : batches)
                  on_results(req_id, w, batch);
              });
  }
  ++req->stats.messages;
  net_.send(peer, req->root_peer, "kws.batch_reply",
            kCtrlBytes + verdicts.size() * 12,
            [this, req_id, peer, verdicts = std::move(verdicts)] {
              for (const auto& [w, c1] : verdicts)
                on_node_answered(req_id, w, peer, c1);
            });
}

void OverlayIndex::on_node_answered(std::uint64_t req_id, cube::CubeId w,
                                    sim::EndpointId peer, std::size_t c1) {
  Request* req = find(req_id);
  if (!req) return;
  if (!req->answered.insert(w).second) return;  // duplicate control reply
  release(*req, Step::kNode, w);
  req->collected += c1;
  if (c1 > 0)
    req->contributors.emplace_back(w, static_cast<std::uint32_t>(c1));
  // Only learn the node's *current owner* as its contact. A replica holder
  // must never be cached (the contact would pin all future traffic onto one
  // replica, defeating the rotation) — and checking "is it a holder?"
  // instead is not enough, because a holder demoted while its reply was in
  // flight would pass that check and poison the contact cache with a peer
  // that can no longer serve the node.
  // The ownership oracle walks the ring, so it is asked only when its
  // answer could change the table: a contact already equal to `peer` stays
  // either way.
  if (cached_contact(req->root_peer, w) != peer && peer == peer_of(w))
    peer_state(req->root_peer).contacts[w] = peer;

  switch (req->mode) {
    case Mode::kPlan: {
      if (req->threshold != 0 && req->collected >= req->threshold) {
        // Work is left iff a plan node remains — except on a top-down
        // walk, where the paper's queue U gains w's children only after w
        // answers T_CONT: a next node that is w's child means U is empty.
        bool left = req->plan_pos < req->plan.size();
        if (left && req->strategy == SearchStrategy::kTopDownSequential &&
            !req->stats.cache_hit)
          left = cube::SpanningBinomialTree(cube_, req->root_cube)
                     .parent(req->plan[req->plan_pos]) != w;
        finish(req_id, /*stopped_early=*/left);
        return;
      }
      step_plan(req_id);
      return;
    }
    case Mode::kLevels: {
      if (req->outstanding > 0) --req->outstanding;
      if (req->outstanding != 0) return;
      if (req->threshold != 0 && req->collected >= req->threshold) {
        finish(req_id, /*stopped_early=*/req->level < req->level_count);
        return;
      }
      start_level(req_id);
      return;
    }
  }
}

void OverlayIndex::finish(std::uint64_t req_id, bool stopped_early) {
  Request* req = find(req_id);
  if (!req) return;
  req->stats.complete = !stopped_early && req->plan_complete_means_complete;

  // A search served from a cached plan records no new summary.
  if (cfg_.cache_capacity != 0 && !req->stats.cache_hit) {
    PeerState& ps = peer_state(req->root_peer);
    auto cit = ps.caches.try_emplace(req->root_cube, cfg_.cache_capacity).first;
    CachedTraversal summary;
    if (one_round(*req)) {
      // One round's answers arrive in any order across levels. The plan
      // keeps the visit order, so a search it serves returns the hits in
      // the order this one did.
      const std::unordered_map<cube::CubeId, std::uint32_t> count(
          req->contributors.begin(), req->contributors.end());
      for (const cube::CubeId w : req->answer.order)
        if (const auto it = count.find(w); it != count.end())
          summary.contributors.push_back(*it);
    } else {
      summary.contributors = req->contributors;
    }
    summary.complete = req->stats.complete;
    // Stamp with the epoch captured at request start: if a mutation raced
    // this traversal, the entry is already stale and will never be served.
    cit->second.insert(req->query.keywords(), std::move(summary), req->epoch);
  }

  send_done(req_id);
}

void OverlayIndex::send_done(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req || req->answer.done) return;
  ++req->stats.messages;  // the final done notification to the searcher
  net_.send(req->root_peer, req->searcher, "kws.done", kCtrlBytes,
            [this, req_id] {
              Request* r = find(req_id);
              if (!r || r->answer.done) return;
              r->answer.done = true;
              release(*r, Step::kDone, r->root_cube);
              maybe_complete(req_id);
            });
  arm(req_id, Step::kDone, req->root_cube);
}

void OverlayIndex::repair_results(std::uint64_t req_id) {
  Request* r = find(req_id);
  if (!r) return;
  for (auto& [node, v] : r->visits) {
    if (v.c1 == 0 || r->answer.batches.contains(node)) continue;
    if (cfg_.failover_after != 0 && !net_.is_registered(v.peer)) {
      // The batch's origin died with the batch still undelivered: the
      // hits are unrecoverable until background repair re-homes the
      // entries. Serve what arrived as a degraded result instead of
      // burning the budget re-shipping from a dead peer.
      r->answer.batches.emplace(node, nullptr);
      r->stats.complete = false;
      count_failover(*r, node, 1);
      continue;
    }
    count_retransmit(r->stats, req_id, node, 2);
    ship_results(*r, node, v.peer, v);
  }
  maybe_complete(req_id);  // arms the next round if batches are lost again
}

OverlayIndex::Guard* OverlayIndex::guard_of(std::uint64_t id, Step step,
                                            cube::CubeId w) {
  if (step == Step::kPin) {
    PinState* pin = find_pin(id);
    return pin != nullptr ? &pin->guard : nullptr;
  }
  Request* req = cfg_.step_timeout != 0 ? find(id) : nullptr;
  return req != nullptr ? &req->guards[guard_key(step, w)] : nullptr;
}

void OverlayIndex::arm(std::uint64_t id, Step step, cube::CubeId w) {
  Guard* g = guard_of(id, step, w);
  if (g == nullptr) return;
  ++g->sends;
  if (cfg_.step_timeout == 0 ||
      (step == Step::kPin && cfg_.failover_after == 0))
    return;
  if (g->timer != 0) net_.cancel_timer(g->timer);
  g->timer = net_.set_timer(resend_delay(g->sends),
                            [this, id, step, w] { on_expired(id, step, w); });
}

void OverlayIndex::release(Request& req, Step step, cube::CubeId w) {
  const auto it = req.guards.find(guard_key(step, w));
  if (it == req.guards.end() || it->second.timer == 0) return;
  net_.cancel_timer(it->second.timer);
  it->second.timer = 0;
}

void OverlayIndex::on_expired(std::uint64_t id, Step step, cube::CubeId w) {
  Guard* g = guard_of(id, step, w);
  if (g == nullptr) return;  // the pin or search has ended
  g->timer = 0;
  const int sends = g->sends;
  PinState* pin = step == Step::kPin ? find_pin(id) : nullptr;
  SearchStats& stats = pin != nullptr ? pin->stats : find(id)->stats;
  if (sends > cfg_.max_retries) {  // budget spent: the step gives up
    if (pin == nullptr) {
      abort_request(id);
      return;
    }
    net_.metrics().count("kws.request_failed");
    stats.failed = true;
    deliver_pin(id, {});
    return;
  }
  // A repair round counts each batch it re-ships instead.
  if (step != Step::kRepair)
    count_retransmit(stats, pin != nullptr ? 0 : id, w,
                     step == Step::kDone      ? 1
                     : step == Step::kHandoff ? 3
                                              : 0);
  switch (step) {
    case Step::kPin:
      pin_attempt(id);
      return;
    case Step::kRoot:
      begin_root_route(id);
      return;
    case Step::kHandoff:
      hand_off(id);
      return;
    case Step::kNode:
      // Repeated timeouts on one step usually mean the coordinator (or its
      // stale idea of the root) is dead, not that messages are merely slow:
      // re-resolve the root before burning more of the budget.
      if (cfg_.failover_after != 0 && sends >= cfg_.failover_after)
        failover_root(id);
      visit_node(id, w);
      return;
    case Step::kDone:
      send_done(id);
      return;
    case Step::kRepair:
      repair_results(id);
      return;
  }
}

void OverlayIndex::count_retransmit(SearchStats& stats, std::uint64_t req_id,
                                    cube::CubeId a, std::uint64_t b) {
  ++stats.retransmits;
  net_.metrics().count("kws.retransmit");
  if (req_id != 0) emit(req_id, "retransmit", a, b);
}

void OverlayIndex::retire(Request& req) {
  for (const auto& [key, g] : req.guards)
    if (g.timer != 0) net_.cancel_timer(g.timer);
  req.guards.clear();
  // A zero delta would still add the key to the registry.
  if (req.stats.coalesced_visits != 0)
    net_.metrics().count("kws.coalesced_visits", req.stats.coalesced_visits);
}

void OverlayIndex::abort_request(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  net_.metrics().count("kws.request_failed");
  emit(req_id, "failed");
  req->stats.failed = true;
  req->stats.complete = false;
  deliver(*req);
}

void OverlayIndex::maybe_complete(std::uint64_t req_id) {
  Request* req = find(req_id);
  if (!req) return;
  if (req->answer.complete()) {
    deliver(*req);
    return;
  }
  // A result batch can be lost even though the done arrived; after a grace
  // timeout re-ship whatever the searcher is still missing. Like every
  // guard, the repair gives up on an expiry past its budget, so its last
  // re-shipment still gets a full timeout to land.
  if (!req->answer.done || cfg_.step_timeout == 0) return;
  if (guard_of(req_id, Step::kRepair, 0)->timer != 0)
    return;  // a repair round is already pending
  arm(req_id, Step::kRepair, 0);
}

void OverlayIndex::deliver(Request& req) {
  retire(req);
  SearchResult result;
  result.hits = req.answer.hits();
  result.stats = req.stats;
  SearchCallback cb = std::move(req.done);
  const std::uint64_t id = req.id;
  requests_.erase(id);
  if (cb) cb(result);
}

// --- Cumulative superset search ------------------------------------------------

std::uint64_t OverlayIndex::open_cumulative(sim::EndpointId searcher,
                                            const KeywordSet& query) {
  if (query.empty())
    throw std::invalid_argument("open_cumulative: empty query");
  const std::uint64_t id = next_session_++;
  auto s = std::make_unique<CumulativeState>();
  s->query = IndexTable::Query(query);
  s->searcher = searcher;
  s->root_cube = hasher_.responsible_node(query);
  s->order = cube::SpanningBinomialTree(cube_, s->root_cube).bfs_order();
  sessions_[id] = std::move(s);
  return id;
}

bool OverlayIndex::cumulative_exhausted(std::uint64_t session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() || it->second->exhausted;
}

void OverlayIndex::close_cumulative(std::uint64_t session) {
  sessions_.erase(session);
}

void OverlayIndex::cumulative_next(std::uint64_t session, std::size_t count,
                                   SearchCallback done) {
  CumulativeState* s = find_session(session);
  if (s == nullptr)
    throw std::invalid_argument("cumulative_next: unknown session");
  if (count == 0)
    throw std::invalid_argument("cumulative_next: count must be > 0");
  s->want = count;
  s->got = 0;
  s->answer = HitAssembly();
  s->stats = SearchStats{};
  s->done = std::move(done);

  if (s->exhausted) {
    // Nothing left; answer locally (no messages).
    net_.schedule_in(0, [this, session] { on_page_part(session, true); });
    return;
  }

  if (!s->resolved) {
    // First page: route the continuation request to the root.
    overlay_.route(s->searcher, ring_key_of(s->root_cube), "kws.c_open",
                   kCtrlBytes + s->query.keywords().size() * 12,
                   [this, session](const dht::Overlay::RouteResult& rr) {
                     CumulativeState* st = find_session(session);
                     if (!st) return;
                     st->root_peer = overlay_.endpoint_of(rr.owner);
                     st->resolved = true;
                     st->stats.messages += static_cast<std::size_t>(rr.hops);
                     st->stats.nodes_contacted = 1;
                     cumulative_step(session);
                   });
  } else {
    ++s->stats.messages;  // direct continuation to the known root
    s->stats.nodes_contacted = 1;
    net_.send(s->searcher, s->root_peer, "kws.c_next", kCtrlBytes,
              [this, session] { cumulative_step(session); });
  }
}

void OverlayIndex::cumulative_step(std::uint64_t session) {
  CumulativeState* s = find_session(session);
  if (!s) return;
  if (s->got < s->want && s->pos >= s->order.size()) s->exhausted = true;
  if (s->got >= s->want || s->exhausted) {
    ++s->stats.messages;  // done notification root -> searcher
    net_.send(s->root_peer, s->searcher, "kws.c_done", kCtrlBytes,
              [this, session] { on_page_part(session, true); });
    return;
  }
  // The root's own table is the first node; scanning it costs no round.
  const cube::CubeId w = s->order[s->pos];
  if (w != s->root_cube) ++s->stats.rounds;
  s->answer.order.push_back(w);
  // Visit w: scan it from the stored offset, ship up to the remaining want
  // to the searcher, report back.
  const std::size_t offset = s->offset;
  const std::size_t room = s->want - s->got;
  const Charge charge = [this, session](std::size_t n) {
    if (CumulativeState* st = find_session(session)) st->stats.messages += n;
  };

  // The scan + reply work that happens at the peer holding cube node w.
  auto scan_at = [this, session, w, offset, room,
                  charge](sim::EndpointId peer) {
    CumulativeState* st = find_session(session);
    if (!st) return;
    if (w != st->root_cube) ++st->stats.nodes_contacted;
    scan_.clear();
    if (const IndexTable* table = table_at(peer, w, /*replicas=*/false))
      table->supersets_into(st->query, 0, nullptr, scan_);
    const std::size_t total = scan_.size();
    const std::size_t taken =
        offset < total ? std::min(room, total - offset) : 0;
    if (taken > 0) {
      // Ship this node's slice straight to the searcher. Distinct kind from
      // the one-shot search's "kws.results": cumulative delivery has no
      // retransmission/dedup layer, so fault injectors must not target it.
      const auto first = scan_.begin() + static_cast<std::ptrdiff_t>(offset);
      HitBatchPool::Batch batch = hit_pool_.acquire();
      batch->assign(first, first + static_cast<std::ptrdiff_t>(taken));
      ++st->answer.expected;
      charge(1);
      net_.send(peer, st->searcher, "kws.c_results", taken * kHitBytes,
                [this, session, w, batch = std::move(batch)] {
                  if (CumulativeState* s2 = find_session(session))
                    s2->answer.batches.emplace(w, batch);
                  on_page_part(session, false);
                });
    }
    // Report (taken, total) back to the root coordinator.
    auto continue_at_root = [this, session, w, peer, offset, taken, total] {
      CumulativeState* s2 = find_session(session);
      if (!s2) return;
      if (w != s2->root_cube) peer_state(s2->root_peer).contacts[w] = peer;
      s2->got += taken;
      if (offset + taken < total) {
        s2->offset = offset + taken;  // node not fully consumed: stay on it
      } else {
        s2->offset = 0;
        ++s2->pos;
      }
      cumulative_step(session);
    };
    if (w == st->root_cube) {
      // Local bookkeeping at the root itself: no network message.
      net_.send(peer, peer, "kws.c_local", 0, std::move(continue_at_root));
    } else {
      charge(1);
      net_.send(peer, st->root_peer, "kws.c_cont", kCtrlBytes,
                std::move(continue_at_root));
    }
  };

  if (w == s->root_cube) {
    scan_at(s->root_peer);
  } else {
    send_to_cube_node(s->root_peer, w, "kws.c_query", kCtrlBytes, charge,
                      std::move(scan_at));
  }
}

void OverlayIndex::on_page_part(std::uint64_t session, bool done) {
  CumulativeState* s = find_session(session);
  if (!s) return;
  if (done) s->answer.done = true;
  if (!s->answer.complete()) return;
  SearchResult result;
  result.hits = s->answer.hits();
  result.stats = s->stats;
  result.stats.complete = s->exhausted;
  SearchCallback cb = std::move(s->done);
  s->done = nullptr;
  if (cb) cb(result);
}

// --- Maintenance / introspection ---------------------------------------------

std::uint64_t OverlayIndex::repair_placement() {
  const std::uint64_t moved = repair_placement(kUnlimited);
  // Flush even when nothing moved: a contact left pointing at a dead peer
  // would turn later visits into failovers.
  flush_contacts_and_caches();
  return moved;
}

std::uint64_t OverlayIndex::repair_placement(std::size_t max_entries) {
  // Collect up to the budget of individual misplaced entries first (moving
  // while iterating would invalidate iterators), then apply the moves.
  struct Move {
    sim::EndpointId ep;
    cube::CubeId u;
    KeywordSet keywords;
    ObjectId object;
  };
  std::vector<Move> moves;
  for (const auto& [ep, ps] : peers_) {
    if (moves.size() >= max_entries) break;
    if (!overlay_.is_live(ep)) continue;
    for (const auto& [u, table] : ps.tables) {
      if (moves.size() >= max_entries) break;
      if (peer_of(u) == ep) continue;
      for (const auto& [k, objects] : table.entries()) {
        if (moves.size() >= max_entries) break;
        for (ObjectId o : objects) {
          if (moves.size() >= max_entries) break;
          moves.push_back(Move{ep, u, k, o});
        }
      }
    }
  }
  for (const Move& m : moves) {
    PeerState& src = peers_[m.ep];
    if (const auto it = src.tables.find(m.u); it != src.tables.end()) {
      it->second.remove(m.keywords, m.object);
      if (it->second.empty()) erase_table(src, it);
    }
    const sim::EndpointId owner = peer_of(m.u);
    own_table(owner, peer_state(owner), m.u).add(m.keywords, m.object);
    // A placement move is not a deletion: replicas keep (or gain) the entry.
    replica_apply(m.u, m.keywords, m.object, /*add=*/true);
  }
  if (!moves.empty()) {
    net_.metrics().count("kws.repair_entries", moves.size());
    ++mutation_epoch_;
    flush_contacts_and_caches();
  }
  return moves.size();
}

void OverlayIndex::flush_contacts_and_caches() {
  for (auto& [ep, ps] : peers_) {
    ps.contacts.clear();
    ps.caches.clear();
  }
}

std::size_t OverlayIndex::misplaced_entries() const {
  std::size_t misplaced = 0;
  for (const auto& [ep, ps] : peers_) {
    if (!overlay_.is_live(ep)) continue;
    for (const auto& [u, table] : ps.tables)
      if (peer_of(u) != ep) misplaced += table.object_count();
  }
  return misplaced;
}

bool OverlayIndex::has_entry(const KeywordSet& keywords,
                             ObjectId object) const {
  const IndexTable* t = table_of(hasher_.responsible_node(keywords));
  return t != nullptr && t->contains(keywords, object);
}

void OverlayIndex::purge_dead() {
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (!overlay_.is_live(it->first)) {
      // Entries held by the dead peer are gone: surviving cached traversals
      // that counted on them are stale from this point on.
      if (!it->second.tables.empty()) ++mutation_epoch_;
      std::uint64_t lost = 0;
      for (const auto& [u, t] : it->second.tables) {
        lost += t.object_count();
        release_slot(u, t);  // the table goes below
      }
      net_.metrics().count("kws.entries_lost", lost);
      it = peers_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- Hot-cell replication ----------------------------------------------------

void OverlayIndex::replica_apply(cube::CubeId u, const KeywordSet& keywords,
                                 ObjectId o, bool add) {
  if (!cfg_.hot.enabled) return;
  const auto it = replicas_.find(u);
  if (it == replicas_.end()) return;
  for (const sim::EndpointId h : it->second.holders) {
    const auto pit = peers_.find(h);
    if (pit == peers_.end()) continue;
    auto& tables = pit->second.replica_tables;
    if (add) {
      if (net_.is_registered(h)) tables[u].add(keywords, o);
    } else if (const auto tit = tables.find(u); tit != tables.end()) {
      tit->second.remove(keywords, o);
      if (tit->second.empty()) tables.erase(tit);
    }
  }
}

sim::EndpointId OverlayIndex::pick_replica(cube::CubeId w) {
  if (!cfg_.hot.enabled) return 0;
  const auto it = replicas_.find(w);
  if (it == replicas_.end()) return 0;
  ReplicaSet& rs = it->second;
  if (rs.holders.empty()) return 0;
  // Deterministic round-robin over 1 + holders slots; slot 0 is the owner.
  // Dead holders are skipped (their slot falls through to the next), so a
  // kill degrades the rotation instead of stalling it.
  const std::size_t slots = rs.holders.size() + 1;
  for (std::size_t i = 0; i < slots; ++i) {
    const std::size_t slot = rs.rr++ % slots;
    if (slot == 0) return 0;
    const sim::EndpointId peer = rs.holders[slot - 1];
    if (net_.is_registered(peer)) return peer;
  }
  return 0;
}

void OverlayIndex::visit_replica(std::uint64_t req_id, cube::CubeId w,
                                 sim::EndpointId peer) {
  Request* req = find(req_id);
  if (!req) return;
  ++req->stats.messages;
  count_spread(req_id, w, peer);
  net_.send(req->root_peer, peer, "kws.t_query", kCtrlBytes,
            [this, req_id, w, peer] { on_query_arrived(req_id, w, peer); });
  arm(req_id, Step::kNode, w);
}

void OverlayIndex::count_spread(std::uint64_t req_id, cube::CubeId w,
                                sim::EndpointId holder) {
  ++replica_spread_visits_;
  net_.metrics().count("kws.replica_spread");
  emit(req_id, "spread", w, holder);
}

bool OverlayIndex::can_serve(sim::EndpointId peer, cube::CubeId w) const {
  if (peer == peer_of(w)) return true;
  const auto pit = peers_.find(peer);
  return pit != peers_.end() && pit->second.replica_tables.contains(w);
}

sim::EndpointId OverlayIndex::cached_contact(sim::EndpointId coordinator,
                                             cube::CubeId w) const {
  const auto pit = peers_.find(coordinator);
  if (pit == peers_.end()) return 0;
  const auto cit = pit->second.contacts.find(w);
  return cit == pit->second.contacts.end() ? 0 : cit->second;
}

const IndexTable* OverlayIndex::table_at(sim::EndpointId peer,
                                         cube::CubeId w, bool replicas) {
  // A slot names `peer` only while it points into that peer's `tables`
  // (own_table), so a hit implies peers_ already holds `peer`. On a miss,
  // peer_state creates the entry. Either way peers_'s membership and
  // iteration order (which drive repair and replication) are those of a
  // lookup through the maps alone.
  if (const TableSlot& s = table_slots_[w];
      s.table != nullptr && s.peer == peer)
    return s.table;
  const PeerState& ps = peer_state(peer);
  if (const auto it = ps.tables.find(w); it != ps.tables.end())
    return &it->second;
  if (replicas)
    if (const auto it = ps.replica_tables.find(w);
        it != ps.replica_tables.end())
      return &it->second;
  return nullptr;
}

IndexTable& OverlayIndex::own_table(sim::EndpointId peer, PeerState& ps,
                                    cube::CubeId u) {
  IndexTable& table = ps.tables[u];
  table_slots_[u] = {peer, &table};
  return table;
}

void OverlayIndex::erase_table(PeerState& ps, Tables::iterator it) {
  release_slot(it->first, it->second);
  ps.tables.erase(it);
}

void OverlayIndex::release_slot(cube::CubeId u, const IndexTable& t) {
  if (TableSlot& s = table_slots_[u]; s.table == &t) s = {};
}

std::uint64_t OverlayIndex::replication_step(std::size_t max_entries) {
  if (!cfg_.hot.enabled) return 0;
  const sim::Time now = net_.now();
  popularity_.rotate_to(now);

  // (1) The hot set: cells above the scan threshold, hottest first.
  std::unordered_map<cube::CubeId, std::uint64_t> counts = popularity_.cur;
  for (const auto& [u, n] : popularity_.prev) counts[u] += n;
  std::vector<std::pair<std::uint64_t, cube::CubeId>> ranked;
  for (const auto& [u, n] : counts)
    if (n >= cfg_.hot.min_scans) ranked.emplace_back(n, u);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (ranked.size() > cfg_.hot.max_hot) ranked.resize(cfg_.hot.max_hot);
  std::unordered_set<cube::CubeId> hot;
  for (const auto& [n, u] : ranked) hot.insert(u);

  // (2) Demote cells that cooled off: drop their replica copies.
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    if (hot.contains(it->first)) {
      ++it;
      continue;
    }
    for (const sim::EndpointId h : it->second.holders) {
      const auto pit = peers_.find(h);
      if (pit != peers_.end()) pit->second.replica_tables.erase(it->first);
    }
    ++replica_demotions_;
    net_.metrics().count("kws.replica_demotion");
    it = replicas_.erase(it);
  }

  std::uint64_t copied = 0;

  // (3) Restore: a hot cell's owner died and took the primary table with
  // it — re-seed the (surrogate) owner from a surviving replica before the
  // promote pass resyncs holders from the owner.
  bool restored = false;
  for (auto& [u, rs] : replicas_) {
    std::erase_if(rs.holders, [this](sim::EndpointId h) {
      return !net_.is_registered(h);
    });
    if (rs.holders.empty() || copied >= max_entries) continue;
    const auto hit = peers_.find(rs.holders.front());
    if (hit == peers_.end()) continue;
    const auto rtit = hit->second.replica_tables.find(u);
    if (rtit == hit->second.replica_tables.end()) continue;
    const sim::EndpointId owner = peer_of(u);
    PeerState& owner_ps = peer_state(owner);
    for (const auto& [k, objects] : rtit->second.entries()) {
      if (copied >= max_entries) break;
      for (const ObjectId o : objects) {
        if (copied >= max_entries) break;
        if (const auto tit = owner_ps.tables.find(u);
            tit != owner_ps.tables.end() && tit->second.contains(k, o))
          continue;
        own_table(owner, owner_ps, u).add(k, o);
        ++copied;
        restored = true;
        net_.metrics().count("kws.replica_restore");
      }
    }
  }
  // Restored entries change what searches can see: stale traversal
  // summaries must not outlive them.
  if (restored) ++mutation_epoch_;

  // (4) Promote / resync: full-table copies from the owner onto the least
  // loaded live peers. Placement is a greedy bin-pack: each assignment
  // charges the chosen peer the cell's per-slot scan share, so one
  // replication round spreads the whole hot set instead of piling every
  // cell's replicas onto the same few idle peers (or, worse, onto the
  // owner's ring successors — a hot ring arc would just shift one arc
  // over). Already-synced holders keep their slot: placement churn would
  // re-copy tables for no load benefit. Copies are all-or-nothing per
  // holder within the budget (the first copy of a round always goes
  // through, so progress is guaranteed).
  std::map<sim::EndpointId, std::uint64_t> load_est;
  for (const dht::RingId rid : overlay_.live_ids())
    load_est.emplace(overlay_.endpoint_of(rid), 0);
  for (const auto& [u, n] : counts) {
    const auto rit = replicas_.find(u);
    const std::uint64_t slots =
        1 + (rit != replicas_.end() ? rit->second.holders.size() : 0);
    const std::uint64_t share = n / slots;
    if (const auto oit = load_est.find(peer_of(u)); oit != load_est.end())
      oit->second += share;
    if (rit != replicas_.end())
      for (const sim::EndpointId h : rit->second.holders)
        if (const auto hit2 = load_est.find(h); hit2 != load_est.end())
          hit2->second += share;
  }
  for (const auto& [n, u] : ranked) {
    const dht::RingId owner_ring = overlay_.owner_of(ring_key_of(u));
    const sim::EndpointId owner_ep = overlay_.endpoint_of(owner_ring);
    const IndexTable* src = table_of(u);
    const auto rit = replicas_.find(u);
    const std::vector<sim::EndpointId> prior =
        rit != replicas_.end() ? rit->second.holders
                               : std::vector<sim::EndpointId>{};
    const auto want = static_cast<std::size_t>(cfg_.hot.replicas);
    const std::uint64_t share =
        n / (static_cast<std::uint64_t>(cfg_.hot.replicas) + 1);
    std::vector<sim::EndpointId> holders;
    for (const sim::EndpointId ep : prior) {
      if (holders.size() >= want) break;
      if (ep == owner_ep || !net_.is_registered(ep)) continue;
      if (peers_.contains(ep) && peers_.at(ep).replica_tables.contains(u))
        holders.push_back(ep);  // synced: already charged in load_est
    }
    const auto eligible = [&](sim::EndpointId ep) {
      return ep != owner_ep &&
             std::find(holders.begin(), holders.end(), ep) == holders.end();
    };
    bool budget_hit = false;
    while (holders.size() < want && !budget_hit) {
      const auto best = std::min_element(
          load_est.begin(), load_est.end(),
          [&](const auto& a, const auto& b) {
            if (eligible(a.first) != eligible(b.first))
              return eligible(a.first);
            return a.second < b.second;  // ties: smallest endpoint id wins
          });
      if (best == load_est.end() || !eligible(best->first))
        break;  // no eligible peer left
      const sim::EndpointId ep = best->first;
      const std::size_t size = src != nullptr ? src->object_count() : 0;
      if (copied > 0 && copied + size > max_entries) {
        budget_hit = true;
        break;
      }
      PeerState& hp = peer_state(ep);
      // Full copy into a fresh table: a leftover copy from an earlier
      // holder stint would otherwise keep entries withdrawn since.
      hp.replica_tables.erase(u);
      IndexTable& dst = hp.replica_tables[u];
      if (src != nullptr)
        for (const auto& [k, objects] : src->entries())
          for (const ObjectId o : objects) dst.add(k, o);
      copied += size;
      replica_entries_copied_ += size;
      net_.metrics().count("kws.replica_entries", size);
      holders.push_back(ep);
      best->second += share == 0 ? 1 : share;
    }
    // A prior holder that lost its slot stops getting write-through
    // updates; drop its copy so it cannot serve stale scans.
    for (const sim::EndpointId ep : prior) {
      if (std::find(holders.begin(), holders.end(), ep) != holders.end())
        continue;
      const auto pit = peers_.find(ep);
      if (pit != peers_.end()) pit->second.replica_tables.erase(u);
    }
    if (holders.empty()) {
      if (rit != replicas_.end()) replicas_.erase(u);
      continue;
    }
    ReplicaSet& rs = replicas_[u];
    const bool was_replicated = !rs.holders.empty();
    rs.holders = std::move(holders);
    if (!was_replicated) {
      ++replica_promotions_;
      net_.metrics().count("kws.replica_promotion");
    }
  }

  // (5) Popularity-proportional cache sizing rides the same window.
  rebalance_caches();
  return copied;
}

std::size_t OverlayIndex::replication_backlog() const {
  if (!cfg_.hot.enabled) return 0;
  std::size_t backlog = 0;
  for (const auto& [u, rs] : replicas_) {
    const IndexTable* primary = table_of(u);
    // Entries of `from` that `in` misses.
    const auto missing = [](const IndexTable* from, const IndexTable* in) {
      std::size_t n = 0;
      if (from != nullptr)
        for (const auto& [k, objects] : from->entries())
          for (const ObjectId o : objects)
            if (in == nullptr || !in->contains(k, o)) ++n;
      return n;
    };
    for (const sim::EndpointId h : rs.holders) {
      if (!net_.is_registered(h)) continue;
      const IndexTable* rep = nullptr;
      if (const auto pit = peers_.find(h); pit != peers_.end())
        if (const auto tit = pit->second.replica_tables.find(u);
            tit != pit->second.replica_tables.end())
          rep = &tit->second;
      // Owner entries the holder still misses (resync direction) and
      // replica entries the owner misses (restore direction).
      backlog += missing(primary, rep) + missing(rep, primary);
    }
  }
  return backlog;
}

void OverlayIndex::rebalance_caches() {
  if (cfg_.cache_capacity == 0) return;
  const sim::Time now = net_.now();
  struct Slot {
    QueryCache* cache;
    std::uint64_t scans;
  };
  std::vector<Slot> slots;
  std::uint64_t total_scans = 0;
  for (auto& [ep, ps] : peers_) {
    for (auto& [u, cache] : ps.caches) {
      const std::uint64_t n = popularity_.count(now, u);
      slots.push_back(Slot{&cache, n});
      total_scans += n;
    }
  }
  if (slots.empty()) return;
  if (total_scans == 0) {
    // No popularity signal: fall back to the uniform configured size.
    for (const Slot& s : slots) s.cache->set_capacity(cfg_.cache_capacity);
    return;
  }
  // Keep the total records budget constant: every cache gets the floor,
  // the remainder is split in proportion to windowed scan counts (floor
  // rounding, so the sum never exceeds the budget).
  const std::size_t floor_each =
      std::min(kMinCacheRecords, cfg_.cache_capacity);
  const std::size_t budget = cfg_.cache_capacity * slots.size();
  const std::size_t spare = budget - floor_each * slots.size();
  for (const Slot& s : slots) {
    const std::size_t cap =
        floor_each +
        static_cast<std::size_t>(static_cast<double>(spare) *
                                 static_cast<double>(s.scans) /
                                 static_cast<double>(total_scans));
    s.cache->set_capacity(cap);
  }
}

OverlayIndex::HotCellStats OverlayIndex::hot_cell_stats() const {
  HotCellStats s;
  s.replicated_cells = replicas_.size();
  for (const auto& [u, rs] : replicas_)
    for (const sim::EndpointId h : rs.holders)
      if (net_.is_registered(h)) ++s.replica_holders;
  s.promotions = replica_promotions_;
  s.demotions = replica_demotions_;
  s.spread_visits = replica_spread_visits_;
  s.entries_copied = replica_entries_copied_;
  return s;
}

const IndexTable* OverlayIndex::table_of(cube::CubeId u) const {
  const auto pit = peers_.find(peer_of(u));
  if (pit == peers_.end()) return nullptr;
  const auto tit = pit->second.tables.find(u);
  return tit == pit->second.tables.end() ? nullptr : &tit->second;
}

std::vector<std::size_t> OverlayIndex::loads_by_cube_node() const {
  std::vector<std::size_t> loads(cube_.node_count(), 0);
  for (const auto& [ep, ps] : peers_)
    for (const auto& [u, table] : ps.tables)
      loads[static_cast<std::size_t>(u)] += table.object_count();
  return loads;
}

IndexTable::ScanStats OverlayIndex::scan_stats() const {
  IndexTable::ScanStats total;
  for (const auto& [ep, ps] : peers_)
    for (const auto& [u, table] : ps.tables) {
      const IndexTable::ScanStats& s = table.scan_stats();
      total.scans += s.scans;
      total.candidates += s.candidates;
      total.signature_rejects += s.signature_rejects;
      total.subset_checks += s.subset_checks;
      total.matches += s.matches;
      total.linear_equivalent += s.linear_equivalent;
    }
  return total;
}

void OverlayIndex::reset_scan_stats() const {
  for (const auto& [ep, ps] : peers_)
    for (const auto& [u, table] : ps.tables) table.reset_scan_stats();
}

}  // namespace hkws::index
