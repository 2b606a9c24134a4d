// A golden transcript of one seeded OverlayIndex run on the simulator.
//
// One sim::Network with integer UniformLatency carries two OverlayIndex
// instances over one Chord ring and DOLR:
//  * `plain`: no retransmission — the unguarded pin, contact learning, the
//    query cache and co-host coalescing;
//  * `guarded`: step timers with capped, jittered backoff, surrogate
//    failover and the guarded pin, plus hot-cell replication.
// The run goes through publish, withdraw, reindex and deindex; pins; every
// search strategy with and without a threshold on cold and warm caches;
// cumulative pages that split a node's matches; seeded loss of the
// retransmission-guarded kinds; and a peer kill followed by purge_dead,
// repair_placement(), budgeted repair_placement(n) and replica restore.
//
// Every callback's hits and SearchStats, the counters each phase moved,
// and digests of the wire send sequence and of the trace stream form one
// transcript, compared line by line with the one checked in below. The
// simulator is deterministic, so any difference is a behaviour change: a
// refactor must leave the transcript as it is, and a deliberate protocol
// change regenerates it from the failure output.
#include "index/overlay_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "net/fault_model.hpp"

namespace hkws::index {
namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFU;
    h *= kFnvPrime;
  }
}

void fold(std::uint64_t& h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  fold(h, s.size());
}

/// Drops each message of a retransmission-guarded kind with probability
/// `p`, drawing from the network's RNG; every other message passes
/// without a draw.
class GuardedLoss final : public net::FaultModel {
 public:
  explicit GuardedLoss(double p) : p_(p) {}
  net::FaultActions inspect(sim::EndpointId, sim::EndpointId,
                            const std::string& kind, std::uint64_t,
                            Rng& rng) override {
    static const std::set<std::string> kGuarded = {
        "kws.t_query",     "kws.t_cont",        "kws.t_stop",
        "kws.results",     "kws.done",          "kws.pin",
        "kws.pin_reply",   "kws.visit_batch",   "kws.batch_results",
        "kws.batch_reply"};
    if (!kGuarded.contains(kind)) return {};
    return {.drop = rng.next_bool(p_)};
  }

 private:
  double p_;
};

std::string hits_of(const SearchResult& r) {
  std::string out;
  for (const Hit& h : r.hits) {
    if (!out.empty()) out += ',';
    out += std::to_string(h.object);
  }
  return out;
}

std::string stats_of(const SearchStats& s) {
  std::ostringstream os;
  os << "n=" << s.nodes_contacted << " m=" << s.messages << " r=" << s.rounds
     << " l=" << s.levels << " ch=" << s.cache_hit << " c=" << s.complete
     << " rt=" << s.retransmits << " cb=" << s.coalesced_batches
     << " cv=" << s.coalesced_visits << " f=" << s.failed
     << " fo=" << s.failovers << " d=" << s.degraded;
  return os.str();
}

struct GoldenRun {
  static constexpr std::size_t kPeers = 24;

  sim::EventQueue clock;
  sim::Network net{clock, std::make_unique<sim::UniformLatency>(1, 9), 2026};
  dht::ChordNetwork chord = dht::ChordNetwork::build(net, kPeers, {});
  dht::Dolr dolr{chord, dht::Dolr::Config{2}};
  OverlayIndex plain{dolr, {.r = 6, .cache_capacity = 4}};
  OverlayIndex guarded{
      dolr,
      {.r = 6,
       .cache_capacity = 4,
       .step_timeout = 40,
       .max_retries = 6,
       .backoff_cap = 160,
       .backoff_jitter = 15,
       .backoff_seed = 3,
       .failover_after = 3,
       .hot = {.enabled = true,
               .replicas = 2,
               .window = 100000,
               .min_scans = 2,
               .max_hot = 4}}};

  std::vector<std::string> lines;
  std::map<std::string, std::uint64_t> seen;  ///< counters at the last phase
  std::uint64_t wire = kFnvBasis;
  std::uint64_t trace = kFnvBasis;

  GoldenRun() {
    net.set_send_observer(
        [this](const std::string& kind, const net::SendRecord& r) {
          fold(wire, kind);
          fold(wire, static_cast<std::uint64_t>(r.at));
          fold(wire, r.from);
          fold(wire, r.to);
          fold(wire, r.bytes);
          fold(wire, r.lost ? 1U : 0U);
          fold(wire, static_cast<std::uint64_t>(r.deliver_at));
        });
    for (OverlayIndex* index : {&plain, &guarded}) {
      const std::uint64_t tag = index == &plain ? 1 : 2;
      index->set_trace([this, tag](const OverlayIndex::Trace& t) {
        fold(trace, tag);
        fold(trace, t.request);
        fold(trace, t.point);
        fold(trace, t.a);
        fold(trace, t.b);
      });
    }
  }

  void log(const std::string& line) { lines.push_back(line); }

  /// Ends a phase: the counters it moved, then both digests.
  void phase(const std::string& name) {
    clock.run();
    log("== " + name + " t=" + std::to_string(clock.now()));
    for (const auto& [counter, value] : net.metrics().counters()) {
      const auto it = seen.find(counter);
      if (it != seen.end() && it->second == value) continue;
      log("  " + counter + "=" + std::to_string(value));
      seen[counter] = value;
    }
    std::ostringstream os;
    os << "  wire=" << std::hex << wire << " trace=" << trace;
    log(os.str());
  }

  OverlayIndex::SearchCallback record(const std::string& label) {
    return [this, label](const SearchResult& r) {
      log(label + " t=" + std::to_string(clock.now()) + " [" + hits_of(r) +
          "] " + stats_of(r.stats));
    };
  }

  void search(OverlayIndex& index, const std::string& label,
              const KeywordSet& q, std::size_t threshold,
              SearchStrategy strategy, sim::EndpointId from = 1) {
    index.superset_search(from, q, threshold, strategy, record(label));
    clock.run();
  }

  void pin(OverlayIndex& index, const std::string& label,
           const KeywordSet& k, sim::EndpointId from = 2) {
    index.pin_search(from, k, record(label));
    clock.run();
  }

  /// Pages a cumulative session to exhaustion, one line per page.
  void browse(OverlayIndex& index, const std::string& label,
              const KeywordSet& q, std::size_t page) {
    const std::uint64_t s = index.open_cumulative(3, q);
    for (int i = 0; i < 64 && !index.cumulative_exhausted(s); ++i) {
      index.cumulative_next(
          s, page, record(label + " p" + std::to_string(i)));
      clock.run();
    }
    index.close_cumulative(s);
  }

  void every_strategy(OverlayIndex& index, const std::string& tag,
                      const std::vector<KeywordSet>& queries) {
    const std::pair<const char*, SearchStrategy> strategies[] = {
        {"td", SearchStrategy::kTopDownSequential},
        {"bu", SearchStrategy::kBottomUpSequential},
        {"lp", SearchStrategy::kLevelParallel}};
    std::size_t q = 0;
    for (const auto& [name, strategy] : strategies) {
      for (const std::size_t threshold : {std::size_t{0}, std::size_t{3},
                                          std::size_t{1}}) {
        const KeywordSet& query = queries[q++ % queries.size()];
        for (const char* temp : {"cold", "warm"}) {
          search(index,
                 tag + " " + name + " t" + std::to_string(threshold) + " " +
                     temp + " " + query.to_string(),
                 query, threshold, strategy);
        }
      }
    }
  }
};

std::map<ObjectId, KeywordSet> corpus(ObjectId first, std::size_t n) {
  std::map<ObjectId, KeywordSet> out;
  Rng rng(41);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Keyword> words{"base"};
    const int extra = static_cast<int>(rng.next_below(4));
    for (int k = 0; k < extra; ++k)
      words.push_back("w" + std::to_string(rng.next_below(6)));
    out[first + static_cast<ObjectId>(i)] = KeywordSet(std::move(words));
  }
  return out;
}

std::vector<std::string> transcript() {
  GoldenRun g;
  const auto plain_objects = corpus(1, 36);
  const auto guarded_objects = corpus(1001, 36);
  const std::vector<KeywordSet> queries = {
      KeywordSet({"base"}),       KeywordSet({"w1"}),
      KeywordSet({"base", "w2"}), KeywordSet({"w3"}),
      KeywordSet({"w0", "base"}), KeywordSet({"w4"}),
      KeywordSet({"w5"}),         KeywordSet({"base", "w1"}),
      KeywordSet({"w2"})};

  // --- Plain index: entries, pins, searches, pages ------------------------
  std::size_t i = 0;
  for (const auto& [id, k] : plain_objects) {
    g.plain.publish(
        static_cast<sim::EndpointId>(1 + i++ % GoldenRun::kPeers), id, k,
        [&g, id](const OverlayIndex::PublishResult& r) {
          g.log("publish " + std::to_string(id) + " indexed=" +
                std::to_string(r.indexed) + " dh=" +
                std::to_string(r.dolr_hops) + " ih=" +
                std::to_string(r.index_hops));
        });
  }
  g.clock.run();
  // A second copy: the DOLR gains a reference, the index no entry.
  g.plain.publish(7, 5, plain_objects.at(5),
                  [&g](const OverlayIndex::PublishResult& r) {
                    g.log("publish copy 5 indexed=" +
                          std::to_string(r.indexed));
                  });
  g.phase("plain publish");

  g.every_strategy(g.plain, "plain", queries);
  g.phase("plain searches");

  g.pin(g.plain, "plain pin 1", plain_objects.at(1));
  g.pin(g.plain, "plain pin 9", plain_objects.at(9), 11);
  g.pin(g.plain, "plain pin absent", KeywordSet({"nope"}));
  g.browse(g.plain, "plain browse3 base", KeywordSet({"base"}), 3);
  g.browse(g.plain, "plain browse2 w1", KeywordSet({"w1"}), 2);
  g.browse(g.plain, "plain browse1 base+w2", KeywordSet({"base", "w2"}), 1);
  g.phase("plain pins and pages");

  // Withdraw the second copy (the entry stays), then last copies (it goes).
  const auto withdraw = [&g, &plain_objects](sim::EndpointId from,
                                              ObjectId id) {
    g.plain.withdraw(from, id, plain_objects.at(id),
                     [&g, id](const OverlayIndex::WithdrawResult& r) {
                       g.log("withdraw " + std::to_string(id) + " removed=" +
                             std::to_string(r.index_removed));
                     });
    g.clock.run();
  };
  withdraw(7, 5);
  withdraw(5, 5);
  withdraw(8, 8);
  g.plain.deindex(4, 12, plain_objects.at(12));
  g.clock.run();
  g.log("deindexed 12 has=" +
        std::to_string(g.plain.has_entry(plain_objects.at(12), 12)));
  g.search(g.plain, "plain after deindex", KeywordSet({"base"}), 0,
           SearchStrategy::kTopDownSequential);
  g.plain.reindex(6, 12, plain_objects.at(12));
  g.clock.run();
  g.log("reindexed 12 has=" +
        std::to_string(g.plain.has_entry(plain_objects.at(12), 12)) +
        " epoch=" + std::to_string(g.plain.mutation_epoch()));
  g.every_strategy(g.plain, "plain mutated", queries);
  // Cancel one search before its root resolves and one mid-traversal.
  g.plain.cancel(g.plain.superset_search(
      1, KeywordSet({"w4"}), 0, SearchStrategy::kTopDownSequential,
      g.record("plain cancelled early")));
  const std::uint64_t mid = g.plain.superset_search(
      1, KeywordSet({"w5"}), 0, SearchStrategy::kTopDownSequential,
      g.record("plain cancelled mid"));
  g.clock.run_until(g.clock.now() + 25);
  g.log("cancel mid=" + std::to_string(g.plain.cancel(mid)));
  g.phase("plain mutations");

  // --- Guarded index: hot cells, then seeded loss --------------------------
  i = 0;
  for (const auto& [id, k] : guarded_objects)
    g.guarded.publish(
        static_cast<sim::EndpointId>(1 + i++ % GoldenRun::kPeers), id, k);
  g.clock.run();
  g.every_strategy(g.guarded, "guarded", queries);
  const std::uint64_t replicated = g.guarded.replication_step(1000);
  g.log("replicated=" + std::to_string(replicated) + " backlog=" +
        std::to_string(g.guarded.replication_backlog()) + " cells=" +
        std::to_string(g.guarded.hot_cell_stats().replicated_cells));
  g.pin(g.guarded, "guarded pin 1001", guarded_objects.at(1001));
  g.phase("guarded warm");

  // "lossy lp t0 warm w5" never calls back, so the transcript has no line
  // for it: its root cell is hot, and the owner's one kws.t_query handing
  // the coordinator role to a replica holder is lost. That handoff has no
  // timer (why the torture hot-spot preset allows no drops).
  g.net.set_fault_model(std::make_unique<GuardedLoss>(0.2));
  g.every_strategy(g.guarded, "lossy", queries);
  for (const ObjectId id : {ObjectId{1002}, ObjectId{1003}, ObjectId{1010}})
    g.pin(g.guarded, "lossy pin " + std::to_string(id),
          guarded_objects.at(id), static_cast<sim::EndpointId>(id % 20 + 2));
  g.pin(g.guarded, "lossy pin absent", KeywordSet({"nope"}));
  g.net.set_fault_model(nullptr);
  g.phase("guarded lossy");

  // --- Churn: kill the owner of a replicated cell -------------------------
  // The lowest replicated cell whose owner is none of the searchers, so the
  // replica restore path has something to restore.
  cube::CubeId hot_cell = 0;
  sim::EndpointId victim = 0;
  g.guarded.for_each_replica_entry(
      [&](cube::CubeId u, const KeywordSet&, ObjectId, sim::EndpointId) {
        const sim::EndpointId owner = g.guarded.peer_of(u);
        if (owner > 3 && (victim == 0 || u < hot_cell)) {
          hot_cell = u;
          victim = owner;
        }
      });
  g.log("victim=" + std::to_string(victim) + " cell=" +
        std::to_string(hot_cell));
  g.chord.fail(victim);
  // Before repair: learned contacts point at the dead peer.
  g.every_strategy(g.guarded, "killed", {queries[0], queries[2]});
  g.pin(g.guarded, "killed pin 1001", guarded_objects.at(1001));
  for (int round = 0; round < 20; ++round) g.chord.stabilize_all();
  g.every_strategy(g.plain, "plain killed", {queries[0], queries[2]});
  // Joiners take over cells: placement repair has entries to move.
  for (sim::EndpointId ep = GoldenRun::kPeers + 1; ep <= GoldenRun::kPeers + 12;
       ++ep)
    g.chord.join(ep, 1);
  for (int round = 0; round < 20; ++round) g.chord.stabilize_all();
  g.plain.purge_dead();
  g.guarded.purge_dead();
  g.log("misplaced plain=" + std::to_string(g.plain.misplaced_entries()) +
        " guarded=" + std::to_string(g.guarded.misplaced_entries()));
  g.log("repair plain=" + std::to_string(g.plain.repair_placement()));
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t moved = g.guarded.repair_placement(std::size_t{3});
    g.log("repair guarded budget=3 moved=" + std::to_string(moved));
    if (moved == 0) break;
  }
  g.log("repair plain again=" + std::to_string(g.plain.repair_placement()));
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t copied = g.guarded.replication_step(4);
    g.log("replication copied=" + std::to_string(copied) + " backlog=" +
          std::to_string(g.guarded.replication_backlog()));
    if (copied == 0) break;
  }
  const OverlayIndex::HotCellStats hs = g.guarded.hot_cell_stats();
  g.log("hot cells=" + std::to_string(hs.replicated_cells) + " holders=" +
        std::to_string(hs.replica_holders) + " promotions=" +
        std::to_string(hs.promotions) + " demotions=" +
        std::to_string(hs.demotions) + " spread=" +
        std::to_string(hs.spread_visits) + " copied=" +
        std::to_string(hs.entries_copied));
  g.phase("churn repair");

  g.every_strategy(g.plain, "plain repaired", queries);
  g.every_strategy(g.guarded, "guarded repaired", queries);
  g.pin(g.plain, "plain repaired pin 1", plain_objects.at(1));
  g.pin(g.guarded, "guarded repaired pin 1001", guarded_objects.at(1001));
  g.browse(g.guarded, "guarded browse2 base", KeywordSet({"base"}), 2);
  std::size_t has = 0;
  for (const auto& [id, k] : guarded_objects) has += g.guarded.has_entry(k, id);
  g.log("guarded has_entry=" + std::to_string(has) + " epochs=" +
        std::to_string(g.plain.mutation_epoch()) + "/" +
        std::to_string(g.guarded.mutation_epoch()));
  g.phase("repaired");
  return g.lines;
}

// Generated from this run; see the header comment.
constexpr const char* kGolden[] = {
    "publish 35 indexed=1 dh=2 ih=2",
    "publish 32 indexed=1 dh=1 ih=2",
    "publish 16 indexed=1 dh=0 ih=3",
    "publish 18 indexed=1 dh=2 ih=2",
    "publish 10 indexed=1 dh=2 ih=3",
    "publish 24 indexed=1 dh=2 ih=3",
    "publish 15 indexed=1 dh=2 ih=2",
    "publish 1 indexed=1 dh=2 ih=3",
    "publish 33 indexed=1 dh=2 ih=3",
    "publish 9 indexed=1 dh=3 ih=2",
    "publish 17 indexed=1 dh=2 ih=2",
    "publish 4 indexed=1 dh=3 ih=2",
    "publish 28 indexed=1 dh=2 ih=3",
    "publish 19 indexed=1 dh=3 ih=2",
    "publish 36 indexed=1 dh=3 ih=3",
    "publish 30 indexed=1 dh=2 ih=3",
    "publish 8 indexed=1 dh=2 ih=2",
    "publish 6 indexed=1 dh=3 ih=3",
    "publish 12 indexed=1 dh=3 ih=3",
    "publish 21 indexed=1 dh=4 ih=3",
    "publish 22 indexed=1 dh=2 ih=3",
    "publish 29 indexed=1 dh=3 ih=3",
    "publish 23 indexed=1 dh=2 ih=3",
    "publish 5 indexed=1 dh=3 ih=2",
    "publish 25 indexed=1 dh=1 ih=3",
    "publish 3 indexed=1 dh=3 ih=2",
    "publish 2 indexed=1 dh=3 ih=3",
    "publish 7 indexed=1 dh=2 ih=3",
    "publish 14 indexed=1 dh=3 ih=3",
    "publish 31 indexed=1 dh=3 ih=3",
    "publish 20 indexed=1 dh=3 ih=2",
    "publish 34 indexed=1 dh=3 ih=3",
    "publish 13 indexed=1 dh=3 ih=3",
    "publish 27 indexed=1 dh=3 ih=4",
    "publish 26 indexed=1 dh=4 ih=3",
    "publish 11 indexed=1 dh=2 ih=4",
    "publish copy 5 indexed=0",
    "== plain publish t=54",
    "  msg.dolr.insert=91",
    "  msg.dolr.replicate=37",
    "  msg.kws.insert=98",
    "  net.bytes=12080",
    "  net.delivered=226",
    "  net.messages=226",
    "  wire=4d9f10fcd20989ab trace=14650fb0739d0383",
    "plain td t0 cold base t=578 [6,11,21,24,27,30,33,34,15,20,26,29,1,13,5,7,8,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=32 m=113 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain td t0 warm base t=901 [6,11,21,24,27,30,33,34,15,20,26,29,1,13,5,7,8,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain td t3 cold w1 t=998 [5,7,8] n=6 m=24 r=5 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain td t3 warm w1 t=1025 [5,7,8] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain td t1 cold base,w2 t=1057 [20] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain td t1 warm base,w2 t=1086 [20] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain bu t0 cold w3 t=1371 [15,19,29,1,31,22] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain bu t0 warm w3 t=1694 [15,19,29,1,31,22] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain bu t3 cold base,w0 t=1721 [20,26,29] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain bu t3 warm base,w0 t=1748 [20,26,29] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain bu t1 cold w4 t=2208 [19] n=26 m=94 r=25 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain bu t1 warm w4 t=2236 [19] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain lp t0 cold w5 t=2321 [32,4,9,22,14,10,16,18,28,36] n=32 m=60 r=5 l=6 ch=0 c=1 rt=0 cb=5 cv=10 f=0 fo=0 d=0",
    "plain lp t0 warm w5 t=2369 [32,4,9,22,14,10,16,18,28,36] n=3 m=11 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain lp t3 cold base,w1 t=2394 [5,7,8] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain lp t3 warm base,w1 t=2413 [5,7,8] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain lp t1 cold w2 t=2469 [20] n=6 m=26 r=1 l=2 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain lp t1 warm w2 t=2499 [20] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "== plain searches t=2499",
    "  kws.coalesced_visits=10",
    "  msg.kws.batch_reply=5",
    "  msg.kws.batch_results=1",
    "  msg.kws.done=18",
    "  msg.kws.results=31",
    "  msg.kws.t_cont=172",
    "  msg.kws.t_query=343",
    "  msg.kws.t_stop=5",
    "  msg.kws.visit_batch=5",
    "  net.bytes=54384",
    "  net.delivered=806",
    "  net.local=13",
    "  net.messages=806",
    "  wire=f821964df52efc0 trace=92cd163d729289a0",
    "plain pin 1 t=2512 [1] n=1 m=4 r=1 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain pin 9 t=2533 [4,9] n=1 m=4 r=1 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain pin absent t=2552 [] n=1 m=3 r=1 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p0 t=2571 [6,11,21] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p1 t=2582 [24,27,30] n=1 m=3 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p2 t=2594 [33,34,15] n=1 m=3 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p3 t=2634 [20,26,29] n=4 m=9 r=3 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p4 t=2676 [1,13,5] n=4 m=10 r=3 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p5 t=2702 [7,8,25] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p6 t=2720 [31,12,35] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p7 t=2745 [32,4,9] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p8 t=2763 [22,17,23] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p9 t=2784 [14,10,16] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p10 t=2882 [18,19,28] n=10 m=21 r=9 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p11 t=2906 [36,2,3] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse3 base p12 t=3083 [] n=18 m=36 r=17 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse2 w1 p0 t=3157 [5,7] n=6 m=15 r=5 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse2 w1 p1 t=3178 [8,25] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse2 w1 p2 t=3198 [31,12] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse2 w1 p3 t=3217 [35,32] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse2 w1 p4 t=3230 [4,9] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse2 w1 p5 t=3484 [2] n=27 m=55 r=26 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse1 base+w2 p0 t=3507 [20] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse1 base+w2 p1 t=3520 [26] n=1 m=3 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse1 base+w2 p2 t=3533 [29] n=1 m=3 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse1 base+w2 p3 t=3545 [13] n=1 m=3 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse1 base+w2 p4 t=3627 [18] n=5 m=19 r=4 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse1 base+w2 p5 t=3649 [2] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse1 base+w2 p6 t=3664 [3] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain browse1 base+w2 p7 t=3870 [] n=12 m=37 r=11 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "== plain pins and pages t=3870",
    "  msg.kws.c_cont=86",
    "  msg.kws.c_done=27",
    "  msg.kws.c_next=24",
    "  msg.kws.c_open=9",
    "  msg.kws.c_query=108",
    "  msg.kws.c_results=26",
    "  msg.kws.pin=8",
    "  msg.kws.pin_reply=3",
    "  net.bytes=74128",
    "  net.delivered=1097",
    "  net.local=28",
    "  net.messages=1097",
    "  wire=c6fa2cf1279ad9af trace=92cd163d729289a0",
    "withdraw 5 removed=0",
    "withdraw 5 removed=1",
    "withdraw 8 removed=1",
    "deindexed 12 has=0",
    "plain after deindex t=4271 [6,11,21,24,27,30,33,34,15,20,26,29,1,13,7,25,31,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "reindexed 12 has=1 epoch=40",
    "plain mutated td t0 cold base t=4565 [6,11,21,24,27,30,33,34,15,20,26,29,1,13,7,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated td t0 warm base t=4888 [6,11,21,24,27,30,33,34,15,20,26,29,1,13,7,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated td t3 cold w1 t=4959 [7,25,31] n=6 m=16 r=5 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated td t3 warm w1 t=5003 [7,25,31] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated td t1 cold base,w2 t=5013 [20] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated td t1 warm base,w2 t=5041 [20] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated bu t0 cold w3 t=5371 [15,19,29,1,31,22] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated bu t0 warm w3 t=5736 [15,19,29,1,31,22] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated bu t3 cold base,w0 t=5770 [20,26,29] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated bu t3 warm base,w0 t=5793 [20,26,29] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated bu t1 cold w4 t=6072 [19] n=26 m=56 r=25 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated bu t1 warm w4 t=6099 [19] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated lp t0 cold w5 t=6176 [32,4,9,22,14,10,16,18,28,36] n=32 m=59 r=5 l=6 ch=0 c=1 rt=0 cb=5 cv=10 f=0 fo=0 d=0",
    "plain mutated lp t0 warm w5 t=6221 [32,4,9,22,14,10,16,18,28,36] n=3 m=11 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated lp t3 cold base,w1 t=6240 [7,25,31] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated lp t3 warm base,w1 t=6266 [7,25,31] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain mutated lp t1 cold w2 t=6312 [20] n=6 m=14 r=1 l=2 ch=0 c=0 rt=0 cb=1 cv=2 f=0 fo=0 d=0",
    "plain mutated lp t1 warm w2 t=6348 [20] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "cancel mid=1",
    "== plain mutations t=6376",
    "  kws.cancelled=2",
    "  kws.coalesced_visits=22",
    "  msg.dolr.delete=8",
    "  msg.dolr.unreplicate=3",
    "  msg.kws.batch_reply=11",
    "  msg.kws.batch_results=2",
    "  msg.kws.delete=6",
    "  msg.kws.done=37",
    "  msg.kws.insert=101",
    "  msg.kws.results=66",
    "  msg.kws.t_cont=372",
    "  msg.kws.t_query=620",
    "  msg.kws.t_stop=10",
    "  msg.kws.visit_batch=11",
    "  net.bytes=116620",
    "  net.delivered=1666",
    "  net.local=46",
    "  net.messages=1666",
    "  wire=cd48237c89ec9d0d trace=e8c913a0c3dea19c",
    "guarded td t0 cold base t=7003 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1020,1026,1029,1001,1013,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=32 m=113 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded td t0 warm base t=7309 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1020,1026,1029,1001,1013,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded td t3 cold w1 t=7401 [1005,1007,1008] n=6 m=24 r=5 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded td t3 warm w1 t=7441 [1005,1007,1008] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded td t1 cold base,w2 t=7465 [1020] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded td t1 warm base,w2 t=7494 [1020] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded bu t0 cold w3 t=7782 [1015,1019,1029,1001,1031,1022] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded bu t0 warm w3 t=8110 [1015,1019,1029,1001,1031,1022] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded bu t3 cold base,w0 t=8140 [1020,1026,1029] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded bu t3 warm base,w0 t=8172 [1020,1026,1029] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded bu t1 cold w4 t=8600 [1019] n=26 m=94 r=25 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded bu t1 warm w4 t=8636 [1019] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded lp t0 cold w5 t=8723 [1032,1004,1009,1022,1014,1010,1016,1018,1028,1036] n=32 m=60 r=5 l=6 ch=0 c=1 rt=0 cb=5 cv=10 f=0 fo=0 d=0",
    "guarded lp t0 warm w5 t=8775 [1032,1004,1009,1022,1014,1010,1016,1018,1028,1036] n=3 m=11 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded lp t3 cold base,w1 t=8804 [1005,1007,1008] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded lp t3 warm base,w1 t=8820 [1005,1007,1008] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded lp t1 cold w2 t=8876 [1020] n=6 m=26 r=1 l=2 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded lp t1 warm w2 t=8925 [1020] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "replicated=54 backlog=0 cells=4",
    "guarded pin 1001 t=8949 [1001] n=1 m=4 r=1 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "== guarded warm t=8949",
    "  kws.coalesced_visits=32",
    "  kws.replica_entries=54",
    "  kws.replica_promotion=4",
    "  msg.dolr.insert=183",
    "  msg.dolr.replicate=73",
    "  msg.kws.batch_reply=16",
    "  msg.kws.batch_results=3",
    "  msg.kws.done=55",
    "  msg.kws.insert=193",
    "  msg.kws.pin=11",
    "  msg.kws.pin_reply=4",
    "  msg.kws.results=97",
    "  msg.kws.t_cont=544",
    "  msg.kws.t_query=963",
    "  msg.kws.t_stop=15",
    "  msg.kws.visit_batch=16",
    "  net.bytes=170908",
    "  net.delivered=2470",
    "  net.local=59",
    "  net.messages=2470",
    "  wire=5d4ba4953ecea658 trace=b5ab184832f18633",
    "lossy td t0 cold base t=11112 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1020,1026,1029,1001,1013,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=32 m=93 r=31 l=0 ch=0 c=1 rt=24 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy td t0 warm base t=12834 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1020,1026,1029,1001,1013,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=32 m=94 r=31 l=0 ch=0 c=1 rt=18 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy td t3 cold w1 t=12872 [1005,1007,1008] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy td t3 warm w1 t=13427 [1005,1007,1008] n=6 m=30 r=5 l=0 ch=0 c=0 rt=5 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy td t1 cold base,w2 t=13451 [1020] n=1 m=7 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy td t1 warm base,w2 t=13510 [1020] n=1 m=6 r=0 l=0 ch=0 c=0 rt=1 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy bu t0 cold w3 t=15748 [1015,1019,1029,1001,1031,1022] n=32 m=109 r=31 l=0 ch=0 c=1 rt=25 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy bu t0 warm w3 t=16882 [1015,1019,1029,1001,1031,1022] n=32 m=86 r=31 l=0 ch=0 c=1 rt=12 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy bu t3 cold base,w0 t=17026 [1020,1026,1029] n=1 m=8 r=0 l=0 ch=0 c=0 rt=2 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy bu t3 warm base,w0 t=17043 [1020,1026,1029] n=1 m=7 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy bu t1 cold w4 t=19620 [1019] n=26 m=106 r=25 l=0 ch=0 c=0 rt=25 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy bu t1 warm w4 t=19826 [1019] n=2 m=9 r=1 l=0 ch=1 c=0 rt=3 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy lp t0 cold w5 t=20891 [1032,1004,1009,1022,1014,1010,1016,1018,1028,1036] n=32 m=106 r=5 l=6 ch=0 c=1 rt=27 cb=4 cv=8 f=0 fo=1 d=1",
    "lossy lp t3 cold base,w1 t=21021 [1005,1007,1008] n=1 m=7 r=0 l=0 ch=0 c=0 rt=1 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy lp t3 warm base,w1 t=21085 [1005,1007,1008] n=1 m=5 r=0 l=0 ch=0 c=0 rt=1 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy lp t1 cold w2 t=21249 [1020] n=2 m=10 r=1 l=0 ch=1 c=0 rt=2 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy lp t1 warm w2 t=22216 [] n=0 m=0 r=0 l=0 ch=0 c=0 rt=6 cb=0 cv=0 f=1 fo=0 d=0",
    "lossy pin 1002 t=22359 [1002] n=1 m=5 r=1 l=0 ch=0 c=1 rt=2 cb=0 cv=0 f=0 fo=2 d=1",
    "lossy pin 1003 t=22368 [1003] n=1 m=2 r=1 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "lossy pin 1010 t=22426 [1010,1016] n=1 m=3 r=1 l=0 ch=0 c=1 rt=1 cb=0 cv=0 f=0 fo=1 d=1",
    "lossy pin absent t=22479 [] n=1 m=3 r=1 l=0 ch=0 c=1 rt=1 cb=0 cv=0 f=0 fo=1 d=1",
    "== guarded lossy t=22479",
    "  kws.coalesced_visits=40",
    "  kws.failover=1",
    "  kws.replica_spread=26",
    "  kws.request_failed=1",
    "  kws.retransmit=157",
    "  msg.kws.batch_reply=18",
    "  msg.kws.done=75",
    "  msg.kws.pin=24",
    "  msg.kws.pin_reply=9",
    "  msg.kws.results=129",
    "  msg.kws.t_cont=756",
    "  msg.kws.t_query=1484",
    "  msg.kws.t_stop=20",
    "  msg.kws.visit_batch=20",
    "  net.bytes=230000",
    "  net.delivered=3120",
    "  net.dropped.fault=164",
    "  net.local=71",
    "  net.lost=164",
    "  net.lost.kws.done=5",
    "  net.lost.kws.pin=3",
    "  net.lost.kws.pin_reply=1",
    "  net.lost.kws.results=5",
    "  net.lost.kws.t_cont=37",
    "  net.lost.kws.t_query=111",
    "  net.lost.kws.visit_batch=2",
    "  net.messages=3284",
    "  wire=b98ab130743c091 trace=a0cf5fd81479a89e",
    "victim=7 cell=20",
    "killed td t0 cold base t=22828 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=32 m=76 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=4 d=1",
    "killed td t0 warm base t=22864 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=3 m=10 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed td t3 cold base,w2 t=22894 [1020,1026,1029] n=1 m=7 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed td t3 warm base,w2 t=22925 [1020,1026,1029] n=1 m=7 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed td t1 cold base t=22940 [1006] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed td t1 warm base t=22954 [1006] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed bu t0 cold base,w2 t=23247 [1018,1002,1003] n=16 m=65 r=15 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed bu t0 warm base,w2 t=23560 [1020,1026,1029,1013,1018,1002,1003] n=16 m=66 r=15 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed bu t3 cold base t=23578 [1006,1011,1021] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed bu t3 warm base t=23597 [1006,1011,1021] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed bu t1 cold base,w2 t=23633 [1020] n=1 m=7 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed bu t1 warm base,w2 t=23676 [1018] n=2 m=8 r=1 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed lp t0 cold base t=23758 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1020,1026,1029,1001,1013,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=32 m=57 r=5 l=6 ch=0 c=1 rt=0 cb=6 cv=12 f=0 fo=0 d=0",
    "killed lp t0 warm base t=23835 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1020,1026,1029,1001,1013,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=32 m=57 r=5 l=6 ch=0 c=1 rt=0 cb=6 cv=12 f=0 fo=0 d=0",
    "killed lp t3 cold base,w2 t=23876 [1018,1002,1003] n=2 m=8 r=1 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed lp t3 warm base,w2 t=23893 [1020,1026,1029] n=1 m=7 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed lp t1 cold base t=23910 [1006] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed lp t1 warm base t=23923 [1006] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "killed pin 1001 t=23944 [] n=1 m=4 r=1 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed td t0 cold base t=24288 [6,11,21,24,27,30,33,34,15,7,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=32 m=76 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=4 d=1",
    "plain killed td t0 warm base t=24323 [6,11,21,24,27,30,33,34,15,7,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=3 m=10 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed td t3 cold base,w2 t=24434 [18,2,3] n=5 m=22 r=4 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed td t3 warm base,w2 t=24468 [18,2,3] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed td t1 cold base t=24480 [6] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed td t1 warm base t=24504 [6] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed bu t0 cold base,w2 t=24717 [18,2,3] n=16 m=47 r=15 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed bu t0 warm base,w2 t=24734 [18,2,3] n=2 m=8 r=1 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed bu t3 cold base t=24750 [6,11,21] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed bu t3 warm base t=24770 [6,11,21] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed bu t1 cold base,w2 t=24801 [18] n=2 m=8 r=1 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed bu t1 warm base,w2 t=24836 [18] n=2 m=8 r=1 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed lp t0 cold base t=24917 [6,11,21,24,27,30,33,34,15,7,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=32 m=54 r=5 l=6 ch=0 c=1 rt=0 cb=7 cv=14 f=0 fo=0 d=0",
    "plain killed lp t0 warm base t=24951 [6,11,21,24,27,30,33,34,15,7,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=3 m=10 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed lp t3 cold base,w2 t=24993 [18,2,3] n=2 m=8 r=1 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed lp t3 warm base,w2 t=25030 [18,2,3] n=2 m=8 r=1 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed lp t1 cold base t=25041 [6] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain killed lp t1 warm base t=25064 [6] n=1 m=4 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "misplaced plain=14 guarded=16",
    "repair plain=14",
    "repair guarded budget=3 moved=3",
    "repair guarded budget=3 moved=3",
    "repair guarded budget=3 moved=3",
    "repair guarded budget=3 moved=3",
    "repair guarded budget=3 moved=3",
    "repair guarded budget=3 moved=1",
    "repair guarded budget=3 moved=0",
    "repair plain again=0",
    "replication copied=4 backlog=2",
    "replication copied=1 backlog=0",
    "replication copied=9 backlog=0",
    "replication copied=9 backlog=0",
    "replication copied=0 backlog=0",
    "hot cells=4 holders=8 promotions=5 demotions=1 spread=41 copied=72",
    "== churn repair t=25064",
    "  dht.failures=1",
    "  dht.maintenance.msgs=4980",
    "  dht.stabilize_rounds=40",
    "  kws.coalesced_visits=78",
    "  kws.entries_lost=10",
    "  kws.failover=9",
    "  kws.repair_entries=30",
    "  kws.replica_demotion=1",
    "  kws.replica_entries=72",
    "  kws.replica_promotion=5",
    "  kws.replica_restore=5",
    "  kws.replica_spread=41",
    "  msg.dht.fix_finger=1881",
    "  msg.dht.join=42",
    "  msg.kws.batch_reply=37",
    "  msg.kws.batch_results=7",
    "  msg.kws.done=108",
    "  msg.kws.pin=27",
    "  msg.kws.pin_reply=10",
    "  msg.kws.results=176",
    "  msg.kws.t_cont=917",
    "  msg.kws.t_query=1860",
    "  msg.kws.t_stop=28",
    "  msg.kws.visit_batch=39",
    "  net.bytes=286396",
    "  net.delivered=3791",
    "  net.local=94",
    "  net.messages=5878",
    "  wire=46972f9164274e00 trace=ef9667f08e518c54",
    "plain repaired td t0 cold base t=25654 [6,11,21,24,27,30,33,34,15,7,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=32 m=120 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired td t0 warm base t=25690 [6,11,21,24,27,30,33,34,15,7,25,31,12,35,32,4,9,22,17,23,14,10,16,18,19,28,36,2,3] n=3 m=10 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired td t3 cold w1 t=25859 [7,25,31] n=6 m=29 r=5 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired td t3 warm w1 t=25908 [7,25,31] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired td t1 cold base,w2 t=26018 [18] n=5 m=24 r=4 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired td t1 warm base,w2 t=26048 [18] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired bu t0 cold w3 t=26375 [15,19,31,22] n=32 m=68 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired bu t0 warm w3 t=26416 [15,19,31,22] n=3 m=10 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired bu t3 cold base,w0 t=26651 [18,19,28] n=16 m=55 r=15 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired bu t3 warm base,w0 t=26700 [18,19,28] n=2 m=8 r=1 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired bu t1 cold w4 t=27208 [19] n=26 m=105 r=25 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired bu t1 warm w4 t=27237 [19] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired lp t0 cold w5 t=27328 [32,4,9,22,14,10,16,18,28,36] n=32 m=64 r=5 l=6 ch=0 c=1 rt=0 cb=3 cv=6 f=0 fo=0 d=0",
    "plain repaired lp t0 warm w5 t=27381 [32,4,9,22,14,10,16,18,28,36] n=3 m=11 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired lp t3 cold base,w1 t=27407 [7,25,31] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired lp t3 warm base,w1 t=27428 [7,25,31] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired lp t1 cold w2 t=27510 [18] n=16 m=67 r=2 l=3 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired lp t1 warm w2 t=27541 [18] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired td t0 cold base t=28078 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1020,1026,1029,1001,1013,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=32 m=114 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired td t0 warm base t=28713 [1006,1011,1021,1024,1027,1030,1033,1034,1015,1020,1026,1029,1001,1013,1005,1007,1008,1025,1031,1012,1035,1032,1004,1009,1022,1017,1023,1014,1010,1016,1018,1019,1028,1036,1002,1003] n=32 m=124 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired td t3 cold w1 t=28821 [1005,1007,1008] n=6 m=26 r=5 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired td t3 warm w1 t=28858 [1005,1007,1008] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired td t1 cold base,w2 t=28881 [1020] n=1 m=7 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired td t1 warm base,w2 t=28918 [1020] n=1 m=7 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired bu t0 cold w3 t=29558 [1015,1019,1029,1001,1031,1022] n=32 m=129 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired bu t0 warm w3 t=29882 [1015,1019,1029,1001,1031,1022] n=32 m=69 r=31 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired bu t3 cold base,w0 t=29914 [1020,1026,1029] n=1 m=7 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired bu t3 warm base,w0 t=29950 [1020,1026,1029] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired bu t1 cold w4 t=30490 [1019] n=26 m=105 r=25 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired bu t1 warm w4 t=30534 [1019] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired lp t0 cold w5 t=30628 [1032,1004,1009,1022,1014,1010,1016,1018,1028,1036] n=32 m=64 r=5 l=6 ch=0 c=1 rt=0 cb=3 cv=6 f=0 fo=0 d=0",
    "guarded repaired lp t0 warm w5 t=30689 [1032,1004,1009,1022,1014,1010,1016,1018,1028,1036] n=3 m=14 r=2 l=0 ch=1 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired lp t3 cold base,w1 t=30714 [1005,1007,1008] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired lp t3 warm base,w1 t=30743 [1005,1007,1008] n=1 m=6 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired lp t1 cold w2 t=30802 [1020] n=6 m=23 r=1 l=2 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired lp t1 warm w2 t=30834 [1020] n=2 m=8 r=1 l=0 ch=1 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "plain repaired pin 1 t=30860 [] n=1 m=5 r=1 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded repaired pin 1001 t=30883 [1001] n=1 m=5 r=1 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p0 t=30904 [1006,1011] n=1 m=5 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p1 t=30915 [1021,1024] n=1 m=3 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p2 t=30929 [1027,1030] n=1 m=3 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p3 t=30939 [1033,1034] n=1 m=3 r=0 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p4 t=30991 [1015,1020] n=4 m=13 r=3 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p5 t=31001 [1026,1029] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p6 t=31019 [1001,1013] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p7 t=31053 [1005,1007] n=3 m=9 r=2 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p8 t=31070 [1008,1025] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p9 t=31093 [1031,1012] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p10 t=31113 [1035,1032] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p11 t=31134 [1004,1009] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p12 t=31147 [1022,1017] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p13 t=31166 [1023,1014] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p14 t=31189 [1010,1016] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p15 t=31294 [1018,1019] n=10 m=23 r=9 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p16 t=31316 [1028,1036] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p17 t=31338 [1002,1003] n=2 m=5 r=1 l=0 ch=0 c=0 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded browse2 base p18 t=31505 [] n=18 m=36 r=17 l=0 ch=0 c=1 rt=0 cb=0 cv=0 f=0 fo=0 d=0",
    "guarded has_entry=36 epochs=42/45",
    "== repaired t=31505",
    "  kws.coalesced_visits=90",
    "  kws.replica_spread=62",
    "  msg.kws.batch_reply=43",
    "  msg.kws.c_cont=127",
    "  msg.kws.c_done=46",
    "  msg.kws.c_next=42",
    "  msg.kws.c_open=12",
    "  msg.kws.c_query=156",
    "  msg.kws.c_results=45",
    "  msg.kws.done=143",
    "  msg.kws.pin=35",
    "  msg.kws.pin_reply=12",
    "  msg.kws.results=233",
    "  msg.kws.t_cont=1246",
    "  msg.kws.t_query=2741",
    "  msg.kws.t_stop=42",
    "  msg.kws.visit_batch=45",
    "  net.bytes=391904",
    "  net.delivered=5277",
    "  net.local=117",
    "  net.messages=7364",
    "  wire=f4b760875b72aec9 trace=82e140fae10a6697",
};

TEST(OverlayGolden, SeededRunMatchesItsCheckedInTranscript) {
  const std::vector<std::string> got = transcript();
  const std::vector<std::string> want(std::begin(kGolden), std::end(kGolden));
  bool same = got.size() == want.size();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i], want[i]) << "transcript line " << i;
    same = same && got[i] == want[i];
  }
  EXPECT_EQ(got.size(), want.size());
  if (!same) {
    std::string dump;
    for (const std::string& line : got) dump += "    \"" + line + "\",\n";
    ADD_FAILURE() << "the run's transcript:\n" << dump;
  }
}

}  // namespace
}  // namespace hkws::index
