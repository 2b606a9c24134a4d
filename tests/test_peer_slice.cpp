// Split-overlay equivalence: ONE overlay's peers divided across transport
// instances must serve byte-for-byte the hit sequences of the all-in-process
// LogicalIndex, with the paper's cost accounting intact (PeerSlice's
// messages count is LogicalIndex's + 1, the final reply — OverlayIndex's
// done-notification convention). The TCP tests pin exact equality over a
// reliable wire; the UDP test pins result equality *through* seeded packet
// loss, with every loss conserved and attributed at the transport.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "index/logical_index.hpp"
#include "index/peer_slice.hpp"
#include "net/fault_model.hpp"
#include "net/tcp_transport.hpp"
#include "net/udp_transport.hpp"

namespace hkws::index {
namespace {

using namespace std::chrono_literals;
using net::BernoulliDrop;
using net::TcpTransport;
using net::UdpTransport;

constexpr auto kWait = 20s;  // generous; loopback settles in milliseconds

std::uint64_t counter(const net::SocketTransport& t, const std::string& key) {
  return t.metrics().counter(key);
}

/// One-shot result mailbox: the search callback fires on the transport's
/// dispatch strand, the test thread blocks here. put() notifies while it
/// holds the lock: the woken test thread may return and destroy the box as
/// soon as it can take the lock.
class ResultBox {
 public:
  void put(SearchResult r) {
    std::lock_guard<std::mutex> lock(mu_);
    result_ = std::move(r);
    cv_.notify_all();
  }
  std::optional<SearchResult> take(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, timeout, [&] { return result_.has_value(); }))
      return std::nullopt;
    return std::move(result_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<SearchResult> result_;
};

/// Counts publish/withdraw acks up to an expected total (notifying under
/// the lock, like ResultBox).
class AckLatch {
 public:
  void hit() {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    cv_.notify_all();
  }
  bool wait(std::size_t target, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return count_ >= target; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t count_ = 0;
};

/// The slice's object count, read on its transport's dispatch strand: the
/// strand owns PeerSlice's tables, and may still be writing them (a
/// retransmitted insert) when the test thread has its acks.
std::size_t local_objects(const PeerSlice& slice, net::Transport& t) {
  struct Box {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<std::size_t> count;
  };
  auto box = std::make_shared<Box>();  // outlives a timed-out wait
  t.schedule_in(0, [box, &slice] {
    std::lock_guard<std::mutex> lock(box->mu);
    box->count = slice.local_object_count();
    box->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(box->mu);
  if (!box->cv.wait_for(lock, kWait, [&] { return box->count.has_value(); }))
    ADD_FAILURE() << "the strand never ran the count";
  return box->count.value_or(0);
}

/// A deterministic corpus: keyword sets drawn from a small vocabulary so
/// superset queries have real multi-node traversals.
std::vector<std::pair<ObjectId, KeywordSet>> make_corpus(int r,
                                                         std::size_t objects,
                                                         std::uint64_t seed) {
  const std::vector<Keyword> vocab = {
      "peer",    "network", "keyword", "search", "dht",   "overlay",
      "chord",   "cube",    "index",   "query",  "table", "route"};
  Rng rng(seed);
  (void)r;
  std::vector<std::pair<ObjectId, KeywordSet>> corpus;
  corpus.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    const std::size_t n = 2 + rng.next_below(4);  // 2..5 words
    std::vector<Keyword> words;
    for (std::size_t j = 0; j < n; ++j)
      words.push_back(vocab[rng.next_below(vocab.size())]);
    corpus.emplace_back(static_cast<ObjectId>(1000 + i), KeywordSet(words));
  }
  return corpus;
}

/// Queries: subsets of corpus keyword sets (guaranteed non-empty result
/// space) plus a miss that matches nothing.
std::vector<KeywordSet> make_queries(
    const std::vector<std::pair<ObjectId, KeywordSet>>& corpus) {
  std::vector<KeywordSet> queries;
  for (std::size_t i = 0; i < corpus.size(); i += 7) {
    const auto& words = corpus[i].second.words();
    queries.emplace_back(std::vector<Keyword>{words.front()});
    if (words.size() >= 2)
      queries.emplace_back(std::vector<Keyword>{words[0], words[1]});
  }
  queries.emplace_back(std::vector<Keyword>{"nonesuch"});
  return queries;
}

/// Tells each transport where the other rank's peer endpoints live.
void cross_wire(PeerSlice& a, net::Transport& ta, std::uint16_t port_a,
                net::Transport& tb, std::uint16_t port_b) {
  for (net::EndpointId ep = 1; ep <= a.config().n_peers; ++ep) {
    if (a.rank_of(ep) == 0)
      tb.set_peer_address(ep, net::PeerAddr{"127.0.0.1", port_a});
    else
      ta.set_peer_address(ep, net::PeerAddr{"127.0.0.1", port_b});
  }
}

SearchResult run_search(PeerSlice& slice, const KeywordSet& query,
                        std::size_t threshold) {
  ResultBox box;
  slice.superset_search(query, threshold,
                        [&box](SearchResult r) { box.put(std::move(r)); });
  auto got = box.take(kWait);
  EXPECT_TRUE(got.has_value()) << "search timed out";
  return got.has_value() ? std::move(*got) : SearchResult{};
}

SearchResult run_pin(PeerSlice& slice, const KeywordSet& keywords) {
  ResultBox box;
  slice.pin_search(keywords,
                   [&box](SearchResult r) { box.put(std::move(r)); });
  auto got = box.take(kWait);
  EXPECT_TRUE(got.has_value()) << "pin search timed out";
  return got.has_value() ? std::move(*got) : SearchResult{};
}

void expect_matches_logical(const SearchResult& got,
                            const SearchResult& expected) {
  EXPECT_EQ(got.hits, expected.hits);  // byte-for-byte hit sequence
  EXPECT_EQ(got.stats.nodes_contacted, expected.stats.nodes_contacted);
  EXPECT_EQ(got.stats.rounds, expected.stats.rounds);
  // One extra message: the coordinator's final reply to the searcher.
  EXPECT_EQ(got.stats.messages, expected.stats.messages + 1);
  EXPECT_EQ(got.stats.complete, expected.stats.complete);
  EXPECT_FALSE(got.stats.failed);
}

// The ownership map is pure config: two ranks must derive identical
// node-to-peer assignments or the overlay silently shears apart.
TEST(PeerSlice, OwnershipMapAgreesAcrossRanks) {
  TcpTransport ta, tb;
  PeerSlice::Config cfg;
  cfg.r = 6;
  cfg.n_peers = 6;
  cfg.procs = 2;
  cfg.rank = 0;
  PeerSlice a(ta, cfg);
  cfg.rank = 1;
  PeerSlice b(tb, cfg);
  for (cube::CubeId u = 0; u < a.cube().node_count(); ++u) {
    EXPECT_EQ(a.peer_of(u), b.peer_of(u)) << "node " << u;
    EXPECT_GE(a.peer_of(u), 1u);
    EXPECT_LE(a.peer_of(u), cfg.n_peers);
  }
  ta.drain_and_stop(kWait);
  tb.drain_and_stop(kWait);
}

// One process owning every peer: the protocol loops every step through the
// local wire codec and must still reproduce LogicalIndex exactly.
TEST(PeerSlice, SingleProcessSliceMatchesLogicalIndex) {
  const auto corpus = make_corpus(6, 48, 0xc0ffee);
  LogicalIndex logical(LogicalIndex::Config{6, seeds::kKeywordHash, 0});
  for (const auto& [o, k] : corpus) logical.insert(o, k);

  TcpTransport t;
  PeerSlice::Config cfg;
  cfg.r = 6;
  cfg.n_peers = 4;
  cfg.procs = 1;
  cfg.rank = 0;
  PeerSlice slice(t, cfg);

  AckLatch acks;
  for (const auto& [o, k] : corpus) slice.publish(o, k, [&acks] { acks.hit(); });
  ASSERT_TRUE(acks.wait(corpus.size(), kWait));
  EXPECT_EQ(local_objects(slice, t), logical.object_count());

  for (const KeywordSet& q : make_queries(corpus)) {
    for (std::size_t threshold : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{7}}) {
      SCOPED_TRACE(q.words().front() + " t=" + std::to_string(threshold));
      expect_matches_logical(run_search(slice, q, threshold),
                             logical.superset_search(q, threshold));
    }
  }
  EXPECT_TRUE(t.drain_and_stop(kWait));
  EXPECT_EQ(t.decode_errors(), 0u);
}

// The tentpole property: peers of one overlay split across two transport
// instances (two listen sockets, two strands — process boundaries as far as
// the protocol can tell), every cross-slice step a serialized frame over
// TCP, and the hit sequences still match LogicalIndex byte-for-byte from
// searchers in BOTH slices.
TEST(PeerSlice, SplitOverlayMatchesLogicalIndexByteForByte) {
  const auto corpus = make_corpus(6, 60, 0x5eed);
  LogicalIndex logical(LogicalIndex::Config{6, seeds::kKeywordHash, 0});
  for (const auto& [o, k] : corpus) logical.insert(o, k);

  TcpTransport ta, tb;
  PeerSlice::Config cfg;
  cfg.r = 6;
  cfg.n_peers = 6;
  cfg.procs = 2;
  cfg.rank = 0;
  PeerSlice a(ta, cfg);
  cfg.rank = 1;
  PeerSlice b(tb, cfg);
  cross_wire(a, ta, ta.port(), tb, tb.port());

  AckLatch acks;
  for (const auto& [o, k] : corpus) a.publish(o, k, [&acks] { acks.hit(); });
  ASSERT_TRUE(acks.wait(corpus.size(), kWait));
  // Every object landed in exactly one slice of the overlay.
  const std::size_t in_a = local_objects(a, ta);
  const std::size_t in_b = local_objects(b, tb);
  EXPECT_EQ(in_a + in_b, logical.object_count());
  EXPECT_GT(in_a, 0u);
  EXPECT_GT(in_b, 0u);

  const auto queries = make_queries(corpus);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const KeywordSet& q = queries[qi];
    for (std::size_t threshold : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{7}}) {
      SCOPED_TRACE(q.words().front() + " t=" + std::to_string(threshold));
      // Alternate the searching slice: replies and acks must route to
      // whichever process initiated.
      PeerSlice& searcher = (qi % 2 == 0) ? a : b;
      expect_matches_logical(run_search(searcher, q, threshold),
                             logical.superset_search(q, threshold));
    }
  }

  // Pin searches: exact-match lookups against both slices.
  for (std::size_t i = 0; i < corpus.size(); i += 13) {
    PeerSlice& searcher = (i % 2 == 0) ? b : a;
    const SearchResult expected = logical.pin_search(corpus[i].second);
    const SearchResult got = run_pin(searcher, corpus[i].second);
    EXPECT_EQ(got.hits, expected.hits);
    EXPECT_EQ(got.stats.messages, expected.stats.messages);
    EXPECT_TRUE(got.stats.complete);
  }

  // Withdraw a stripe of the corpus from slice B's side and re-check: the
  // split index must track the logical one through mutation.
  AckLatch removed;
  std::size_t withdrawn = 0;
  for (std::size_t i = 0; i < corpus.size(); i += 5) {
    logical.remove(corpus[i].first, corpus[i].second);
    b.withdraw(corpus[i].first, corpus[i].second, [&removed] { removed.hit(); });
    ++withdrawn;
  }
  ASSERT_TRUE(removed.wait(withdrawn, kWait));
  EXPECT_EQ(local_objects(a, ta) + local_objects(b, tb),
            logical.object_count());
  for (std::size_t qi = 0; qi < queries.size(); qi += 3) {
    SCOPED_TRACE("post-withdraw " + queries[qi].words().front());
    expect_matches_logical(run_search(a, queries[qi], 0),
                           logical.superset_search(queries[qi], 0));
  }

  EXPECT_TRUE(ta.drain_and_stop(kWait));
  EXPECT_TRUE(tb.drain_and_stop(kWait));
  // Conservation per process over traffic it originated.
  for (const TcpTransport* t : {&ta, &tb}) {
    EXPECT_EQ(counter(*t, "net.messages"),
              counter(*t, "net.delivered") + counter(*t, "net.lost"));
    EXPECT_EQ(t->decode_errors(), 0u);
    EXPECT_GT(counter(*t, "net.remote.out"), 0u);
    EXPECT_GT(counter(*t, "net.remote.in"), 0u);
  }
}

// The loss smoke the UDP backend exists for: seeded Bernoulli drops on both
// slices, every guarded protocol step retransmitting, and the split overlay
// still returns LogicalIndex's exact results — while the transports'
// conservation identities close with every loss attributed to the drop
// model (net.dropped.fault) or the sweep (net.dropped.conn).
TEST(PeerSlice, SplitOverlaySurvivesSeededUdpLossWithRetransmission) {
  const auto corpus = make_corpus(5, 36, 0x10dad);
  LogicalIndex logical(LogicalIndex::Config{5, seeds::kKeywordHash, 0});
  for (const auto& [o, k] : corpus) logical.insert(o, k);

  UdpTransport::Config ucfg;
  UdpTransport ta(ucfg);
  UdpTransport tb(ucfg);

  PeerSlice::Config cfg;
  cfg.r = 5;
  cfg.n_peers = 5;
  cfg.procs = 2;
  cfg.step_timeout = 300;  // 30ms at the 100us tick
  cfg.max_retries = 10;
  cfg.rank = 0;
  PeerSlice a(ta, cfg);
  cfg.rank = 1;
  PeerSlice b(tb, cfg);
  cross_wire(a, ta, ta.port(), tb, tb.port());

  // Publish losslessly — on a datagram wire the index must settle before
  // queries fly (the ack barrier is the settle point).
  AckLatch acks;
  for (const auto& [o, k] : corpus) a.publish(o, k, [&acks] { acks.hit(); });
  ASSERT_TRUE(acks.wait(corpus.size(), kWait));
  EXPECT_EQ(local_objects(a, ta) + local_objects(b, tb),
            logical.object_count());

  // Arm seeded loss on both slices and search through it.
  ta.set_fault_model(std::make_unique<BernoulliDrop>(0.2), 7);
  tb.set_fault_model(std::make_unique<BernoulliDrop>(0.2), 8);
  std::size_t total_retransmits = 0;
  const auto queries = make_queries(corpus);
  for (std::size_t qi = 0; qi < queries.size(); qi += 4) {
    const KeywordSet& q = queries[qi];
    for (std::size_t threshold : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE(q.words().front() + " t=" + std::to_string(threshold));
      const SearchResult expected = logical.superset_search(q, threshold);
      const SearchResult got = run_search(qi % 2 == 0 ? a : b, q, threshold);
      EXPECT_EQ(got.hits, expected.hits);
      EXPECT_EQ(got.stats.nodes_contacted, expected.stats.nodes_contacted);
      EXPECT_EQ(got.stats.complete, expected.stats.complete);
      EXPECT_FALSE(got.stats.failed);
      total_retransmits += got.stats.retransmits;
    }
  }
  // At 20% loss over hundreds of protocol messages, a loss-free run is
  // statistically impossible — retransmission must have fired.
  EXPECT_GT(total_retransmits, 0u);

  ta.set_fault_model(nullptr);
  tb.set_fault_model(nullptr);
  ta.drain_and_stop(kWait);
  tb.drain_and_stop(kWait);
  for (const UdpTransport* t : {&ta, &tb}) {
    EXPECT_EQ(counter(*t, "net.messages"),
              counter(*t, "net.delivered") + counter(*t, "net.lost"));
    EXPECT_EQ(counter(*t, "net.lost"), counter(*t, "net.dropped.fault") +
                                           counter(*t, "net.dropped.conn"));
    EXPECT_EQ(t->decode_errors(), 0u);
  }
}

}  // namespace
}  // namespace hkws::index
