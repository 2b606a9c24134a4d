// The per-node index table Tbl_u of paper §3.3: entries <keyword_set,
// object_id>, with same-set entries combined into <K, {sigma_1..sigma_n}>.
// A node u holds entries only for keyword sets K with F_h(K) = u (the set
// R_u); the table itself doesn't enforce that — placement is the business
// of the index services that own tables.
//
// Superset lookups are signature-indexed. Every keyword hashes once into a
// 64-bit posting key, `hash_bytes(w, seeds::kSignature)`, whose low 6 bits
// pick the keyword's bit in a 64-bit Bloom-style entry signature. A
// per-key posting list holds every entry containing the keyword. A query
// scans only the smallest posting list among its keywords and rejects
// non-supersets with one `(sig_q & ~sig_k)` test before falling back to the
// exact subset check. Two distinct keywords whose keys collide only share
// a posting list; the exact check keeps answers exact.
//
// A search scans one table per visited node with the same query, so the
// query is prepared once (`IndexTable::Query`: its keys and signature) and
// every scan reuses it. Before any posting lookup, a scan consults a
// 1 024-bit keyword presence filter kept inside the table object: two bits
// per posting key ever added, never cleared on remove (a stale bit only
// costs the posting lookup it would have cost anyway). A query key missing
// from the filter proves the scan empty, which settles most visits of a
// level-parallel search without leaving the table object.
//
// The key→posting map is a flat hash table (postings are never iterated
// across keywords), and each posting carries the entry's signature inline
// so the hot rejection loop touches no other table. Posting lists are
// ordered by keyword-set value, so iteration order is identical to a full
// scan of the underlying std::map — callers (result batching, cumulative
// sessions, the torture oracle) rely on that order.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/keyword.hpp"

namespace hkws::index {

/// One match produced by a table lookup: an object and the full keyword
/// set it is indexed under (needed for ranking by extra keywords).
struct Hit {
  ObjectId object = kInvalidObject;
  KeywordSet keywords;

  bool operator==(const Hit&) const = default;
};

class IndexTable {
 public:
  /// A superset query prepared for scanning: the keyword set plus each
  /// keyword's posting key and the set's signature, hashed once. A search
  /// prepares one per request and scans every visited table with it.
  class Query {
   public:
    Query() = default;
    explicit Query(KeywordSet keywords);

    const KeywordSet& keywords() const noexcept { return keywords_; }

   private:
    friend class IndexTable;
    KeywordSet keywords_;
    std::vector<std::uint64_t> keys_;  ///< posting key per keyword, in order
    std::uint64_t signature_ = 0;      ///< OR of the keys' signature bits
  };

  /// Cumulative work counters for superset scans, for measuring what the
  /// signature index saves against the linear baseline (`linear_equivalent`
  /// accumulates entry_count() per scan — the entries a full scan would
  /// have touched). Mutable bookkeeping; lookups stay logically const.
  struct ScanStats {
    std::uint64_t scans = 0;              ///< for_each_superset calls
    std::uint64_t candidates = 0;         ///< posting-list entries examined
    std::uint64_t signature_rejects = 0;  ///< cut by (sig_q & ~sig_k) != 0
    std::uint64_t subset_checks = 0;      ///< exact subset_of evaluations
    std::uint64_t matches = 0;            ///< entries delivered to callers
    std::uint64_t linear_equivalent = 0;  ///< entries a linear scan would touch

    bool operator==(const ScanStats&) const = default;
  };

  IndexTable() = default;
  // Postings hold iterators into entries_: a moved table keeps them valid,
  // a member-wise copy would point into the source.
  IndexTable(const IndexTable&) = delete;
  IndexTable& operator=(const IndexTable&) = delete;
  IndexTable(IndexTable&&) noexcept = default;
  IndexTable& operator=(IndexTable&&) noexcept = default;

  /// Receives one matching entry; returning false stops the scan.
  using Visitor =
      std::function<bool(const KeywordSet&, const std::set<ObjectId>&)>;

  /// Adds <keywords, object>. Returns false if it was already present.
  bool add(const KeywordSet& keywords, ObjectId object);

  /// Removes <keywords, object>. Returns false if absent.
  bool remove(const KeywordSet& keywords, ObjectId object);

  /// Objects indexed under exactly `keywords` (pin-search payload).
  std::vector<ObjectId> exact(const KeywordSet& keywords) const;

  /// Whether <keywords, object> is indexed here.
  bool contains(const KeywordSet& keywords, ObjectId object) const;

  /// Invokes fn(K', objects) for every entry whose keyword set contains
  /// the query (K' ⊇ query), in keyword-set order; stops early if fn
  /// returns false. This is the per-node scan of the superset-search
  /// protocol.
  void for_each_superset(const Query& query, const Visitor& fn) const;

  /// Prepares `query` and scans with it.
  void for_each_superset(const KeywordSet& query, const Visitor& fn) const;

  /// The pre-signature linear scan over every entry. Kept as the reference
  /// implementation: differential tests pin for_each_superset to it, and
  /// bench/search_perf uses it as the scan-work baseline. Same contract
  /// and iteration order as for_each_superset.
  void for_each_superset_linear(const KeywordSet& query,
                                const Visitor& fn) const;

  /// Flattened superset matches, at most `limit` objects (no limit if 0).
  /// If `truncated` is non-null, it is set to true iff at least one
  /// matching object was cut off by `limit` — including the silent case
  /// where the cut lands mid-way through one entry's object set.
  std::vector<Hit> supersets(const KeywordSet& query, std::size_t limit = 0,
                             bool* truncated = nullptr) const;

  /// Append-into variant of supersets(): fills `out` (cleared first)
  /// instead of allocating a fresh vector, so per-query scan buffers can be
  /// pooled by the caller. Same contract otherwise.
  void supersets_into(const Query& query, std::size_t limit, bool* truncated,
                      std::vector<Hit>& out) const;

  /// Number of distinct <K, object> pairs (the paper's "index size" unit).
  std::size_t object_count() const noexcept { return objects_; }

  /// Number of combined entries <K, {objects}>.
  std::size_t entry_count() const noexcept { return entries_.size(); }

  bool empty() const noexcept { return entries_.empty(); }

  const std::map<KeywordSet, std::set<ObjectId>>& entries() const noexcept {
    return entries_;
  }

  const ScanStats& scan_stats() const noexcept { return scan_; }
  void reset_scan_stats() const noexcept { scan_ = {}; }

 private:
  using EntryMap = std::map<KeywordSet, std::set<ObjectId>>;

  /// One posting: an iterator into entries_ (stable in std::map) plus the
  /// entry's keyword signature, duplicated here so the scan loop reads it
  /// inline instead of chasing a side table per candidate.
  struct Posting {
    EntryMap::const_iterator it;
    std::uint64_t sig = 0;
  };

  /// Postings are ordered by the entry's keyword set so posting-list
  /// iteration matches full-map iteration order. The signature is payload,
  /// not key: lookups may pass a dummy.
  struct ByKeywordSet {
    bool operator()(const Posting& a, const Posting& b) const {
      return a.it->first < b.it->first;
    }
  };
  using PostingList = std::set<Posting, ByKeywordSet>;

  static constexpr std::size_t kFilterBits = 1024;

  /// Appends each keyword's posting key, `hash_bytes(w,
  /// seeds::kSignature)`, to `keys` in set order and returns the set's
  /// signature: the OR of the keys' signature bits.
  static std::uint64_t hash_keywords(const KeywordSet& keywords,
                                     std::vector<std::uint64_t>& keys);

  /// Signature bit of one posting key: its low 6 bits. The signature of a
  /// set — the OR of its keywords' bits — is monotone under inclusion:
  /// A ⊆ B implies sig(A) ⊆ sig(B), so `(sig_q & ~sig_k) != 0` disproves
  /// containment with one AND, and collisions only cost a redundant exact
  /// check.
  static std::uint64_t signature_bit(std::uint64_t key) noexcept {
    return 1ULL << (key & 63U);
  }

  /// The filter's two bit positions for `key`, taken from bits above the
  /// signature's six.
  static std::array<std::size_t, 2> filter_bits(std::uint64_t key) noexcept {
    return {static_cast<std::size_t>(key >> 6) % kFilterBits,
            static_cast<std::size_t>(key >> 32) % kFilterBits};
  }

  void filter_note(std::uint64_t key) noexcept;
  bool filter_may_hold(std::uint64_t key) const noexcept;

  /// The one superset scan behind every entry point.
  template <typename Fn>
  void scan(const Query& query, Fn&& fn) const;

  EntryMap entries_;
  std::unordered_map<std::uint64_t, PostingList> postings_;
  std::size_t objects_ = 0;
  mutable ScanStats scan_;
  std::array<std::uint64_t, kFilterBits / 64> filter_{};
};

}  // namespace hkws::index
