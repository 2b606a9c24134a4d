#include "index/index_table.hpp"

namespace hkws::index {

IndexTable::Query::Query(KeywordSet keywords)
    : keywords_(std::move(keywords)),
      signature_(hash_keywords(keywords_, keys_)) {}

std::uint64_t IndexTable::hash_keywords(const KeywordSet& keywords,
                                        std::vector<std::uint64_t>& keys) {
  keys.reserve(keys.size() + keywords.size());
  std::uint64_t sig = 0;
  for (const Keyword& w : keywords) {
    const std::uint64_t key = hash_bytes(w, seeds::kSignature);
    keys.push_back(key);
    sig |= signature_bit(key);
  }
  return sig;
}

void IndexTable::filter_note(std::uint64_t key) noexcept {
  for (const std::size_t bit : filter_bits(key))
    filter_[bit / 64] |= 1ULL << (bit % 64);
}

bool IndexTable::filter_may_hold(std::uint64_t key) const noexcept {
  for (const std::size_t bit : filter_bits(key))
    if ((filter_[bit / 64] & (1ULL << (bit % 64))) == 0) return false;
  return true;
}

bool IndexTable::add(const KeywordSet& keywords, ObjectId object) {
  const auto [it, fresh] = entries_.try_emplace(keywords);
  const bool inserted = it->second.insert(object).second;
  if (inserted) ++objects_;
  if (fresh) {
    std::vector<std::uint64_t> keys;
    const std::uint64_t sig = hash_keywords(keywords, keys);
    for (const std::uint64_t key : keys) {
      filter_note(key);
      postings_[key].insert(Posting{it, sig});
    }
  }
  return inserted;
}

bool IndexTable::remove(const KeywordSet& keywords, ObjectId object) {
  const auto it = entries_.find(keywords);
  if (it == entries_.end()) return false;
  if (it->second.erase(object) == 0) return false;
  --objects_;
  if (it->second.empty()) {
    // The filter keeps the entry's bits: it is never cleared.
    for (const Keyword& w : it->first) {
      const auto pit = postings_.find(hash_bytes(w, seeds::kSignature));
      if (pit == postings_.end()) continue;  // a colliding key, already gone
      pit->second.erase(Posting{it, 0});  // ordered by keyword set; sig unused
      if (pit->second.empty()) postings_.erase(pit);
    }
    entries_.erase(it);
  }
  return true;
}

std::vector<ObjectId> IndexTable::exact(const KeywordSet& keywords) const {
  const auto it = entries_.find(keywords);
  if (it == entries_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

bool IndexTable::contains(const KeywordSet& keywords, ObjectId object) const {
  const auto it = entries_.find(keywords);
  return it != entries_.end() && it->second.contains(object);
}

template <typename Fn>
void IndexTable::scan(const Query& query, Fn&& fn) const {
  ++scan_.scans;
  scan_.linear_equivalent += entries_.size();

  // The empty query matches every entry; there is no posting list to
  // intersect, so walk the map directly (same order either way).
  if (query.keys_.empty()) {
    for (const auto& [k, objects] : entries_) {
      ++scan_.candidates;
      ++scan_.matches;
      if (!fn(k, objects)) return;
    }
    return;
  }

  // A query keyword nobody indexes means no supersets at all. The filter
  // proves most such misses without touching the posting map.
  for (const std::uint64_t key : query.keys_)
    if (!filter_may_hold(key)) return;

  // Every superset entry appears on each query keyword's posting list, so
  // it suffices to scan the smallest one.
  const PostingList* smallest = nullptr;
  for (const std::uint64_t key : query.keys_) {
    const auto pit = postings_.find(key);
    if (pit == postings_.end()) return;
    if (smallest == nullptr || pit->second.size() < smallest->size())
      smallest = &pit->second;
  }

  const KeywordSet& words = query.keywords_;
  for (const Posting& p : *smallest) {
    ++scan_.candidates;
    if ((query.signature_ & ~p.sig) != 0) {
      ++scan_.signature_rejects;
      continue;
    }
    if (p.it->first.size() < words.size()) continue;
    ++scan_.subset_checks;
    if (!words.subset_of(p.it->first)) continue;
    ++scan_.matches;
    if (!fn(p.it->first, p.it->second)) return;
  }
}

void IndexTable::for_each_superset(const Query& query,
                                   const Visitor& fn) const {
  scan(query, fn);
}

void IndexTable::for_each_superset(const KeywordSet& query,
                                   const Visitor& fn) const {
  scan(Query(query), fn);
}

void IndexTable::for_each_superset_linear(const KeywordSet& query,
                                          const Visitor& fn) const {
  for (const auto& [k, objects] : entries_) {
    if (k.size() < query.size()) continue;
    if (!query.subset_of(k)) continue;
    if (!fn(k, objects)) return;
  }
}

std::vector<Hit> IndexTable::supersets(const KeywordSet& query,
                                       std::size_t limit,
                                       bool* truncated) const {
  std::vector<Hit> hits;
  supersets_into(Query(query), limit, truncated, hits);
  return hits;
}

void IndexTable::supersets_into(const Query& query, std::size_t limit,
                                bool* truncated,
                                std::vector<Hit>& out) const {
  out.clear();
  bool cut = false;
  scan(query, [&](const KeywordSet& k, const std::set<ObjectId>& objects) {
    // Re-check at entry granularity too: when the previous entry filled the
    // batch exactly, the next matching entry proves objects were left out.
    if (limit != 0 && out.size() >= limit) {
      cut = true;
      return false;
    }
    for (ObjectId o : objects) {
      if (limit != 0 && out.size() >= limit) {
        cut = true;
        return false;
      }
      out.push_back(Hit{o, k});
    }
    return true;
  });
  if (truncated != nullptr) *truncated = cut;
}

}  // namespace hkws::index
