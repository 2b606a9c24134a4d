// Keywords, keyword sets, and object identities — the vocabulary shared by
// every layer (paper §2.2). A KeywordSet is canonical (sorted, unique) so
// that equality, hashing, and subset tests are well defined and cheap.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"

namespace hkws {

/// A keyword (attribute token). Plain UTF-8 text; the scheme never
/// interprets keyword contents, only hashes them.
using Keyword = std::string;

/// An object identifier, unique across the network (paper §2.1).
using ObjectId = std::uint64_t;

/// Sentinel for "no object".
inline constexpr ObjectId kInvalidObject = ~0ULL;

/// An immutable-by-convention canonical set of keywords: sorted, no
/// duplicates. This is `K_sigma` for objects and `K` for queries.
class KeywordSet {
 public:
  KeywordSet() = default;

  /// Canonicalizes: sorts and removes duplicates.
  explicit KeywordSet(std::vector<Keyword> keywords);
  KeywordSet(std::initializer_list<std::string_view> keywords);

  /// True if every keyword of this set is in `other` (this ⊆ other).
  bool subset_of(const KeywordSet& other) const noexcept;

  /// True if this set contains every keyword of `other` (this ⊇ other).
  bool superset_of(const KeywordSet& other) const noexcept {
    return other.subset_of(*this);
  }

  bool contains(std::string_view keyword) const noexcept;

  /// Set union (canonical).
  KeywordSet union_with(const KeywordSet& other) const;

  /// Keywords in this set but not in `other` (the "extra" keywords that
  /// drive the paper's ranking-by-specificity).
  KeywordSet difference(const KeywordSet& other) const;

  std::size_t size() const noexcept { return words_.size(); }
  bool empty() const noexcept { return words_.empty(); }
  const std::vector<Keyword>& words() const noexcept { return words_; }
  auto begin() const noexcept { return words_.begin(); }
  auto end() const noexcept { return words_.end(); }

  bool operator==(const KeywordSet&) const = default;
  auto operator<=>(const KeywordSet&) const = default;

  /// Order-independent 64-bit hash (seeded); used as a map key and as the
  /// query identity in caches.
  std::uint64_t hash(std::uint64_t seed = 0) const noexcept;

  /// "a,b,c" rendering for logs and examples.
  std::string to_string() const;

 private:
  std::vector<Keyword> words_;
};

/// Hasher so KeywordSet can key unordered containers.
struct KeywordSetHash {
  std::size_t operator()(const KeywordSet& k) const noexcept {
    return static_cast<std::size_t>(k.hash());
  }
};

}  // namespace hkws
