#include "common/keyword.hpp"

#include <algorithm>

namespace hkws {

KeywordSet::KeywordSet(std::vector<Keyword> keywords) : words_(std::move(keywords)) {
  std::sort(words_.begin(), words_.end());
  words_.erase(std::unique(words_.begin(), words_.end()), words_.end());
}

KeywordSet::KeywordSet(std::initializer_list<std::string_view> keywords) {
  words_.reserve(keywords.size());
  for (auto kw : keywords) words_.emplace_back(kw);
  std::sort(words_.begin(), words_.end());
  words_.erase(std::unique(words_.begin(), words_.end()), words_.end());
}

bool KeywordSet::subset_of(const KeywordSet& other) const noexcept {
  return std::includes(other.words_.begin(), other.words_.end(),
                       words_.begin(), words_.end());
}

bool KeywordSet::contains(std::string_view keyword) const noexcept {
  return std::binary_search(words_.begin(), words_.end(), keyword);
}

KeywordSet KeywordSet::union_with(const KeywordSet& other) const {
  std::vector<Keyword> merged;
  merged.reserve(words_.size() + other.words_.size());
  std::set_union(words_.begin(), words_.end(), other.words_.begin(),
                 other.words_.end(), std::back_inserter(merged));
  KeywordSet result;
  result.words_ = std::move(merged);  // already sorted and unique
  return result;
}

KeywordSet KeywordSet::difference(const KeywordSet& other) const {
  std::vector<Keyword> diff;
  std::set_difference(words_.begin(), words_.end(), other.words_.begin(),
                      other.words_.end(), std::back_inserter(diff));
  KeywordSet result;
  result.words_ = std::move(diff);
  return result;
}

std::uint64_t KeywordSet::hash(std::uint64_t seed) const noexcept {
  // Order independent by construction: words_ is canonical (sorted).
  std::uint64_t h = mix64(seed ^ 0xa0761d6478bd642fULL);
  for (const auto& w : words_) h = hash_combine(h, hash_bytes(w, seed));
  return h;
}

std::string KeywordSet::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (i != 0) out += ",";
    out += words_[i];
  }
  return out;
}

}  // namespace hkws
