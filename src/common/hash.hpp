// Deterministic, seedable 64-bit hashing.
//
// Everything in hyperkws that needs a hash uses these functions rather than
// std::hash: experiment results must be reproducible bit-for-bit across
// platforms and standard-library implementations, and several layers (the
// keyword hash h, the DHT object/node mapping L, the logical-to-physical map
// g) need *independent* hash functions, which we obtain via distinct seeds.
#pragma once

#include <cstdint>
#include <string_view>

namespace hkws {

/// One step of the SplitMix64 generator; also an excellent 64->64 mixer.
/// Advances `state` and returns the next output.
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// Stateless 64->64 bit mixer (the SplitMix64 finalizer). Bijective.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// Seeded FNV-1a over a byte string, post-mixed for avalanche.
/// Distinct seeds give (empirically) independent hash functions.
std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed) noexcept;

/// Combine an accumulated hash with a new 64-bit value (order dependent).
std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) noexcept;

/// Well-known seeds for the independent hash functions used by the layers.
/// Centralized so tests and production code agree.
namespace seeds {
inline constexpr std::uint64_t kKeywordHash = 0x9e3779b97f4a7c15ULL;   ///< h: W -> {0..r-1}
inline constexpr std::uint64_t kObjectToDht = 0xbf58476d1ce4e5b9ULL;   ///< L: O -> DHT id
inline constexpr std::uint64_t kCubeToDht = 0x94d049bb133111ebULL;     ///< g: cube node -> DHT id
inline constexpr std::uint64_t kNodeId = 0xd6e8feb86659fd93ULL;        ///< peer address -> DHT id
inline constexpr std::uint64_t kSignature = 0x2545f4914f6cdd1dULL;     ///< keyword -> posting key, signature bit
}  // namespace seeds

}  // namespace hkws
