// FNV-1a over 64-bit words: the one mixer behind every determinism hash
// (engine traces, KV apply logs, latency histograms, litmus and repart
// fingerprints). A word is fed as its 8 bytes, least significant first, so
// fnv_mix(kFnvOffsetBasis, w) is the standard FNV-1a 64 hash of w's
// little-endian bytes.
#pragma once

#include <cstdint>

namespace ecoscale {

inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// The standard FNV-1a 64 offset basis (14695981039346656037).
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
/// The seed the simulation fingerprints start from: the offset basis's
/// first 19 decimal digits. Any seed hashes equally well; this one stays
/// because every committed hash baseline starts from it.
inline constexpr std::uint64_t kFnvSeed = 1469598103934665603ull;

/// Fold the 8 bytes of `v`, low byte first, into the FNV-1a state `h`.
constexpr std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace ecoscale
