// IndexFamily: turns one click identifier into the k filter indices that
// every Bloom-filter variant in this library consumes.
//
// Default strategy is Kirsch–Mitzenmacher double hashing: one 128-bit
// Murmur3 call yields (h1, h2), and index_i = (h1 + i*h2) mod range. This
// preserves the asymptotic false-positive rate of k independent hash
// functions while costing a single hash evaluation per element — exactly the
// operation-count regime the paper assumes. Two alternative strategies exist
// so the test suite can show results are not an artifact of one scheme.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hashing/hash_common.hpp"
#include "hashing/murmur3.hpp"
#include "hashing/tabulation.hpp"
#include "hashing/xxhash.hpp"

namespace ppc::hashing {

/// Upper bound on k accepted by IndexFamily. The paper's sweeps stop at 20;
/// 64 leaves generous headroom while letting callers use fixed-size buffers.
inline constexpr std::size_t kMaxHashFunctions = 64;

enum class IndexStrategy {
  /// Kirsch–Mitzenmacher: two Murmur3 halves, index_i = h1 + i*h2 (default).
  kDoubleHashing,
  /// k fully independent XXH64 evaluations with distinct seeds (slow, used
  /// to validate that double hashing does not distort FP rates).
  kIndependentHashes,
  /// Double hashing over two seeded tabulation hashes (3-independent family;
  /// only meaningful for 64-bit keys, byte keys are pre-compressed).
  kTabulation,
};

/// Produces k indices in [0, range) for a key. Immutable after construction;
/// safe to share across threads.
class IndexFamily {
 public:
  /// @param k      number of indices per key, in [1, kMaxHashFunctions].
  /// @param range  exclusive upper bound of produced indices; must be > 0.
  /// @param strategy index-derivation strategy (see IndexStrategy).
  /// @param seed   salts the whole family; two families with different seeds
  ///               behave as unrelated hash functions.
  IndexFamily(std::size_t k, std::uint64_t range,
              IndexStrategy strategy = IndexStrategy::kDoubleHashing,
              std::uint64_t seed = 0);

  std::size_t k() const noexcept { return k_; }
  std::uint64_t range() const noexcept { return range_; }
  IndexStrategy strategy() const noexcept { return strategy_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Writes the k indices for a byte-string key into `out` (size ≥ k).
  void indices(Bytes key, std::span<std::uint64_t> out) const noexcept;

  /// Fast path for 64-bit identifiers (the common click-id representation).
  /// Inline: this sits inside the batched ingestion pipeline, where an
  /// out-of-line call (plus the strategy switch it can't fold) is a
  /// measurable per-click cost.
  void indices(std::uint64_t key, std::span<std::uint64_t> out) const noexcept {
    switch (strategy_) {
      case IndexStrategy::kDoubleHashing: {
        // One fmix chain per half is cheaper than a full Murmur pass over
        // the 8-byte buffer and keeps identical statistical behaviour.
        const std::uint64_t h1 = fmix64(key ^ seed_);
        const std::uint64_t h2 = fmix64(h1 ^ 0xc4ceb9fe1a85ec53ULL);
        fill_double_hashing(Hash128{h1, h2}, out);
        return;
      }
      case IndexStrategy::kIndependentHashes:
        indices_independent_u64(key, out);
        return;
      case IndexStrategy::kTabulation:
        fill_double_hashing(
            Hash128{(*tab1_)(key ^ seed_), (*tab2_)(key ^ seed_)}, out);
        return;
    }
  }

  /// Convenience allocation-friendly variant used by tests.
  std::vector<std::uint64_t> indices(Bytes key) const;

  /// Multi-key path for contiguous 64-bit identifiers: writes the k
  /// indices of every key into `out`, key-major (`out[i*k + j]` is key i's
  /// j-th index; out.size() ≥ keys.size()·k). A plain loop over the u64
  /// `indices` overload, so it is bit-identical to per-key calls by
  /// construction. Inline so the batched ingestion pipelines (compiled at
  /// -O3) can hoist the strategy switch out of the loop.
  void indices_batch(std::span<const std::uint64_t> keys,
                     std::span<std::uint64_t> out) const noexcept {
    assert(out.size() >= keys.size() * k_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      indices(keys[i], out.subspan(i * k_, k_));
    }
  }

 private:
  /// Lemire fast range reduction: maps a uniform 64-bit value onto
  /// [0, range) without the modulo bias or latency of integer division.
  static std::uint64_t fast_range(std::uint64_t x,
                                  std::uint64_t range) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * range) >> 64);
  }

  void fill_double_hashing(Hash128 h,
                           std::span<std::uint64_t> out) const noexcept {
    assert(out.size() >= k_);
    // Force h2 odd: guarantees all k probes are distinct modulo any power
    // of two range and avoids the degenerate h2 == 0 family.
    const std::uint64_t step = h.hi | 1u;
    std::uint64_t acc = h.lo;
    for (std::size_t i = 0; i < k_; ++i) {
      out[i] = fast_range(acc, range_);
      acc += step;
    }
  }

  void fill_independent(Bytes key, std::span<std::uint64_t> out) const noexcept;
  /// Out-of-line cold half of the u64 overload (validation strategy only).
  void indices_independent_u64(std::uint64_t key,
                               std::span<std::uint64_t> out) const noexcept;

  std::size_t k_;
  std::uint64_t range_;
  IndexStrategy strategy_;
  std::uint64_t seed_;
  // Only materialized for kTabulation (two 16 KiB tables).
  std::unique_ptr<TabulationHash64> tab1_;
  std::unique_ptr<TabulationHash64> tab2_;
};

}  // namespace ppc::hashing
