// BatchHashRing: the hash stage of the batched ingestion pipeline.
//
// The GBF/TBF offer_batch pipelines derive each element's k filter indices
// ahead of classification so the filter rows can be prefetched before they
// are probed. The ring holds the indices of up to kSlots in-flight
// elements and refills one BLOCK of kBlock contiguous keys at a time
// through IndexFamily::indices_batch (one Kirsch–Mitzenmacher evaluation
// per key, the paper's cost model). Two blocks are in flight: while block
// b is being classified, block b+1 is already hashed and its filter rows
// prefetched, so prefetches lead classification by kBlock..2·kBlock
// elements — enough memory-level parallelism to hide DRAM latency on a
// cache-hostile filter.
//
// Verdict neutrality: index derivation depends only on the key, never on
// filter state, so hashing ahead in blocks is verdict-for-verdict
// identical to hashing per element, and indices_batch is bit-identical to
// the per-key IndexFamily::indices call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "hashing/index_family.hpp"

namespace ppc::core::detail {

class BatchHashRing {
 public:
  /// Keys hashed per refill.
  static constexpr std::size_t kBlock = 8;
  /// Slots in flight: one block being classified, one hashed ahead.
  static constexpr std::size_t kSlots = 2 * kBlock;

  /// @param keys the whole micro-batch; the ring hashes it block-wise.
  BatchHashRing(const hashing::IndexFamily& family,
                std::span<const std::uint64_t> keys) noexcept
      : family_(family), keys_(keys), k_(family.k()) {}

  /// Hashes the first two blocks (or all of a short batch). Call once
  /// before classifying element 0. `prefetch(rows)` is invoked per hashed
  /// key with its k contiguous indices.
  template <typename Prefetch>
  void prime(Prefetch&& prefetch) noexcept {
    fill_block(0, prefetch);
    if (keys_.size() > kBlock) fill_block(kBlock, prefetch);
  }

  /// Indices of key i (k contiguous values; valid while i is in flight).
  const std::uint64_t* rows(std::size_t i) const noexcept {
    return ring_ + (i % kSlots) * k_;
  }

  /// Call after classifying element i: when i closes a block, hashes the
  /// block-after-next into the slots the closed block just freed.
  template <typename Prefetch>
  void advance(std::size_t i, Prefetch&& prefetch) noexcept {
    if ((i + 1) % kBlock == 0 && i + 1 + kBlock < keys_.size()) {
      fill_block(i + 1 + kBlock, prefetch);
    }
  }

  /// Keys hashed so far (feeds OpCounter::hash_evals; ends at keys.size()).
  std::size_t hashed() const noexcept { return hashed_; }

 private:
  template <typename Prefetch>
  void fill_block(std::size_t start, Prefetch& prefetch) noexcept {
    const std::size_t count = std::min(kBlock, keys_.size() - start);
    std::uint64_t* dst = ring_ + (start % kSlots) * k_;
    family_.indices_batch(keys_.subspan(start, count),
                          std::span<std::uint64_t>(dst, count * k_));
    hashed_ += count;
    for (std::size_t j = 0; j < count; ++j) prefetch(dst + j * k_);
  }

  const hashing::IndexFamily& family_;
  std::span<const std::uint64_t> keys_;
  std::size_t k_;
  std::size_t hashed_ = 0;
  // Slot stride is k_ (so a block's refill is one contiguous
  // indices_batch write); sized for the k = kMaxHashFunctions worst case.
  std::uint64_t ring_[kSlots * hashing::kMaxHashFunctions];
};

}  // namespace ppc::core::detail
