// SlicedBitMatrix: the "grouped" memory layout at the heart of the GBF
// algorithm (paper §3.1).
//
// Conceptually this is S Bloom-filter bit arrays ("slots") of m bits each.
// Instead of S separate arrays, bit i of *every* slot is stored in word i:
// word(i) bit s == slot s, index i. A membership probe across all S slots
// therefore reads k words and ANDs them — the paper's key trick for making
// jumping-window queries cost k memory operations instead of S·k.
//
// S is limited to 64 per word group; larger slot counts use multiple word
// lanes per index transparently.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "bits/huge_alloc.hpp"

namespace ppc::bits {

class SlicedBitMatrix {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  SlicedBitMatrix() = default;

  /// `rows` bit positions × `slots` filters, all bits zero.
  SlicedBitMatrix(std::size_t rows, std::size_t slots)
      : rows_(rows),
        slots_(slots),
        lanes_((slots + kWordBits - 1) / kWordBits),
        words_(rows * lanes_, 0) {
    assert(slots >= 1);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t slots() const noexcept { return slots_; }
  std::size_t lanes() const noexcept { return lanes_; }

  /// Raw word for (row, lane). With slots ≤ 64 there is a single lane and
  /// callers can treat row(i) as "bit s == slot s membership at index i".
  Word word(std::size_t row, std::size_t lane = 0) const noexcept {
    assert(row < rows_ && lane < lanes_);
    return words_[row * lanes_ + lane];
  }

  bool test(std::size_t slot, std::size_t row) const noexcept {
    assert(slot < slots_ && row < rows_);
    return (word(row, slot / kWordBits) >> (slot % kWordBits)) & 1u;
  }

  void set(std::size_t slot, std::size_t row) noexcept {
    assert(slot < slots_ && row < rows_);
    words_[row * lanes_ + slot / kWordBits] |= Word{1} << (slot % kWordBits);
  }

  /// ANDs the words of `rows` across one lane and returns the result; a
  /// non-zero bit s means slot s contains every probed row. This is the
  /// paper's "fetch k words, AND them" step.
  Word probe_and(std::span<const std::uint64_t> probe_rows,
                 std::size_t lane = 0) const noexcept {
    Word acc = ~Word{0};
    for (std::uint64_t r : probe_rows) {
      acc &= word(static_cast<std::size_t>(r), lane);
    }
    return acc;
  }

  /// Clears the bit of `slot` in rows [row_begin, row_end) — the incremental
  /// cleaning step that retires an expired sub-window a few words per
  /// arrival instead of O(m) at the window jump.
  void clear_slot_rows(std::size_t slot, std::size_t row_begin,
                       std::size_t row_end) noexcept {
    assert(slot < slots_ && row_begin <= row_end && row_end <= rows_);
    const std::size_t lane = slot / kWordBits;
    const Word mask = ~(Word{1} << (slot % kWordBits));
    for (std::size_t r = row_begin; r < row_end; ++r) {
      words_[r * lanes_ + lane] &= mask;
    }
  }

  /// Zeroes every slot at once.
  void clear() noexcept { std::fill(words_.begin(), words_.end(), Word{0}); }

  /// Set-bit count for one slot (fill-factor diagnostics).
  std::size_t count_slot(std::size_t slot) const noexcept {
    assert(slot < slots_);
    std::size_t total = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
      total += test(slot, r) ? 1u : 0u;
    }
    return total;
  }

  /// Total memory footprint in bits (all lanes, including padding bits of
  /// the last partial lane).
  std::size_t storage_bits() const noexcept {
    return words_.size() * kWordBits;
  }

  /// Hints the CPU to pull the words of `row` into cache ahead of a probe
  /// (used by the batched offer path).
  void prefetch_row(std::size_t row) const noexcept {
    __builtin_prefetch(&words_[row * lanes_], /*rw=*/0, /*locality=*/1);
  }

  /// Same, with write intent: a fresh element's probe rows are also its
  /// insert rows, so fetching the line exclusive up front saves the
  /// read-for-ownership stall at set() time.
  void prefetch_row_write(std::size_t row) const noexcept {
    __builtin_prefetch(&words_[row * lanes_], /*rw=*/1, /*locality=*/1);
  }

  /// Word pointers for the batched hot path: single-lane filters probe and
  /// insert through raw words to skip per-element span/branch overhead.
  const Word* word_ptr(std::size_t row, std::size_t lane = 0) const noexcept {
    assert(row < rows_ && lane < lanes_);
    return &words_[row * lanes_ + lane];
  }
  Word* word_ptr(std::size_t row, std::size_t lane = 0) noexcept {
    assert(row < rows_ && lane < lanes_);
    return &words_[row * lanes_ + lane];
  }

  /// Raw backing words — serialization only.
  std::span<const Word> raw_words() const noexcept { return words_; }

  /// Restores raw backing words captured by raw_words(); the word count
  /// must match the current geometry.
  void set_raw_words(std::span<const Word> words) {
    if (words.size() != words_.size()) {
      throw std::length_error("SlicedBitMatrix: raw word count mismatch");
    }
    std::copy(words.begin(), words.end(), words_.begin());
  }

 private:
  std::size_t rows_ = 0;
  std::size_t slots_ = 0;
  std::size_t lanes_ = 0;
  // Huge-page-backed when large: random-row probes on a DRAM-resident
  // matrix are dTLB-bound on 4 KiB pages (see huge_alloc.hpp).
  std::vector<Word, HugePageAllocator<Word>> words_;
};

}  // namespace ppc::bits
