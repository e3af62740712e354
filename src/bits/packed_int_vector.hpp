// PackedIntVector: n entries of a fixed bit width b (1..64), bit-packed into
// 64-bit words.
//
// This is the storage the paper's space analysis assumes for the timing
// Bloom filter: each TBF entry is exactly ⌈log₂(N+C+1)⌉ bits, so a filter of
// m entries occupies m·⌈log₂(N+C+1)⌉ bits — not m machine words. Entries may
// straddle a word boundary; get/set handle the split explicitly.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

namespace ppc::bits {

class PackedIntVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  PackedIntVector() = default;

  /// `size` entries of `bit_width` bits each, all initialized to `fill`.
  /// `fill` must fit in `bit_width` bits. One pass over fresh storage: the
  /// fill's word pattern is appended directly (no zeroing pass first);
  /// padding bits past size·b and the guard word start at zero.
  PackedIntVector(std::size_t size, std::size_t bit_width, Word fill = 0)
      : size_(size),
        bit_width_(bit_width),
        mask_(bit_width == kWordBits ? ~Word{0}
                                     : (Word{1} << bit_width) - 1) {
    assert(bit_width >= 1 && bit_width <= kWordBits);
    assert((fill & ~mask_) == 0);
    const std::size_t full = payload_bits() / kWordBits;
    const std::size_t rem = payload_bits() % kWordBits;
    words_.reserve(full + (rem != 0 ? 1 : 0) + 1);
    Word pattern[kWordBits];
    const std::size_t period = fill_pattern(fill, pattern);
    for (std::size_t w = 0; w < full; w += period) {
      words_.insert(words_.end(), pattern,
                    pattern + std::min(period, full - w));
    }
    if (rem != 0) words_.push_back(pattern[full % period] & low_bits(rem));
    words_.push_back(0);  // guard word
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t bit_width() const noexcept { return bit_width_; }
  Word max_value() const noexcept { return mask_; }

  /// Total payload bits (the number the paper's memory accounting uses).
  std::size_t payload_bits() const noexcept { return size_ * bit_width_; }

  Word get(std::size_t i) const noexcept {
    assert(i < size_);
    const std::size_t bit = i * bit_width_;
    const std::size_t word = bit / kWordBits;
    const std::size_t off = bit % kWordBits;
    // The +1 guard word in `words_` makes this unconditional double-word
    // read safe even for the final entry.
    Word lo = words_[word] >> off;
    if (off + bit_width_ > kWordBits) {
      lo |= words_[word + 1] << (kWordBits - off);
    }
    return lo & mask_;
  }

  void set(std::size_t i, Word value) noexcept {
    assert(i < size_);
    assert((value & ~mask_) == 0);
    const std::size_t bit = i * bit_width_;
    const std::size_t word = bit / kWordBits;
    const std::size_t off = bit % kWordBits;
    words_[word] = (words_[word] & ~(mask_ << off)) | (value << off);
    if (off + bit_width_ > kWordBits) {
      const std::size_t spill = kWordBits - off;
      const Word hi_mask = mask_ >> spill;
      words_[word + 1] =
          (words_[word + 1] & ~hi_mask) | (value >> spill);
    }
  }

  /// Sets every entry to `value` by tiling its word pattern: O(size·b/64)
  /// word stores, used at reset only. The padding bits past size·b and the
  /// guard word keep their contents, exactly as a per-entry set() loop
  /// would leave them (raw_words() is what snapshots serialize).
  void fill_all(Word value) noexcept {
    assert((value & ~mask_) == 0);
    Word pattern[kWordBits];
    const std::size_t period = fill_pattern(value, pattern);
    const std::size_t full = payload_bits() / kWordBits;
    for (std::size_t w = 0; w < full; w += period) {
      std::copy_n(pattern, std::min(period, full - w), words_.begin() + w);
    }
    const std::size_t rem = payload_bits() % kWordBits;
    if (rem != 0) {
      const Word low = low_bits(rem);
      words_[full] = (words_[full] & ~low) | (pattern[full % period] & low);
    }
  }

  /// Hints the CPU to pull entry `i`'s word(s) into cache ahead of a read.
  void prefetch(std::size_t i) const noexcept {
    __builtin_prefetch(&words_[i * bit_width_ / kWordBits], /*rw=*/0,
                       /*locality=*/1);
  }

  /// Raw backing words (including the guard word) — serialization only.
  std::span<const Word> raw_words() const noexcept { return words_; }

  /// Restores raw backing words captured by raw_words(). The word count
  /// must match the current geometry.
  void set_raw_words(std::span<const Word> words) {
    if (words.size() != words_.size()) {
      throw std::length_error("PackedIntVector: raw word count mismatch");
    }
    std::copy(words.begin(), words.end(), words_.begin());
  }

 private:
  static Word low_bits(std::size_t n) noexcept { return (Word{1} << n) - 1; }

  /// Writes the packed bit stream of `value` repeated back to back into
  /// `pattern` and returns its period in words, b / gcd(b, 64) (≤ 64):
  /// word w of any filled vector is pattern[w % period].
  std::size_t fill_pattern(Word value, Word* pattern) const noexcept {
    const std::size_t period = bit_width_ / std::gcd(bit_width_, kWordBits);
    for (std::size_t w = 0; w < period; ++w) {
      // Word w starts `off` bits into an entry: its low bits are that
      // entry's high bits, followed by whole copies of the value.
      const std::size_t off = (w * kWordBits) % bit_width_;
      Word word = value >> off;
      for (std::size_t s = bit_width_ - off; s < kWordBits; s += bit_width_) {
        word |= value << s;
      }
      pattern[w] = word;
    }
    return period;
  }

  std::size_t size_ = 0;
  std::size_t bit_width_ = 1;
  Word mask_ = 1;
  std::vector<Word> words_;
};

}  // namespace ppc::bits
