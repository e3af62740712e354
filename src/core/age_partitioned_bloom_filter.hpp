// AgePartitionedBloomFilter — the APBF of Shtul, Baquero & Almeida
// ("Age-Partitioned Bloom Filters", arXiv:2001.03147), plus the
// time-limited variant (Rodrigues et al., arXiv:2306.06742) behind the
// same generations machinery. The first post-2008 backend in the library:
// it solves exactly the paper's sliding-window duplicate-detection problem
// with a different memory/FPR trade-off than GBF/TBF.
//
// Structure: k + ℓ partitioned Bloom slices of m bits each, one hash
// function per slice, arranged oldest-to-youngest. Every insert sets one
// bit in each of the k YOUNGEST slices. The stream is divided into
// *generations* — g arrivals (count basis) or a fixed span of time units
// (time basis). When a generation ends, the oldest slice retires and a
// fresh empty slice becomes the new youngest; retired bits are zeroed
// INCREMENTALLY (a few words per arrival / time unit, GBF-style) in one
// spare slice, so retirement is O(1) amortized and never a latency spike.
// k + ℓ + 1 physical slices total.
//
// Hash discipline: slices cycle through k + ℓ hash functions by creation
// generation (consecutive live slices always hold distinct functions), so
// a slice's bits stay addressable as it ages through the ring — no
// rehashing at retirement.
//
// Query: an element is reported present iff some k CONSECUTIVE live slices
// all contain it. An element inserted while young has its k bits in k
// consecutive slices; each retirement shifts the run one slot older, and
// the run stays fully live for ℓ retirements.
//
// Guarantees (Theorem 1 of the APBF paper, mapped to our window contract):
//   * zero false negatives for every duplicate within the last ℓ
//     generations — g is sized so ℓ·g covers the configured window
//     (count: g = ⌈N/ℓ⌉; time: g_units = ⌈R/ℓ⌉), so the covered span is
//     AT LEAST the window, like GBF's jumping approximation from above;
//   * items older than ℓ + k generations have no surviving bits and decay
//     out of the filter (between ℓ and ℓ + k generations, detection fades
//     probabilistically — the filter may remember slightly longer than the
//     window, which only converts would-be false negatives into the same
//     "remembers a hair too long" slack GBF's rounded sub-windows have);
//   * false-positive rate ≈ Σ over the ℓ+1 possible run positions of the
//     product of the run's slice fill factors — at the design fill of ~½
//     per full slice, roughly (ℓ+2)/2^k (tests/apbf_test.cpp measures it
//     against the validity oracle).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/duplicate_detector.hpp"
#include "hashing/index_family.hpp"

namespace ppc::core {

class AgePartitionedBloomFilter final : public DuplicateDetector {
 public:
  struct Options {
    /// Bits per slice (the APBF paper's m). Total payload memory is
    /// m · (k + ℓ + 1) bits, spare retirement slice included.
    std::uint64_t bits_per_slice = 1u << 20;
    /// Slices each insert touches = consecutive matches a positive query
    /// needs (the APBF paper's k). Plays the role of the Bloom hash count:
    /// FPR falls geometrically in k.
    std::size_t consecutive = 7;
    /// Retired generations the filter fully covers (the paper's ℓ).
    /// Larger ℓ tracks the window boundary more tightly (less over-
    /// remembering: the slack past the window is one generation ≈ 1/ℓ of
    /// the window) but adds slices — more probes and, at fixed total
    /// memory, smaller m per slice.
    std::size_t generations = 8;
    hashing::IndexStrategy strategy = hashing::IndexStrategy::kDoubleHashing;
    std::uint64_t seed = 0;
  };

  /// @param window sliding window, count or time basis (the age-partitioned
  ///        design IS a sliding window; jumping/landmark windows belong to
  ///        GroupBloomFilter).
  /// @throws std::invalid_argument on inconsistent window/options.
  AgePartitionedBloomFilter(WindowSpec window, Options opts);

  bool do_offer(ClickId id, std::uint64_t time_us) override;
  using DuplicateDetector::offer_batch;
  void offer_batch(std::span<const ClickId> ids,
                   std::span<const std::uint64_t> times,
                   std::span<bool> out) override;

  WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override {
    return static_cast<std::size_t>(bits_per_slice_) * slice_count();
  }
  /// Zero FN holds within the covered window (ℓ generations ≥ the spec'd
  /// window) — the same at-least-the-window sense as GBF's rounded
  /// sub-windows; see DESIGN.md "Backend window guarantees".
  bool zero_false_negatives() const override { return true; }
  std::string name() const override {
    return window_.basis == WindowBasis::kTime ? "APBF-time" : "APBF";
  }
  void reset() override;
  bool supports_snapshots() const noexcept override { return true; }

  std::uint64_t bits_per_slice() const { return bits_per_slice_; }
  std::size_t consecutive() const { return k_; }
  std::size_t generations() const { return l_; }
  /// Physical slices: k + ℓ live + 1 retiring.
  std::size_t slice_count() const { return k_ + l_ + 1; }
  /// Arrivals per generation (count basis) / time units per generation
  /// (time basis).
  std::uint64_t generation_span() const { return gen_span_; }
  /// Words of the retiring slice zeroed per arrival (count basis) or per
  /// time unit (time basis).
  std::uint64_t clean_stride() const { return clean_stride_; }
  /// Arrivals (count basis) or time units (time basis) inside which a
  /// recorded duplicate is guaranteed to be flagged: ℓ · generation_span,
  /// always ≥ the window spec's length in the same unit.
  std::uint64_t covered_span() const { return l_ * gen_span_; }

  /// Diagnostics: fill factor of the youngest (currently inserting) slice.
  double youngest_slice_fill() const;

  /// Serializes the complete detector state as one versioned CRC-checked
  /// section (magic "PPCAPBF1") — the snapshot discipline every post-PR-5
  /// format follows; corruption anywhere is caught before state is parsed.
  void save(std::ostream& out) const override;

  /// Restores state saved by save() into THIS instance; the snapshot's
  /// window and options must match this detector's construction parameters.
  /// @throws std::runtime_error on corrupt or mismatched input.
  void restore(std::istream& in) override;

 private:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  std::size_t hash_functions() const { return k_ + l_; }
  /// Physical slot of logical slice j (0 = youngest, k+ℓ = retiring).
  std::size_t slot_of(std::size_t j) const {
    const std::size_t s = youngest_ + j;
    return s >= slice_count() ? s - slice_count() : s;
  }
  Word* slice_words(std::size_t slot) {
    return words_.data() + slot * words_per_slice_;
  }
  const Word* slice_words(std::size_t slot) const {
    return words_.data() + slot * words_per_slice_;
  }
  bool slice_test(std::size_t slot, std::uint64_t bit) const {
    return (slice_words(slot)[bit / kWordBits] >> (bit % kWordBits)) & 1u;
  }
  void slice_set(std::size_t slot, std::uint64_t bit) {
    slice_words(slot)[bit / kWordBits] |= Word{1} << (bit % kWordBits);
  }

  void clean_step(std::uint64_t word_count);
  void shift_generation();
  void advance_time(std::uint64_t time_us);
  void finish_arrival_count_basis();
  bool probe_and_insert(ClickId id);
  bool probe_and_insert_idx(const std::uint64_t* idx);
  void prefetch_idx(const std::uint64_t* idx) const;
  void offer_batch_count(std::span<const ClickId> ids, std::span<bool> out);
  void offer_batch_time(std::span<const ClickId> ids,
                        std::span<const std::uint64_t> times,
                        std::span<bool> out);

  void write_state(std::ostream& out) const;

  WindowSpec window_;
  std::uint64_t bits_per_slice_;   // m
  std::size_t k_;                  // consecutive slices per insert/match
  std::size_t l_;                  // retired generations covered
  std::uint64_t gen_span_;         // arrivals (count) / units (time) per gen
  std::size_t words_per_slice_;
  hashing::IndexFamily family_;    // k+ℓ functions cycling across slices
  std::vector<Word> words_;        // (k+ℓ+1) slices, slot-major

  std::size_t youngest_ = 0;       // physical slot of logical slice 0
  std::size_t youngest_hash_ = 0;  // hash index of the youngest slice
  std::uint64_t fill_in_gen_ = 0;  // arrivals into the current generation
  std::uint64_t clean_word_ = 0;   // retirement progress in words
  std::uint64_t clean_stride_ = 0;

  // Time basis (mirrors GroupBloomFilter's anchored time-unit clock).
  std::uint64_t current_unit_ = 0;
  std::uint64_t units_into_gen_ = 0;
  bool time_started_ = false;
};

}  // namespace ppc::core
