// GroupBloomFilter — the paper's GBF algorithm (§3).
//
// Detects duplicate clicks over a jumping window of N elements (or T time
// units) split into Q sub-windows. One Bloom filter of m bits per
// sub-window, plus one spare, stored *transposed* in a SlicedBitMatrix so
// that a probe across all Q active sub-filters costs k word reads + one AND
// instead of Q·k bit probes.
//
// Slot discipline (count basis; time basis is analogous per time unit):
//   - Q+1 slots arranged in a ring. At any instant one slot is `current`
//     (receiving inserts), the next ring slot is `cleaning` (the sub-window
//     that expired at the last jump, being zeroed a few rows per arrival),
//     and the remaining Q-1 slots hold the previous full sub-windows.
//   - Probes AND the k probed words and mask out the cleaning slot's bit;
//     any surviving 1-bit means some active sub-filter contains the click.
//   - Every arrival cleans ⌈m / (N/Q)⌉ rows of the cleaning slot, so the
//     slot is fully zero by the time the window jumps and it becomes the
//     new current slot.
//
// Guarantees (Theorem 1): zero false negatives; false-positive rate of Q
// independent m-bit Bloom filters each holding ≤ N/Q elements; worst-case
// O(⌈(Q+1)/D⌉ · k + m·Q/N) word operations per element.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "bits/sliced_bit_matrix.hpp"
#include "core/duplicate_detector.hpp"
#include "hashing/index_family.hpp"

namespace ppc::core {

class GroupBloomFilter final : public DuplicateDetector {
 public:
  struct Options {
    /// Bits per sub-filter (the paper's m). Total memory is m · (Q+1) bits.
    std::uint64_t bits_per_subfilter = 1u << 20;
    /// Number of hash functions k.
    std::size_t hash_count = 7;
    hashing::IndexStrategy strategy = hashing::IndexStrategy::kDoubleHashing;
    std::uint64_t seed = 0;
  };

  /// @param window jumping window, count- or time-based. Landmark windows
  ///        are accepted as Q=1 jumping windows.
  /// @throws std::invalid_argument on inconsistent window/options.
  GroupBloomFilter(WindowSpec window, Options opts);

  bool do_offer(ClickId id, std::uint64_t time_us) override;
  using DuplicateDetector::offer_batch;
  void offer_batch(std::span<const ClickId> ids,
                   std::span<const std::uint64_t> times,
                   std::span<bool> out) override;

  WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override {
    return bits_per_subfilter_ * (subwindows_ + 1);
  }
  bool zero_false_negatives() const override { return true; }
  std::string name() const override { return "GBF"; }
  void reset() override;
  bool supports_snapshots() const noexcept override { return true; }

  /// Physical footprint including word-lane padding (≥ memory_bits()).
  std::size_t storage_bits() const { return matrix_.storage_bits(); }

  std::uint64_t bits_per_subfilter() const { return bits_per_subfilter_; }
  std::size_t hash_count() const { return family_.k(); }
  std::uint32_t subwindows() const { return subwindows_; }

  /// Rows of the expired slot zeroed per arrival (count basis) or per time
  /// unit (time basis); exposed for the Theorem 1 benchmarks.
  std::uint64_t clean_stride() const { return clean_stride_; }

  /// Serializes the complete detector state (parameters + filter bits) so
  /// a billing replica can checkpoint and resume mid-stream.
  void save(std::ostream& out) const override;

  /// Restores state saved by save() into THIS instance; the snapshot's
  /// window and options must match this detector's construction parameters.
  /// @throws std::runtime_error on corrupt or mismatched input.
  void restore(std::istream& in) override;

  /// Diagnostics: fill factor of the slot currently receiving inserts.
  double current_slot_fill() const {
    return static_cast<double>(matrix_.count_slot(current_)) /
           static_cast<double>(bits_per_subfilter_);
  }

 private:
  void clean_step(std::uint64_t rows);
  void jump();
  void advance_time(std::uint64_t time_us);
  bool probe_and_insert(ClickId id);
  bool probe_and_insert_rows(const std::uint64_t* rows, std::size_t k);
  void finish_arrival_count_basis();
  void offer_batch_count(std::span<const ClickId> ids, std::span<bool> out);
  void offer_batch_time(std::span<const ClickId> ids,
                        std::span<const std::uint64_t> times,
                        std::span<bool> out);

  WindowSpec window_;
  std::uint64_t bits_per_subfilter_;
  std::uint32_t subwindows_;          // Q
  hashing::IndexFamily family_;
  bits::SlicedBitMatrix matrix_;      // m rows × (Q+1) slots

  std::size_t current_ = 0;           // slot receiving inserts
  std::size_t cleaning_ = 1;          // slot being zeroed
  std::uint64_t clean_row_ = 0;       // cleaning progress in rows
  std::uint64_t clean_stride_ = 0;

  // Count basis.
  std::uint64_t subwindow_len_ = 0;   // N/Q elements
  std::uint64_t fill_count_ = 0;      // inserts in current sub-window

  // Time basis.
  std::uint64_t units_per_subwindow_ = 0;  // R
  std::uint64_t current_unit_ = 0;         // absolute time-unit index
  std::uint64_t units_into_subwindow_ = 0;
  bool time_started_ = false;
};

}  // namespace ppc::core
