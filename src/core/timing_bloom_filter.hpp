// TimingBloomFilter — the paper's TBF algorithm (§4).
//
// A Bloom filter whose bits are widened to O(log N)-bit entries holding the
// *timestamp* (a wraparound tick counter) of the last insert that touched
// them. A click is a duplicate iff all k probed entries are non-empty AND
// their timestamps fall inside the current window. Expired timestamps are
// reclaimed by an incremental round-robin scan, so per-element work stays
// O(k + m/N) instead of the O(m) a naive wraparound counter would force.
//
// Tick model (unifies every window the paper runs TBF over):
//   - sliding count window of N elements  → 1 tick per arrival,  W ticks live
//   - jumping count window, Q sub-windows → 1 tick per N/Q arrivals
//     ("all elements in the same sub-window have the same timestamp")
//   - sliding time window of R time units → 1 tick per time unit
// Active = age < `window_ticks`; the counter wraps modulo
// W = window_ticks + C. Entry width is ⌈log₂(W+1)⌉ bits; the all-ones value
// is reserved as EMPTY (paper: "no timestamp is represented by all 1s").
//
// Safety deviation from the paper (documented in DESIGN.md): we scan
// ⌈m/C⌉ entries per tick instead of m/(C+1), guaranteeing every entry is
// visited while its age is inside the C-tick reclamation window
// [window_ticks, W-1]; the paper's C+1 period can skip that window by one
// tick and let an expired timestamp alias as fresh. Same asymptotics.
//
// Guarantees (Theorem 2): zero false negatives; FP rate of a classical
// m-entry Bloom filter holding the window's valid clicks; worst-case
// O(k + m/(C·G)) entry operations per element (G = arrivals per tick).
#pragma once

#include <cstdint>
#include <iosfwd>

#include "bits/packed_int_vector.hpp"
#include "core/duplicate_detector.hpp"
#include "hashing/index_family.hpp"

namespace ppc::core {

class TimingBloomFilter final : public DuplicateDetector {
 public:
  struct Options {
    /// Number of timestamp entries (the paper's m).
    std::uint64_t entries = 1u << 20;
    /// Number of hash functions k.
    std::size_t hash_count = 7;
    /// Wraparound slack C in ticks. 0 selects the paper's recommended
    /// default C = window_ticks - 1 (clamped to ≥ 1). Larger C trades
    /// entry bits for a cheaper per-element cleaning scan.
    std::uint64_t c = 0;
    hashing::IndexStrategy strategy = hashing::IndexStrategy::kDoubleHashing;
    std::uint64_t seed = 0;
  };

  /// The filter's tick/wrap geometry, fully resolved from a window spec.
  /// This is the SINGLE source of truth shared by the constructor and
  /// make_detector: the factory must size the table from the same entry
  /// width the filter will actually allocate, or budget math silently
  /// diverges from the wrap space (the bug this struct fixed).
  struct Geometry {
    std::uint64_t window_ticks;  ///< N, Q, or R depending on the window
    std::uint64_t granularity;   ///< arrivals per tick (count basis), else 1
    std::uint64_t c;             ///< wraparound slack, 0-sentinel resolved
    std::uint64_t wrap;          ///< W = window_ticks + c
    std::size_t entry_bits;      ///< ⌈log₂(W+1)⌉ (timestamps + EMPTY)
  };

  /// Resolves the tick model for `window` with wraparound slack `c`
  /// (0 selects the paper default C = window_ticks - 1, clamped to ≥ 1).
  /// @throws std::invalid_argument for windows TBF does not support
  ///         (landmark, time-based jumping, sub-tick windows) or whose
  ///         wrap space exceeds the 64-bit entry encoding.
  static Geometry resolve_geometry(const WindowSpec& window, std::uint64_t c);

  /// @param window sliding (count or time basis) or jumping (count basis).
  /// @throws std::invalid_argument on inconsistent window/options.
  TimingBloomFilter(WindowSpec window, Options opts);

  bool do_offer(ClickId id, std::uint64_t time_us) override;
  using DuplicateDetector::offer_batch;
  void offer_batch(std::span<const ClickId> ids,
                   std::span<const std::uint64_t> times,
                   std::span<bool> out) override;

  WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override { return table_.payload_bits(); }
  bool zero_false_negatives() const override { return true; }
  std::string name() const override { return "TBF"; }
  void reset() override;
  bool supports_snapshots() const noexcept override { return true; }

  std::uint64_t entries() const { return table_.size(); }
  std::size_t hash_count() const { return family_.k(); }
  std::size_t entry_bits() const { return table_.bit_width(); }
  std::uint64_t c() const { return c_; }
  std::uint64_t window_ticks() const { return window_ticks_; }
  /// Entries scanned per cleaning opportunity (arrival or time unit).
  std::uint64_t clean_stride() const { return clean_stride_; }

  /// Diagnostics: fraction of entries currently holding a timestamp.
  double fill_factor() const;

  /// Serializes the complete detector state (parameters + timestamp table)
  /// so a billing replica can checkpoint and resume mid-stream.
  void save(std::ostream& out) const override;

  /// Restores state saved by save() into THIS instance; the snapshot's
  /// window and options must match this detector's construction parameters.
  /// @throws std::runtime_error on corrupt or mismatched input.
  void restore(std::istream& in) override;

 private:
  static constexpr std::uint64_t kNoTick = ~std::uint64_t{0};

  bool tick_active(std::uint64_t entry_value) const {
    // age in [0, window_ticks) ⇒ active; [window_ticks, W) ⇒ expired but
    // not yet reclaimed (treated as absent, so it can only delay reuse of
    // the entry, never produce a false verdict).
    const std::uint64_t age =
        pos_ >= entry_value ? pos_ - entry_value : pos_ - entry_value + wrap_;
    return age < window_ticks_;
  }

  void clean_entries(std::uint64_t count);
  void advance_tick();
  void advance_time(std::uint64_t time_us);
  void begin_arrival_count_basis();
  bool probe_and_insert(ClickId id);
  bool probe_and_insert_idx(const std::uint64_t* idx, std::size_t k);

  WindowSpec window_;
  std::uint64_t window_ticks_;   // N, Q, or R depending on the window
  std::uint64_t granularity_;    // arrivals per tick (count basis), else 1
  std::uint64_t c_;              // wraparound slack in ticks
  std::uint64_t wrap_;           // W = window_ticks + c
  std::uint64_t empty_;          // all-ones sentinel
  hashing::IndexFamily family_;
  bits::PackedIntVector table_;

  std::uint64_t pos_ = 0;               // current tick, in [0, wrap_)
  std::uint64_t arrivals_in_tick_ = 0;  // count basis only
  std::uint64_t scan_pos_ = 0;          // round-robin cleaning cursor
  std::uint64_t clean_stride_ = 0;
  std::uint64_t last_abs_unit_ = kNoTick;  // time basis only
  bool started_ = false;
};

}  // namespace ppc::core
