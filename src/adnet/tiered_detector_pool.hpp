// TieredDetectorPool: million-ad multi-tenancy in bounded memory.
//
// DetectorPool gives every ad a dedicated fixed-spec detector and THROWS
// when the memory cap is reached — correct for a curated tenant list, fatal
// for an open one (the millionth first-seen ad kills the batch). This pool
// makes the trade the traffic actually calls for: click volume per ad is
// Zipf, so a handful of hot ads carry most of the stream while the long
// tail sees a trickle.
//
//   HOT TIER   — dedicated per-ad detectors, right-sized via
//                analysis::plan_budget from the ad's observed rate, giving
//                hot ads the paper's per-ad window semantics at a
//                configured FP target.
//   TAIL TIER  — ONE shared detector keyed on the (ad_id, click_id)
//                composite hash (core::composite_click_key). Every
//                first-seen ad lands here, so admission NEVER throws; the
//                window is `tail_window_clicks` GLOBAL arrivals, the
//                coarser semantics a cold ad's trickle can live with.
//
// A SpaceSaving summary over each epoch of `epoch_clicks` arrivals drives
// the PROMOTION/DEMOTION loop: ads crossing the heavy-hitter threshold get
// a dedicated detector (budget permitting — a full budget defers, never
// throws), hot ads gone cold are demoted and their memory reclaimed.
//
// Tier-move semantics (DESIGN.md "Tier moves" states the proof):
//   * every click — hot or tail — is INSERTED into the tail detector, so
//     the tail always holds the last `tail_window_clicks` arrivals of the
//     whole stream regardless of tier;
//   * a freshly promoted ad's verdicts OR in the tail's answer for its
//     first window-length of clicks (the handover grace), because its
//     pre-promotion originals live only in the tail;
//   * after the grace the hot detector has the full in-window history and
//     the tail's answer is ignored — hot-tier FPR drops to the hot plan's;
//   * demotion just deletes the hot detector: the tail shadow already
//     holds the demoted ad's recent originals.
// Net guarantee: a duplicate is NEVER missed when it arrives within
// `tail_window_clicks` global arrivals of its original; an ad that stays
// hot (no demotion between original and duplicate) additionally gets zero
// false negatives over its own window unconditionally.
//
// Batches: offer_batch(ad_ids, ids, times, out) is the one routing entry
// point and offer() is a batch of one. Every click keeps its own
// timestamp through the tail and the hot tier, so batch verdicts, counters
// and snapshot bytes equal a click-at-a-time replay.
//
// Thread safety: one internal mutex serializes everything (the shared tail
// filter and the maintenance loop leave nothing to shard). Wrap offers
// behind the mutex-free DetectorPool when per-ad parallel ingest matters
// more than open admission.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>

#include "analysis/heavy_hitters.hpp"
#include "core/composite_key.hpp"
#include "core/detector_factory.hpp"
#include "core/duplicate_detector.hpp"

namespace ppc::adnet {

struct TieredPoolOptions {
  /// Cap on the summed memory_bits() of the tail detector plus every hot
  /// detector. Unlike DetectorPool this is an ADMISSION bound, not a
  /// tripwire: promotions that don't fit are deferred (counted in
  /// TierStats::promotion_deferrals), clicks always flow.
  std::size_t memory_cap_bits = std::size_t{1} << 33;  // 1 GiB

  /// Per-ad window hot detectors implement (the paper's per-ad semantics).
  core::WindowSpec hot_window = core::WindowSpec::sliding_count(1 << 12);
  /// FP target each hot detector is sized for via analysis::plan_budget.
  double hot_target_fpr = 1e-4;

  /// Tail window in GLOBAL arrivals (all tail + shadowed hot clicks); also
  /// the bound on cross-tier duplicate detection (header comment).
  std::uint64_t tail_window_clicks = std::uint64_t{1} << 20;
  /// FP target the shared tail detector is sized for.
  double tail_target_fpr = 1e-3;

  /// SpaceSaving counters tracked per epoch; bounds promotions per epoch.
  std::size_t hh_capacity = 1024;
  /// Maintenance epoch length in clicks (promotion/demotion cadence).
  std::uint64_t epoch_clicks = std::uint64_t{1} << 16;
  /// Promote an ad whose epoch count reaches this share of the epoch...
  double promote_share = 1.0 / 512;
  /// ...and at least this many clicks (guards tiny first epochs).
  std::uint64_t min_promote_count = 64;
  /// Demote a hot ad whose epoch count falls below this share (set it
  /// several times under promote_share: the gap is the hysteresis band
  /// that keeps borderline ads from thrashing between tiers).
  double demote_share = 1.0 / 4096;
  /// Optional hard bound on hot-tier size (0 = memory cap governs alone).
  std::size_t max_hot_ads = 0;

  /// Forwarded to every make_detector call (backend stays kAuto: the
  /// factory picks the paper-recommended algorithm per window).
  std::uint64_t seed = 0;
};

/// Per-tier operational counters, the payload behind the wire STATS frame.
struct TierStats {
  std::uint64_t clicks = 0;      ///< total offered
  std::uint64_t duplicates = 0;  ///< total flagged
  std::uint64_t hot_clicks = 0;
  std::uint64_t hot_duplicates = 0;
  std::uint64_t tail_clicks = 0;  ///< clicks whose ad was tail-resident
  std::uint64_t tail_duplicates = 0;
  std::uint64_t hot_ads = 0;  ///< current hot-tier population
  std::uint64_t hot_memory_bits = 0;
  std::uint64_t tail_memory_bits = 0;
  std::uint64_t memory_bits = 0;      ///< hot + tail
  std::uint64_t memory_cap_bits = 0;  ///< the admission bound
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t promotion_deferrals = 0;  ///< promotions the cap refused
  double hot_target_fpr = 0.0;
  double tail_target_fpr = 0.0;
};

class TieredDetectorPool {
 public:
  using Options = TieredPoolOptions;

  /// Builds the tail detector eagerly (it must exist before the first
  /// click). @throws std::invalid_argument if the options are nonsense or
  /// the tail detector alone exceeds memory_cap_bits — a configuration
  /// error, unlike runtime admission which never throws.
  explicit TieredDetectorPool(Options opts = {});

  /// Routes one click through its ad's tier. Never throws length_error:
  /// first-seen ads share the tail detector.
  bool offer(std::uint32_t ad_id, core::ClickId id, std::uint64_t time_us = 0);

  /// Batch route path with per-click timestamps (times.size() ≥ n).
  /// Verdict-for-verdict identical to offering in a loop — maintenance
  /// epochs land on the same click boundaries.
  void offer_batch(std::span<const std::uint32_t> ad_ids,
                   std::span<const core::ClickId> ids,
                   std::span<const std::uint64_t> times, std::span<bool> out);

  bool ad_is_hot(std::uint32_t ad_id) const;
  TierStats stats() const;
  std::size_t memory_bits() const;
  std::size_t memory_cap_bits() const noexcept {
    return opts_.memory_cap_bits;
  }
  const Options& options() const noexcept { return opts_; }

  /// Serializes the complete pool — counters, the SpaceSaving epoch
  /// summary, the tail detector, and every hot ad's membership record
  /// (id, sizing, grace) with its nested detector state — as one
  /// versioned CRC-checked kTieredPoolMagic section.
  void save(std::ostream& out) const;

  /// Restores state saved by save() into a pool constructed with the SAME
  /// options (geometry-bearing fields are fingerprinted and checked).
  /// Corrupt input throws std::runtime_error before any tier state is
  /// replaced where detectable; a nested failure mid-restore leaves the
  /// pool unusable — discard it.
  void restore(std::istream& in);

 private:
  struct HotEntry {
    std::unique_ptr<core::DuplicateDetector> detector;
    std::uint64_t sized_n = 0;       ///< elements the budget was planned for
    std::uint64_t grace_left = 0;    ///< count-basis handover clicks left
    std::uint64_t grace_until_us = 0;  ///< time-basis handover deadline
    std::uint64_t epoch_count = 0;   ///< clicks this epoch (demotion input)
    std::size_t memory_bits = 0;
  };

  /// The one routing path behind offer() (a batch of one) and
  /// offer_batch.
  void route_locked(std::span<const std::uint32_t> ad_ids,
                    std::span<const core::ClickId> ids,
                    std::span<const std::uint64_t> times,
                    std::span<bool> out);
  void maintain_locked();
  /// Builds a hot detector for `ad` sized from `observed` epoch clicks;
  /// returns false (deferral) if it won't fit under the cap.
  bool promote_locked(std::uint32_t ad, std::uint64_t observed);
  std::uint64_t sized_n_for(std::uint64_t observed) const;
  std::unique_ptr<core::DuplicateDetector> build_hot_detector(
      std::uint64_t sized_n) const;

  Options opts_;
  mutable std::mutex mutex_;
  std::unique_ptr<core::DuplicateDetector> tail_;
  // std::map, not unordered_map: maintenance scans and snapshots want the
  // ads in ascending order, and the hot tier is small by construction.
  std::map<std::uint32_t, HotEntry> hot_;
  analysis::SpaceSaving hh_;
  std::size_t memory_bits_ = 0;  ///< tail + hot, maintained incrementally

  std::uint64_t clicks_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t hot_clicks_ = 0;
  std::uint64_t hot_duplicates_ = 0;
  std::uint64_t tail_clicks_ = 0;
  std::uint64_t tail_duplicates_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t promotion_deferrals_ = 0;
  std::uint64_t epoch_clicks_seen_ = 0;
  std::uint64_t epoch_start_time_us_ = 0;  ///< rate input for time windows
  std::uint64_t last_time_us_ = 0;
};

}  // namespace ppc::adnet
