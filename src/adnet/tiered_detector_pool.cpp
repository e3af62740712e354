#include "adnet/tiered_detector_pool.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/sizing.hpp"
#include "core/snapshot_io.hpp"

namespace ppc::adnet {

namespace {

/// Sanity cap on restored hot ads, mirroring DetectorPool::kMaxSnapshotAds.
constexpr std::uint64_t kMaxSnapshotHotAds = std::uint64_t{1} << 20;

/// Clicks whose composite keys go through the tail's offer_batch at once:
/// long enough for its hash-and-prefetch pipeline to run ahead, short
/// enough for the key and verdict buffers to live on the stack.
constexpr std::size_t kTailChunk = 256;

}  // namespace

TieredDetectorPool::TieredDetectorPool(Options opts)
    : opts_(opts), hh_(opts.hh_capacity) {
  opts_.hot_window.validate();
  if (!(opts_.hot_target_fpr > 0.0 && opts_.hot_target_fpr < 1.0) ||
      !(opts_.tail_target_fpr > 0.0 && opts_.tail_target_fpr < 1.0)) {
    throw std::invalid_argument(
        "TieredDetectorPool: FP targets must be in (0, 1)");
  }
  if (opts_.tail_window_clicks == 0 || opts_.epoch_clicks == 0) {
    throw std::invalid_argument(
        "TieredDetectorPool: tail_window_clicks and epoch_clicks must be "
        ">= 1");
  }
  if (!(opts_.promote_share > opts_.demote_share)) {
    throw std::invalid_argument(
        "TieredDetectorPool: promote_share must exceed demote_share (the "
        "gap is the tier-thrash hysteresis)");
  }
  const analysis::BudgetPlan plan = analysis::plan_budget(
      core::WindowSpec::sliding_count(opts_.tail_window_clicks),
      opts_.tail_target_fpr);
  core::DetectorBudget budget;
  budget.total_memory_bits = plan.total_memory_bits;
  budget.hash_count = plan.hash_count;
  budget.seed = opts_.seed;
  tail_ = core::make_detector(
      core::WindowSpec::sliding_count(opts_.tail_window_clicks), budget);
  memory_bits_ = tail_->memory_bits();
  if (memory_bits_ > opts_.memory_cap_bits) {
    throw std::invalid_argument(
        "TieredDetectorPool: tail detector alone needs " +
        std::to_string(memory_bits_) + " bits, over the " +
        std::to_string(opts_.memory_cap_bits) +
        "-bit cap — shrink tail_window_clicks or relax tail_target_fpr");
  }
}

std::uint64_t TieredDetectorPool::sized_n_for(std::uint64_t observed) const {
  if (opts_.hot_window.basis == core::WindowBasis::kCount) {
    return opts_.hot_window.length;  // capacity is the window itself
  }
  // Time basis: scale the epoch observation to clicks-per-window-span.
  const std::uint64_t elapsed = last_time_us_ - epoch_start_time_us_;
  if (elapsed == 0) return std::max<std::uint64_t>(observed, 1);
  const double per_span = static_cast<double>(observed) *
                          static_cast<double>(opts_.hot_window.length) /
                          static_cast<double>(elapsed);
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(per_span) + 1);
}

std::unique_ptr<core::DuplicateDetector> TieredDetectorPool::build_hot_detector(
    std::uint64_t sized_n) const {
  const analysis::BudgetPlan plan = analysis::plan_budget(
      opts_.hot_window, opts_.hot_target_fpr,
      opts_.hot_window.basis == core::WindowBasis::kTime ? sized_n : 0);
  core::DetectorBudget budget;
  budget.total_memory_bits = plan.total_memory_bits;
  budget.hash_count = plan.hash_count;
  budget.seed = opts_.seed;
  return core::make_detector(opts_.hot_window, budget);
}

bool TieredDetectorPool::promote_locked(std::uint32_t ad,
                                        std::uint64_t observed) {
  if (opts_.max_hot_ads != 0 && hot_.size() >= opts_.max_hot_ads) {
    ++promotion_deferrals_;
    return false;
  }
  const std::uint64_t sized_n = sized_n_for(observed);
  auto detector = build_hot_detector(sized_n);
  const std::size_t mem = detector->memory_bits();
  if (memory_bits_ + mem > opts_.memory_cap_bits) {
    ++promotion_deferrals_;  // budget full: the ad stays in the tail
    return false;
  }
  HotEntry entry;
  entry.detector = std::move(detector);
  entry.sized_n = sized_n;
  if (opts_.hot_window.basis == core::WindowBasis::kCount) {
    entry.grace_left = opts_.hot_window.length;
  } else {
    entry.grace_until_us = last_time_us_ + opts_.hot_window.length;
  }
  entry.memory_bits = mem;
  hot_.emplace(ad, std::move(entry));
  memory_bits_ += mem;
  ++promotions_;
  return true;
}

void TieredDetectorPool::maintain_locked() {
  const std::uint64_t epoch_len = epoch_clicks_seen_;
  if (epoch_len == 0) return;

  // Demotions first: they free budget the promotions below can spend, and
  // an ad promoted in THIS pass (epoch_count == 0 until next epoch) must
  // not be demoted by the same scan that created it.
  const double demote_floor =
      opts_.demote_share * static_cast<double>(epoch_len);
  for (auto it = hot_.begin(); it != hot_.end();) {
    if (static_cast<double>(it->second.epoch_count) < demote_floor) {
      memory_bits_ -= it->second.memory_bits;
      ++demotions_;
      it = hot_.erase(it);  // tail shadow keeps its recent originals
    } else {
      it->second.epoch_count = 0;
      ++it;
    }
  }

  // Promotions: hottest first (entries() sorts descending), so when the
  // budget only fits some of this epoch's heavy hitters it goes to the
  // heaviest. The count-minus-error lower bound keeps SpaceSaving's
  // overestimation from promoting an ad that merely inherited a counter.
  const std::uint64_t promote_floor = std::max<std::uint64_t>(
      opts_.min_promote_count,
      static_cast<std::uint64_t>(
          opts_.promote_share * static_cast<double>(epoch_len)) +
          1);
  for (const analysis::SpaceSaving::Entry& e : hh_.entries()) {
    if (e.count - e.error < promote_floor) continue;
    const auto ad = static_cast<std::uint32_t>(e.key);
    if (hot_.contains(ad)) continue;
    promote_locked(ad, e.count - e.error);
  }

  hh_.clear();  // per-epoch counts: a shifted hotset demotes cleanly
  epoch_clicks_seen_ = 0;
  epoch_start_time_us_ = last_time_us_;
}

void TieredDetectorPool::route_locked(std::span<const std::uint32_t> ad_ids,
                                      std::span<const core::ClickId> ids,
                                      std::span<const std::uint64_t> times,
                                      std::span<bool> out) {
  // EVERY click shadows into the tail on its composite key — this is what
  // makes tier moves lossless (header comment): the tail always holds the
  // last tail_window_clicks arrivals no matter which tier served them.
  // The tail takes each chunk through its pipelined offer_batch before the
  // chunk is routed. That is exact: the tail sees the same keys in the
  // same order, and nothing else touches it — maintenance and promotion
  // read and write only the hot tier, the summary and the counters — so
  // an epoch boundary may fall anywhere inside a chunk (DESIGN.md "Tier
  // moves").
  std::array<core::ClickId, kTailChunk> keys;
  std::array<bool, kTailChunk> tail_out;
  const bool count_hot = opts_.hot_window.basis == core::WindowBasis::kCount;
  for (std::size_t base = 0; base < ids.size(); base += kTailChunk) {
    const std::size_t n = std::min(kTailChunk, ids.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      keys[j] = core::composite_click_key(ad_ids[base + j], ids[base + j]);
    }
    tail_->offer_batch(std::span<const core::ClickId>(keys.data(), n),
                       times.subspan(base, n),
                       std::span<bool>(tail_out.data(), n));

    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t ad_id = ad_ids[base + j];
      const std::uint64_t t = times[base + j];
      ++clicks_;
      ++epoch_clicks_seen_;
      last_time_us_ = std::max(last_time_us_, t);
      hh_.offer(ad_id);

      bool dup;
      const auto it = hot_.find(ad_id);
      if (it != hot_.end()) {
        HotEntry& entry = it->second;
        ++entry.epoch_count;
        const bool hot_dup = entry.detector->offer(ids[base + j], t);
        bool in_grace;
        if (count_hot) {
          in_grace = entry.grace_left > 0;
          if (in_grace) --entry.grace_left;
        } else {
          in_grace = t < entry.grace_until_us;
        }
        // During the handover grace the hot detector is still blind to
        // pre-promotion originals, so the tail's verdict counts;
        // afterwards it is ignored and hot FPR is the hot plan's alone.
        dup = hot_dup || (in_grace && tail_out[j]);
        ++hot_clicks_;
        hot_duplicates_ += dup ? 1 : 0;
      } else {
        dup = tail_out[j];
        ++tail_clicks_;
        tail_duplicates_ += dup ? 1 : 0;
      }
      duplicates_ += dup ? 1 : 0;
      out[base + j] = dup;

      if (epoch_clicks_seen_ >= opts_.epoch_clicks) maintain_locked();
    }
  }
}

bool TieredDetectorPool::offer(std::uint32_t ad_id, core::ClickId id,
                               std::uint64_t time_us) {
  bool dup = false;
  const std::lock_guard<std::mutex> lock(mutex_);
  route_locked(std::span<const std::uint32_t>(&ad_id, 1),
               std::span<const core::ClickId>(&id, 1),
               std::span<const std::uint64_t>(&time_us, 1),
               std::span<bool>(&dup, 1));
  return dup;
}

void TieredDetectorPool::offer_batch(std::span<const std::uint32_t> ad_ids,
                                     std::span<const core::ClickId> ids,
                                     std::span<const std::uint64_t> times,
                                     std::span<bool> out) {
  const std::size_t n = ids.size();
  if (ad_ids.size() != n || times.size() < n || out.size() < n) {
    throw std::invalid_argument(
        "TieredDetectorPool::offer_batch: span mismatch");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  route_locked(ad_ids, ids, times, out);
}

bool TieredDetectorPool::ad_is_hot(std::uint32_t ad_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hot_.contains(ad_id);
}

std::size_t TieredDetectorPool::memory_bits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return memory_bits_;
}

TierStats TieredDetectorPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TierStats s;
  s.clicks = clicks_;
  s.duplicates = duplicates_;
  s.hot_clicks = hot_clicks_;
  s.hot_duplicates = hot_duplicates_;
  s.tail_clicks = tail_clicks_;
  s.tail_duplicates = tail_duplicates_;
  s.hot_ads = hot_.size();
  s.tail_memory_bits = tail_->memory_bits();
  s.memory_bits = memory_bits_;
  s.hot_memory_bits = memory_bits_ - s.tail_memory_bits;
  s.memory_cap_bits = opts_.memory_cap_bits;
  s.promotions = promotions_;
  s.demotions = demotions_;
  s.promotion_deferrals = promotion_deferrals_;
  s.hot_target_fpr = opts_.hot_target_fpr;
  s.tail_target_fpr = opts_.tail_target_fpr;
  return s;
}

void TieredDetectorPool::save(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  namespace io = core::detail;
  io::write_section(out, io::kTieredPoolMagic, [&](std::ostream& ps) {
    // Geometry fingerprint: restore() refuses a snapshot whose tiers were
    // planned under different options (the detectors wouldn't line up).
    io::write_u64(ps, opts_.memory_cap_bits);
    io::write_u64(ps, std::bit_cast<std::uint64_t>(opts_.hot_target_fpr));
    io::write_u64(ps, std::bit_cast<std::uint64_t>(opts_.tail_target_fpr));
    io::write_u64(ps, opts_.tail_window_clicks);
    io::write_u64(ps, opts_.hh_capacity);
    io::write_u64(ps, opts_.epoch_clicks);
    io::write_window(ps, opts_.hot_window);

    io::write_u64(ps, clicks_);
    io::write_u64(ps, duplicates_);
    io::write_u64(ps, hot_clicks_);
    io::write_u64(ps, hot_duplicates_);
    io::write_u64(ps, tail_clicks_);
    io::write_u64(ps, tail_duplicates_);
    io::write_u64(ps, promotions_);
    io::write_u64(ps, demotions_);
    io::write_u64(ps, promotion_deferrals_);
    io::write_u64(ps, epoch_clicks_seen_);
    io::write_u64(ps, epoch_start_time_us_);
    io::write_u64(ps, last_time_us_);

    hh_.save(ps);
    tail_->save(ps);

    io::write_u64(ps, hot_.size());
    for (const auto& [ad, entry] : hot_) {  // std::map: ascending ad order
      io::write_u64(ps, ad);
      io::write_u64(ps, entry.sized_n);
      io::write_u64(ps, entry.grace_left);
      io::write_u64(ps, entry.grace_until_us);
      io::write_u64(ps, entry.epoch_count);
      entry.detector->save(ps);
    }
  });
}

void TieredDetectorPool::restore(std::istream& in) {
  const std::lock_guard<std::mutex> lock(mutex_);
  namespace io = core::detail;
  io::read_section(in, io::kTieredPoolMagic, "TieredDetectorPool",
                   [&](std::istream& ps) {
    const bool fingerprint_ok =
        io::read_u64(ps) == opts_.memory_cap_bits &&
        io::read_u64(ps) ==
            std::bit_cast<std::uint64_t>(opts_.hot_target_fpr) &&
        io::read_u64(ps) ==
            std::bit_cast<std::uint64_t>(opts_.tail_target_fpr) &&
        io::read_u64(ps) == opts_.tail_window_clicks &&
        io::read_u64(ps) == opts_.hh_capacity &&
        io::read_u64(ps) == opts_.epoch_clicks &&
        io::read_window(ps) == opts_.hot_window;
    if (!fingerprint_ok) {
      throw std::runtime_error(
          "TieredDetectorPool::restore: snapshot was saved under different "
          "tiering options");
    }

    clicks_ = io::read_u64(ps);
    duplicates_ = io::read_u64(ps);
    hot_clicks_ = io::read_u64(ps);
    hot_duplicates_ = io::read_u64(ps);
    tail_clicks_ = io::read_u64(ps);
    tail_duplicates_ = io::read_u64(ps);
    promotions_ = io::read_u64(ps);
    demotions_ = io::read_u64(ps);
    promotion_deferrals_ = io::read_u64(ps);
    epoch_clicks_seen_ = io::read_u64(ps);
    epoch_start_time_us_ = io::read_u64(ps);
    last_time_us_ = io::read_u64(ps);

    hh_.restore(ps);
    tail_->restore(ps);
    hot_.clear();
    memory_bits_ = tail_->memory_bits();

    const std::uint64_t hot_count = io::read_u64(ps);
    if (hot_count > kMaxSnapshotHotAds) {
      throw std::runtime_error(
          "TieredDetectorPool::restore: implausible hot-ad count " +
          std::to_string(hot_count));
    }
    std::uint64_t prev_ad = 0;
    for (std::uint64_t i = 0; i < hot_count; ++i) {
      const std::uint64_t ad = io::read_u64(ps);
      if (ad > 0xffffffffull || (i > 0 && ad <= prev_ad)) {
        throw std::runtime_error(
            "TieredDetectorPool::restore: hot ad ids corrupt or out of order");
      }
      prev_ad = ad;
      HotEntry entry;
      entry.sized_n = io::read_u64(ps);
      entry.grace_left = io::read_u64(ps);
      entry.grace_until_us = io::read_u64(ps);
      entry.epoch_count = io::read_u64(ps);
      entry.detector = build_hot_detector(entry.sized_n);
      try {
        entry.detector->restore(ps);
      } catch (const std::exception& e) {
        throw std::runtime_error("TieredDetectorPool::restore: hot ad " +
                                 std::to_string(ad) + ": " + e.what());
      }
      entry.memory_bits = entry.detector->memory_bits();
      if (memory_bits_ + entry.memory_bits > opts_.memory_cap_bits) {
        throw std::runtime_error(
            "TieredDetectorPool::restore: snapshot exceeds the memory cap");
      }
      memory_bits_ += entry.memory_bits;
      hot_.emplace(static_cast<std::uint32_t>(ad), std::move(entry));
    }
  });
}

}  // namespace ppc::adnet
