// Tests for the adaptive TieredDetectorPool: open admission under a fixed
// memory cap, SpaceSaving-driven promotion/demotion, the zero-FN tier-move
// guarantee, and snapshot round trips that preserve tier membership.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "adnet/tiered_detector_pool.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace ppc::adnet {
namespace {

TieredPoolOptions small_opts() {
  TieredPoolOptions opts;
  opts.memory_cap_bits = std::size_t{1} << 27;
  opts.hot_window = core::WindowSpec::sliding_count(256);
  opts.hot_target_fpr = 1e-4;
  opts.tail_window_clicks = std::uint64_t{1} << 17;
  opts.tail_target_fpr = 1e-3;
  opts.hh_capacity = 64;
  opts.epoch_clicks = 1 << 12;
  return opts;
}

TEST(TieredPool, RejectsNonsenseOptions) {
  TieredPoolOptions opts = small_opts();
  opts.hot_target_fpr = 0.0;
  EXPECT_THROW(TieredDetectorPool{opts}, std::invalid_argument);
  opts = small_opts();
  opts.tail_target_fpr = 1.0;
  EXPECT_THROW(TieredDetectorPool{opts}, std::invalid_argument);
  opts = small_opts();
  opts.demote_share = opts.promote_share;  // no hysteresis band
  EXPECT_THROW(TieredDetectorPool{opts}, std::invalid_argument);
  opts = small_opts();
  opts.memory_cap_bits = 8;  // tail alone cannot fit
  EXPECT_THROW(TieredDetectorPool{opts}, std::invalid_argument);
}

TEST(TieredPool, FirstSeenAdsNeverThrow) {
  // The scenario that kills DetectorPool: an open ad population far larger
  // than any per-ad budget. Every first-seen ad lands in the shared tail.
  TieredDetectorPool pool(small_opts());
  const std::size_t base = pool.memory_bits();
  for (std::uint32_t ad = 0; ad < 50'000; ++ad) {
    EXPECT_FALSE(pool.offer(ad, 1'000'000 + ad, ad));
  }
  EXPECT_EQ(pool.memory_bits(), base) << "tail-resident ads must cost nothing";
  EXPECT_LE(pool.memory_bits(), pool.memory_cap_bits());
  EXPECT_EQ(pool.stats().hot_ads, 0u);
  EXPECT_EQ(pool.stats().clicks, 50'000u);
}

TEST(TieredPool, TailDetectsDuplicatesPerAd) {
  TieredDetectorPool pool(small_opts());
  // Same identifier on two ads: composite keying keeps them distinct.
  EXPECT_FALSE(pool.offer(1, 42, 0));
  EXPECT_FALSE(pool.offer(2, 42, 1));
  EXPECT_TRUE(pool.offer(1, 42, 2));
  EXPECT_TRUE(pool.offer(2, 42, 3));
  EXPECT_EQ(pool.stats().tail_duplicates, 2u);
}

TEST(TieredPool, PromotesHeavyHitterIntoHotTier) {
  TieredDetectorPool pool(small_opts());
  stream::Rng rng(7);
  std::uint64_t fresh = 1'000'000;
  // Ad 9 carries half the stream; the rest is spread over 10k cold ads.
  for (int i = 0; i < 3 * (1 << 12); ++i) {
    const std::uint32_t ad =
        rng.chance(0.5) ? 9 : 100 + static_cast<std::uint32_t>(rng.below(10'000));
    pool.offer(ad, fresh++, static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(pool.ad_is_hot(9));
  const TierStats st = pool.stats();
  EXPECT_GE(st.promotions, 1u);
  EXPECT_GE(st.hot_ads, 1u);
  EXPECT_GT(st.hot_memory_bits, 0u);
  EXPECT_LE(st.memory_bits, st.memory_cap_bits);
  // The hot detector serves ad 9's window now.
  EXPECT_FALSE(pool.offer(9, 424242, 1 << 20));
  EXPECT_TRUE(pool.offer(9, 424242, (1 << 20) + 1));
}

TEST(TieredPool, FullBudgetDefersPromotionInsteadOfThrowing) {
  // Cap leaves no headroom above the tail: the promotion loop must defer
  // (and count it) while clicks keep flowing through the tail.
  TieredPoolOptions opts = small_opts();
  const std::size_t tail_bits = TieredDetectorPool(opts).memory_bits();
  opts.memory_cap_bits = tail_bits + 100;  // < any hot detector
  TieredDetectorPool pool(opts);
  std::uint64_t fresh = 1'000'000;
  for (int i = 0; i < 3 * (1 << 12); ++i) {
    ASSERT_NO_THROW(pool.offer(5, fresh++, static_cast<std::uint64_t>(i)));
  }
  const TierStats st = pool.stats();
  EXPECT_FALSE(pool.ad_is_hot(5));
  EXPECT_GE(st.promotion_deferrals, 1u);
  EXPECT_EQ(st.promotions, 0u);
  EXPECT_LE(st.memory_bits, opts.memory_cap_bits);
  // Duplicate detection still works from the tail.
  EXPECT_TRUE(pool.offer(5, fresh - 1, 1 << 20));
}

std::string save_bytes(const TieredDetectorPool& pool) {
  std::ostringstream out(std::ios::binary);
  pool.save(out);
  return out.str();
}

void expect_same_stats(const TierStats& a, const TierStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.clicks, b.clicks) << where;
  EXPECT_EQ(a.duplicates, b.duplicates) << where;
  EXPECT_EQ(a.hot_clicks, b.hot_clicks) << where;
  EXPECT_EQ(a.hot_duplicates, b.hot_duplicates) << where;
  EXPECT_EQ(a.tail_clicks, b.tail_clicks) << where;
  EXPECT_EQ(a.tail_duplicates, b.tail_duplicates) << where;
  EXPECT_EQ(a.hot_ads, b.hot_ads) << where;
  EXPECT_EQ(a.hot_memory_bits, b.hot_memory_bits) << where;
  EXPECT_EQ(a.tail_memory_bits, b.tail_memory_bits) << where;
  EXPECT_EQ(a.memory_bits, b.memory_bits) << where;
  EXPECT_EQ(a.memory_cap_bits, b.memory_cap_bits) << where;
  EXPECT_EQ(a.promotions, b.promotions) << where;
  EXPECT_EQ(a.demotions, b.demotions) << where;
  EXPECT_EQ(a.promotion_deferrals, b.promotion_deferrals) << where;
  EXPECT_EQ(a.hot_target_fpr, b.hot_target_fpr) << where;
  EXPECT_EQ(a.tail_target_fpr, b.tail_target_fpr) << where;
}

TEST(TieredPool, BatchMatchesScalarReplay) {
  // offer_batch must be verdict-for-verdict, counter-for-counter and
  // byte-for-byte identical to an offer() loop, at batch sizes
  // below, at, and above the tail chunk, with 1024-click epochs so batches
  // straddle maintenance boundaries — for count- and time-basis hot tiers.
  constexpr std::size_t kClicks = 20'000;
  std::vector<std::uint32_t> ads(kClicks);
  std::vector<core::ClickId> ids(kClicks);
  std::vector<std::uint64_t> times(kClicks);
  stream::Rng rng(11);
  std::uint64_t fresh = 1;
  std::vector<core::ClickId> recent;
  for (std::size_t i = 0; i < kClicks; ++i) {
    ads[i] = rng.chance(0.4) ? 3 : static_cast<std::uint32_t>(rng.below(500));
    if (!recent.empty() && rng.chance(0.2)) {
      ids[i] = recent[rng.below(recent.size())];
    } else {
      ids[i] = fresh++;
      if (recent.size() < 256) recent.push_back(ids[i]);
    }
    times[i] = i;
  }

  for (const core::WindowSpec hot_window :
       {core::WindowSpec::sliding_count(256),
        core::WindowSpec::sliding_time(2560, 10)}) {
    TieredPoolOptions opts = small_opts();
    opts.hot_window = hot_window;
    opts.epoch_clicks = 1 << 10;
    for (const std::size_t batch : {1, 7, 256, 999, 4096}) {
      const std::string where =
          hot_window.describe() + ", batch " + std::to_string(batch);
      TieredDetectorPool scalar_pool(opts);
      TieredDetectorPool batch_pool(opts);
      std::vector<char> scalar_out(kClicks);
      std::vector<char> batch_out_raw(kClicks);
      const std::span<bool> batch_out(
          reinterpret_cast<bool*>(batch_out_raw.data()), kClicks);
      for (std::size_t off = 0; off < kClicks; off += batch) {
        const std::size_t len = std::min(batch, kClicks - off);
        batch_pool.offer_batch(
            std::span<const std::uint32_t>(ads).subspan(off, len),
            std::span<const core::ClickId>(ids).subspan(off, len),
            std::span<const std::uint64_t>(times).subspan(off, len),
            batch_out.subspan(off, len));
      }
      for (std::size_t i = 0; i < kClicks; ++i) {
        scalar_out[i] = scalar_pool.offer(ads[i], ids[i], times[i]);
      }
      for (std::size_t i = 0; i < kClicks; ++i) {
        ASSERT_EQ(scalar_out[i] != 0, batch_out[i])
            << where << ": verdict diverged at click " << i;
      }
      const TierStats a = scalar_pool.stats();
      expect_same_stats(a, batch_pool.stats(), where);
      EXPECT_GT(a.promotions, 0u) << where << ": no tier move exercised";
      EXPECT_GT(a.duplicates, 0u) << where;
      EXPECT_EQ(save_bytes(scalar_pool), save_bytes(batch_pool)) << where;
    }
  }
}

// The tentpole property: a Zipf stream whose hotset SHIFTS between phases,
// so ads are promoted, go cold, and are demoted while duplicates keep
// arriving. Every injected duplicate lies within its ad's window AND within
// the tail window of its original, so per the tier-move guarantee (header
// comment / DESIGN.md "Tier moves") the pool must flag every single one —
// zero false negatives across promotions, grace handovers and demotions.
TEST(TieredPool, ZeroFalseNegativesAcrossShiftingHotsetChurn) {
  TieredPoolOptions opts = small_opts();  // tail window 2^17 > whole stream
  TieredDetectorPool pool(opts);
  stream::Rng rng(13);
  stream::ZipfSampler zipf(4'000, 1.1);

  constexpr int kPhases = 3;
  constexpr int kPhaseClicks = 40'000;
  struct Original {
    core::ClickId id;
    std::uint64_t ad_click_idx;  // the ad's click counter at (re)insertion
  };
  std::unordered_map<std::uint32_t, std::vector<Original>> recent;
  std::unordered_map<std::uint32_t, std::uint64_t> ad_clicks;
  std::uint64_t fresh = std::uint64_t{1} << 40;
  std::uint64_t t = 0;
  std::uint64_t false_negatives = 0, false_positives = 0, dup_checked = 0,
                 fresh_checked = 0;

  for (int phase = 0; phase < kPhases; ++phase) {
    for (int i = 0; i < kPhaseClicks; ++i, ++t) {
      // Phase p's hotset is 8 dedicated ads; it shifts every phase so the
      // previous hotset goes cold and must be demoted.
      std::uint32_t ad;
      if (rng.chance(0.6)) {
        ad = static_cast<std::uint32_t>(phase * 100 + rng.below(8));
      } else {
        ad = 10'000 + static_cast<std::uint32_t>(zipf.sample(rng));
      }
      std::uint64_t& clicks_of_ad = ad_clicks[ad];
      std::vector<Original>& ring = recent[ad];

      // Try to replay a recent original of this ad: gap <= 100 ad-clicks
      // from the INSERTION keeps it comfortably inside the sliding-256 hot
      // window. A flagged duplicate is not re-stamped by the filters, so
      // the gap always measures from the original insertion, never from an
      // earlier replay.
      const Original* dup = nullptr;
      if (rng.chance(0.15)) {
        for (const Original& o : ring) {
          if (clicks_of_ad - o.ad_click_idx <= 100) {
            dup = &o;
            break;
          }
        }
      }
      if (dup != nullptr) {
        const bool verdict = pool.offer(ad, dup->id, t);
        ++dup_checked;
        if (!verdict) ++false_negatives;
      } else {
        const core::ClickId id = fresh++;
        const bool verdict = pool.offer(ad, id, t);
        ++fresh_checked;
        if (verdict) {
          // A false positive: the click was NOT inserted (flagged clicks
          // never are), so it must not enter the replay ring — replaying
          // it would manufacture a phantom false negative.
          ++false_positives;
        } else if (ring.size() < 8) {
          ring.push_back({id, clicks_of_ad});
        } else {
          ring[rng.below(ring.size())] = {id, clicks_of_ad};
        }
      }
      ++clicks_of_ad;
    }
  }

  EXPECT_EQ(false_negatives, 0u)
      << "of " << dup_checked << " in-window duplicates";
  EXPECT_GT(dup_checked, 5'000u);  // the stream actually exercised the claim
  // Churn actually happened: phase hotsets were promoted and later demoted.
  const TierStats st = pool.stats();
  EXPECT_GE(st.promotions, 8u);
  EXPECT_GE(st.demotions, 8u);
  EXPECT_TRUE(pool.ad_is_hot(200)) << "final phase's hotset should be hot";
  EXPECT_FALSE(pool.ad_is_hot(0)) << "phase 0's hotset should be demoted";
  EXPECT_LE(st.memory_bits, st.memory_cap_bits);
  EXPECT_EQ(st.clicks, static_cast<std::uint64_t>(kPhases) * kPhaseClicks);
  EXPECT_EQ(st.hot_clicks + st.tail_clicks, st.clicks);
  EXPECT_EQ(st.hot_duplicates + st.tail_duplicates, st.duplicates);
  // Loose FP sanity: targets are 1e-3 (tail) / 1e-4 (hot); 1% is far out.
  EXPECT_LT(static_cast<double>(false_positives),
            0.01 * static_cast<double>(fresh_checked));
}

TEST(TieredPool, SnapshotRoundTripPreservesTiersAndVerdicts) {
  TieredPoolOptions opts = small_opts();
  opts.epoch_clicks = 1 << 11;
  TieredDetectorPool pool(opts);
  stream::Rng rng(17);
  std::uint64_t fresh = 1'000'000;
  std::vector<std::pair<std::uint32_t, core::ClickId>> originals;
  std::uint64_t t = 0;
  for (int i = 0; i < 30'000; ++i, ++t) {
    const std::uint32_t ad =
        rng.chance(0.5) ? static_cast<std::uint32_t>(1 + rng.below(4))
                        : 100 + static_cast<std::uint32_t>(rng.below(2'000));
    const core::ClickId id = fresh++;
    pool.offer(ad, id, t);
    if (i >= 29'000) originals.emplace_back(ad, id);  // recent, in-window
  }
  ASSERT_GT(pool.stats().hot_ads, 0u);

  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  pool.save(snap);

  TieredDetectorPool restored(opts);
  restored.restore(snap);

  // Tier membership, counters and memory metering all survive.
  const TierStats a = pool.stats();
  const TierStats b = restored.stats();
  EXPECT_EQ(a.clicks, b.clicks);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.hot_ads, b.hot_ads);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.memory_bits, b.memory_bits);
  for (std::uint32_t ad = 1; ad <= 4; ++ad) {
    EXPECT_EQ(pool.ad_is_hot(ad), restored.ad_is_hot(ad)) << "ad " << ad;
  }

  // Verdict continuity: duplicates of pre-snapshot originals are flagged by
  // BOTH pools, and a fresh continuation stream gets identical verdicts.
  for (const auto& [ad, id] : originals) {
    EXPECT_TRUE(pool.offer(ad, id, t));
    EXPECT_TRUE(restored.offer(ad, id, t));
    ++t;
  }
  for (int i = 0; i < 10'000; ++i, ++t) {
    const std::uint32_t ad =
        rng.chance(0.5) ? static_cast<std::uint32_t>(1 + rng.below(4))
                        : 100 + static_cast<std::uint32_t>(rng.below(2'000));
    const core::ClickId id = rng.chance(0.3) ? fresh - 1 - rng.below(200)
                                             : fresh++;
    ASSERT_EQ(pool.offer(ad, id, t), restored.offer(ad, id, t))
        << "continuation diverged at click " << i;
  }
}

TEST(TieredPool, RestoreRejectsMismatchedOptions) {
  TieredDetectorPool pool(small_opts());
  pool.offer(1, 1, 0);
  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  pool.save(snap);

  TieredPoolOptions other = small_opts();
  other.hot_window = core::WindowSpec::sliding_count(512);
  TieredDetectorPool mismatched(other);
  EXPECT_THROW(mismatched.restore(snap), std::runtime_error);
}

TEST(TieredPool, RestoreRejectsCorruptPayload) {
  TieredDetectorPool pool(small_opts());
  pool.offer(1, 1, 0);
  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  pool.save(snap);
  std::string bytes = snap.str();
  bytes[bytes.size() / 2] ^= 0x5a;  // flip a payload bit: CRC must catch it
  std::istringstream corrupt(bytes, std::ios::binary);
  TieredDetectorPool target(small_opts());
  EXPECT_THROW(target.restore(corrupt), std::runtime_error);
}

}  // namespace
}  // namespace ppc::adnet
