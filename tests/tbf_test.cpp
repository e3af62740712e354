// Tests for the Timing Bloom Filter (paper §4): sliding-window semantics,
// wraparound-counter safety, jumping mode, the C space/time knob, the
// time-based extension, and zero false negatives against ground truth.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "baseline/exact_detectors.hpp"
#include "core/detector_factory.hpp"
#include "core/timing_bloom_filter.hpp"
#include "detector_test_util.hpp"
#include "analysis/validity_oracle.hpp"

namespace ppc::core {
namespace {

TimingBloomFilter::Options small_opts(std::uint64_t m = 1u << 16,
                                      std::size_t k = 6,
                                      std::uint64_t c = 0) {
  TimingBloomFilter::Options o;
  o.entries = m;
  o.hash_count = k;
  o.c = c;
  return o;
}

TEST(Tbf, RejectsLandmarkWindows) {
  EXPECT_THROW(
      TimingBloomFilter(WindowSpec::landmark_count(10), small_opts()),
      std::invalid_argument);
}

TEST(Tbf, RejectsZeroEntries) {
  EXPECT_THROW(
      TimingBloomFilter(WindowSpec::sliding_count(10), small_opts(0)),
      std::invalid_argument);
}

TEST(Tbf, ImmediateDuplicateIsFlagged) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(100), small_opts());
  EXPECT_FALSE(tbf.offer(42));
  EXPECT_TRUE(tbf.offer(42));
  EXPECT_FALSE(tbf.offer(43));
}

TEST(Tbf, SlidingExpiryIsExactlyN) {
  // With a sliding window of N arrivals, an id seen at arrival 0 is a
  // duplicate up to arrival N-1 and fresh again at arrival N.
  constexpr std::uint64_t kN = 64;
  {
    TimingBloomFilter tbf(WindowSpec::sliding_count(kN), small_opts());
    EXPECT_FALSE(tbf.offer(7));                            // arrival 0
    for (std::uint64_t i = 1; i < kN - 1; ++i) tbf.offer(1000 + i);
    EXPECT_TRUE(tbf.offer(7));  // arrival N-1: last in-window position
  }
  {
    TimingBloomFilter tbf(WindowSpec::sliding_count(kN), small_opts());
    EXPECT_FALSE(tbf.offer(7));                            // arrival 0
    for (std::uint64_t i = 1; i < kN; ++i) tbf.offer(1000 + i);
    EXPECT_FALSE(tbf.offer(7)) << "arrival N must be outside the window";
  }
}

TEST(Tbf, EntryWidthMatchesTheoremTwo) {
  // N = 2^10, default C = N-1 → wrap = 2N-1 → 11-bit entries.
  TimingBloomFilter tbf(WindowSpec::sliding_count(1 << 10), small_opts());
  EXPECT_EQ(tbf.entry_bits(), 11u);
  EXPECT_EQ(tbf.c(), (1u << 10) - 1);
  EXPECT_EQ(tbf.memory_bits(), tbf.entries() * 11);
}

TEST(Tbf, CleanStrideCoversTableWithinCArrivals) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(1 << 10),
                        small_opts(1 << 16));
  EXPECT_GE(tbf.clean_stride() * tbf.c(), tbf.entries());
}

TEST(Tbf, NoAliasingAcrossManyCounterRevolutions) {
  // The wraparound counter revolves every N+C arrivals. Feed a distinct
  // stream long enough for many revolutions; with a *huge* filter relative
  // to N, collisions are essentially impossible, so any duplicate verdict
  // would be a stale timestamp aliasing as fresh.
  constexpr std::uint64_t kN = 128;
  TimingBloomFilter tbf(WindowSpec::sliding_count(kN), small_opts(1u << 18, 4));
  for (std::uint64_t i = 0; i < 40 * kN; ++i) {
    EXPECT_FALSE(tbf.offer(i)) << "aliasing false positive at arrival " << i;
  }
}

TEST(Tbf, SmallCStillCorrectJustSlower) {
  // C=1 forces a full table scan every arrival — the paper's degenerate
  // case. Verdicts must be unchanged.
  constexpr std::uint64_t kN = 64;
  TimingBloomFilter fast(WindowSpec::sliding_count(kN), small_opts(1u << 12, 4));
  TimingBloomFilter slow(WindowSpec::sliding_count(kN),
                         small_opts(1u << 12, 4, /*c=*/1));
  const auto ids = testutil::make_id_stream(kN * 30, 0.3, kN * 2, 5);
  for (std::uint64_t id : ids) EXPECT_EQ(fast.offer(id), slow.offer(id));
}

TEST(Tbf, LargerCUsesWiderEntriesButShorterScans) {
  const auto w = WindowSpec::sliding_count(1 << 10);
  TimingBloomFilter small_c(w, small_opts(1 << 14, 4, /*c=*/64));
  TimingBloomFilter large_c(w, small_opts(1 << 14, 4, /*c=*/(1 << 14)));
  EXPECT_LT(small_c.entry_bits(), large_c.entry_bits());
  EXPECT_GT(small_c.clean_stride(), large_c.clean_stride());
}

TEST(Tbf, ResetForgetsEverything) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(100), small_opts());
  tbf.offer(1);
  tbf.reset();
  EXPECT_FALSE(tbf.offer(1));
  // Exactly one insert after reset: at most k (distinct) entries in use.
  EXPECT_GT(tbf.fill_factor(), 0.0);
  EXPECT_LE(tbf.fill_factor(), 6.0 / (1 << 16));
}

TEST(Tbf, OpCounterTracksEntryTraffic) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(1 << 10),
                        small_opts(1 << 14, 5));
  OpCounter ops;
  tbf.set_op_counter(&ops);
  tbf.offer(9);
  EXPECT_EQ(ops.hash_evals, 1u);
  EXPECT_GE(ops.entry_reads, 1u);           // probe reads until first EMPTY
  EXPECT_EQ(ops.entry_writes, 5u);          // fresh id: k timestamp writes
}

// ------------------------------------------------------- jumping mode

TEST(TbfJumping, SharesTimestampPerSubwindow) {
  // N=100, Q=100 sub-windows of 1 → degenerates to sliding of 100.
  const auto w = WindowSpec::jumping_count(100, 100);
  TimingBloomFilter tbf(w, small_opts());
  EXPECT_EQ(tbf.window_ticks(), 100u);
  EXPECT_FALSE(tbf.offer(5));
  EXPECT_TRUE(tbf.offer(5));
}

TEST(TbfJumping, ExpiresWholeSubwindowsTogether) {
  // N=40, Q=4 → granularity 10. An id at arrival 0 lives through the
  // window and expires when its sub-window leaves (at the 4th jump).
  const auto w = WindowSpec::jumping_count(40, 4);
  TimingBloomFilter tbf(w, small_opts());
  EXPECT_FALSE(tbf.offer(7));                          // arrival 0, tick 0
  for (std::uint64_t i = 1; i < 39; ++i) tbf.offer(100 + i);
  EXPECT_TRUE(tbf.offer(7));                           // arrival 39, tick 3
  for (std::uint64_t i = 0; i < 10; ++i) tbf.offer(200 + i);
  EXPECT_FALSE(tbf.offer(7)) << "sub-window 0 should have expired";
}

// ------------------------------------------------------ time-based mode

TEST(TbfTimeBased, ExpiresByElapsedTime) {
  // 1s window in 10ms units → R=100 ticks.
  const auto w = WindowSpec::sliding_time(1'000'000, 10'000);
  TimingBloomFilter tbf(w, small_opts());
  EXPECT_FALSE(tbf.offer(5, 0));
  EXPECT_TRUE(tbf.offer(5, 500'000));     // 0.5s later: in window
  EXPECT_FALSE(tbf.offer(5, 2'000'000));  // 2s later: expired
  EXPECT_TRUE(tbf.offer(5, 2'100'000));   // re-validated at 2s
}

TEST(TbfTimeBased, HandlesIdleGapsLongerThanTheCounter) {
  const auto w = WindowSpec::sliding_time(1'000'000, 10'000);
  TimingBloomFilter tbf(w, small_opts());
  tbf.offer(5, 0);
  // Idle for >> (R + C) ticks: catch-up must reset, not alias.
  EXPECT_FALSE(tbf.offer(5, 3'600'000'000ull));
  EXPECT_TRUE(tbf.offer(5, 3'600'000'001ull));
}

std::string saved(const TimingBloomFilter& tbf) {
  std::ostringstream out(std::ios::binary);
  tbf.save(out);
  return out.str();
}

TEST(TbfTimeBased, StaleStampIsJudgedAtTheCurrentUnit) {
  // Clicks of different connections interleave at a server sink, so a
  // stamp older than the clock is traffic, not an error: it is judged
  // exactly like the same click stamped at the current unit.
  const auto w = WindowSpec::sliding_time(1'000'000, 10'000);
  TimingBloomFilter stale(w, small_opts());
  TimingBloomFilter current(w, small_opts());
  for (std::uint64_t i = 0; i < 50; ++i) {
    stale.offer(i, 4'000'000 + i * 20'000);
    current.offer(i, 4'000'000 + i * 20'000);
  }
  const std::uint64_t now = 4'000'000 + 49 * 20'000;
  // A fresh id, an in-window duplicate, and an id whose stale stamp lies
  // outside the window the clock has moved on to.
  for (const ClickId id : {ClickId{1000}, ClickId{49}, ClickId{2}}) {
    EXPECT_EQ(stale.offer(id, 1'000'000), current.offer(id, now)) << id;
  }
  EXPECT_EQ(saved(stale), saved(current));

  // The batch path applies the same rule per click.
  const ClickId ids[] = {2000, 2001, 2000, 40, 2002};
  const std::uint64_t stale_times[] = {now + 30'000, now, now + 10'000,
                                       5'000, now + 30'000};
  const std::uint64_t clamped[] = {now + 30'000, now + 30'000, now + 30'000,
                                   now + 30'000, now + 30'000};
  bool got[5], want[5];
  stale.offer_batch(ids, stale_times, got);
  current.offer_batch(ids, clamped, want);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(got[i], want[i]) << i;
  EXPECT_EQ(saved(stale), saved(current));
}

TEST(TbfTimeBased, SelfConsistentOnRandomTraffic) {
  const auto w = WindowSpec::sliding_time(100'000, 1'000);  // 100 ticks
  TimingBloomFilter sketch(w, small_opts(1u << 16, 5));
  analysis::TimeSlidingOracle oracle(100, 1'000);
  stream::Rng rng(17);
  std::vector<std::uint64_t> ids, times;
  std::uint64_t t = 0;
  for (int i = 0; i < 20'000; ++i) {
    t += 1 + rng.below(3'000);
    ids.push_back(rng.below(300));  // small space → many duplicates
    times.push_back(t);
  }
  const auto counts =
      analysis::run_self_consistency(sketch, oracle, ids, &times);
  EXPECT_EQ(counts.false_negative, 0u) << counts.summary();
  EXPECT_GT(counts.true_duplicate, 1000u) << counts.summary();
  EXPECT_LT(counts.false_positive_rate(), 0.02) << counts.summary();
}

// --------------------------------------------------- property: zero FN

struct TbfPropertyCase {
  std::uint64_t window;
  std::uint32_t q;  // 0 = sliding
  double dup_prob;
  std::uint64_t c;  // 0 = default
  std::uint64_t seed;
};

class TbfZeroFnTest : public ::testing::TestWithParam<TbfPropertyCase> {};

TEST_P(TbfZeroFnTest, NeverMissesAWindowDuplicate) {
  const auto& p = GetParam();
  const auto w = p.q == 0 ? WindowSpec::sliding_count(p.window)
                          : WindowSpec::jumping_count(p.window, p.q);
  TimingBloomFilter sketch(w, small_opts(1u << 17, 6, p.c));
  std::unique_ptr<analysis::ValidityOracle> oracle;
  if (p.q == 0) {
    oracle = std::make_unique<analysis::SlidingOracle>(p.window);
  } else {
    oracle = std::make_unique<analysis::JumpingOracle>(p.window, p.q);
  }
  const auto ids =
      testutil::make_id_stream(p.window * 8, p.dup_prob, p.window * 2, p.seed);
  const auto counts = analysis::run_self_consistency(sketch, *oracle, ids);
  EXPECT_EQ(counts.false_negative, 0u)
      << "Theorem 2(1) violated: " << counts.summary();
  EXPECT_LT(counts.false_positive_rate(), 0.02) << counts.summary();
}

INSTANTIATE_TEST_SUITE_P(
    WindowShapes, TbfZeroFnTest,
    ::testing::Values(TbfPropertyCase{64, 0, 0.2, 0, 1},
                      TbfPropertyCase{256, 0, 0.4, 0, 2},
                      TbfPropertyCase{1000, 0, 0.1, 0, 3},
                      TbfPropertyCase{4096, 0, 0.25, 0, 4},
                      TbfPropertyCase{256, 0, 0.3, 7, 5},     // tiny C
                      TbfPropertyCase{256, 0, 0.3, 4096, 6},  // huge C
                      TbfPropertyCase{512, 128, 0.2, 0, 7},   // jumping large Q
                      TbfPropertyCase{1024, 256, 0.3, 0, 8},
                      TbfPropertyCase{300, 30, 0.4, 0, 9},
                      TbfPropertyCase{77, 7, 0.5, 3, 10},
                      TbfPropertyCase{1, 0, 0.5, 0, 11},       // window of 1
                      TbfPropertyCase{2, 0, 0.6, 0, 12},
                      TbfPropertyCase{997, 0, 0.3, 0, 13},     // prime N
                      TbfPropertyCase{1000, 3, 0.3, 0, 14}));  // N % Q != 0

// resolve_geometry is the single source of truth for the tick model shared
// by the constructor and the factory's entry-count sizing — regression
// tests pin the corner cases that used to live (divergently) in both.
TEST(TbfGeometry, SingleTickWindowCorner) {
  const auto g =
      TimingBloomFilter::resolve_geometry(WindowSpec::sliding_count(1), 0);
  EXPECT_EQ(g.window_ticks, 1u);
  EXPECT_EQ(g.granularity, 1u);
  EXPECT_EQ(g.c, 1u);  // the C default max(1, ticks-1) never hits zero
  EXPECT_EQ(g.wrap, 2u);
  EXPECT_EQ(g.entry_bits, 2u);  // timestamps {0,1} + reserved EMPTY

  // jumping with Q == 1 sub-window is also a one-tick window.
  const auto j =
      TimingBloomFilter::resolve_geometry(WindowSpec::jumping_count(8, 1), 0);
  EXPECT_EQ(j.window_ticks, 1u);
  EXPECT_EQ(j.granularity, 8u);
  EXPECT_EQ(j.c, 1u);

  // A filter at this corner still behaves. A window of the last 1 arrival
  // holds no PREVIOUS arrival at query time (the repeat arrives at
  // position N == 1, already outside — same rule SlidingExpiryIsExactlyN
  // pins for larger N), so every offer is fresh.
  TimingBloomFilter tiny(WindowSpec::sliding_count(1), small_opts(1u << 10));
  EXPECT_FALSE(tiny.offer(42));
  EXPECT_FALSE(tiny.offer(42));
}

TEST(TbfGeometry, TinyTimeWindowCorners) {
  // One time unit per window: R = 1 tick.
  const auto g = TimingBloomFilter::resolve_geometry(
      WindowSpec::sliding_time(1'000, 1'000), 0);
  EXPECT_EQ(g.window_ticks, 1u);
  EXPECT_EQ(g.c, 1u);
  // Exact division only — rejecting (not truncating) a length that is not
  // a multiple of the unit is the locked-in contract: a silently truncated
  // tick count would undersize the wrap space and alias timestamps.
  EXPECT_THROW(TimingBloomFilter::resolve_geometry(
                   WindowSpec::sliding_time(1'500, 1'000), 0),
               std::invalid_argument);
  EXPECT_THROW(
      TimingBloomFilter(WindowSpec::sliding_time(1'500, 1'000), small_opts()),
      std::invalid_argument);
  EXPECT_THROW(make_detector(WindowSpec::sliding_time(1'500, 1'000),
                             DetectorBudget{}),
               std::invalid_argument);
}

TEST(TbfGeometry, ConstructorAndGeometryAgreeOnEntryBits) {
  for (const auto& w :
       {WindowSpec::sliding_count(1), WindowSpec::sliding_count(1000),
        WindowSpec::jumping_count(1000, 8),
        WindowSpec::sliding_time(1'000'000, 1'000)}) {
    const auto g = TimingBloomFilter::resolve_geometry(w, 0);
    TimingBloomFilter f(w, small_opts(1u << 10));
    EXPECT_EQ(f.memory_bits(), (1u << 10) * g.entry_bits) << w.describe();
  }
}

TEST(TbfDeterminism, SameSeedSameVerdicts) {
  const auto w = WindowSpec::sliding_count(512);
  TimingBloomFilter a(w, small_opts());
  TimingBloomFilter b(w, small_opts());
  const auto ids = testutil::make_id_stream(5000, 0.25, 1000, 99);
  for (std::uint64_t id : ids) EXPECT_EQ(a.offer(id), b.offer(id));
}

}  // namespace
}  // namespace ppc::core
