// Tests for the Group Bloom Filter (paper §3): verdict semantics, jumping-
// window expiry, slot discipline, time-based extension, and the zero-
// false-negative property against exact ground truth.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>

#include "baseline/exact_detectors.hpp"
#include "core/group_bloom_filter.hpp"
#include "detector_test_util.hpp"
#include "analysis/validity_oracle.hpp"

namespace ppc::core {
namespace {

GroupBloomFilter::Options small_opts(std::uint64_t m = 1u << 14,
                                     std::size_t k = 5) {
  GroupBloomFilter::Options o;
  o.bits_per_subfilter = m;
  o.hash_count = k;
  return o;
}

TEST(Gbf, RejectsSlidingWindows) {
  EXPECT_THROW(
      GroupBloomFilter(WindowSpec::sliding_count(100), small_opts()),
      std::invalid_argument);
}

TEST(Gbf, RejectsZeroMemory) {
  auto opts = small_opts(0);
  EXPECT_THROW(GroupBloomFilter(WindowSpec::jumping_count(100, 4), opts),
               std::invalid_argument);
}

TEST(Gbf, ImmediateDuplicateIsFlagged) {
  GroupBloomFilter gbf(WindowSpec::jumping_count(1000, 4), small_opts());
  EXPECT_FALSE(gbf.offer(42));
  EXPECT_TRUE(gbf.offer(42));
  EXPECT_TRUE(gbf.offer(42));
  EXPECT_FALSE(gbf.offer(43));
}

TEST(Gbf, DuplicateAcrossSubwindowsStillFlagged) {
  // N=400, Q=4 → sub-window 100. An id inserted at arrival 0 must still be
  // flagged at arrival 350 (inside the same jumping window).
  GroupBloomFilter gbf(WindowSpec::jumping_count(400, 4), small_opts());
  EXPECT_FALSE(gbf.offer(7));
  for (std::uint64_t i = 0; i < 349; ++i) gbf.offer(1000 + i);
  EXPECT_TRUE(gbf.offer(7));
}

TEST(Gbf, ExpiredIdBecomesFreshAgain) {
  // After a full window of other arrivals, the id's sub-window has expired
  // and it must be accepted as valid again (count semantics: arrivals).
  GroupBloomFilter gbf(WindowSpec::jumping_count(400, 4), small_opts());
  EXPECT_FALSE(gbf.offer(7));
  for (std::uint64_t i = 0; i < 500; ++i) gbf.offer(1000 + i);
  EXPECT_FALSE(gbf.offer(7)) << "id older than the window was still flagged";
}

TEST(Gbf, LandmarkQ1WindowForgetsAtBoundary) {
  WindowSpec w{WindowKind::kJumping, WindowBasis::kCount, 100, 1, 0};
  GroupBloomFilter gbf(w, small_opts());
  EXPECT_FALSE(gbf.offer(5));
  for (std::uint64_t i = 0; i < 99; ++i) gbf.offer(100 + i);
  // Landmark boundary passed: 5 expired.
  EXPECT_FALSE(gbf.offer(5));
}

TEST(Gbf, ResetForgetsEverything) {
  GroupBloomFilter gbf(WindowSpec::jumping_count(1000, 4), small_opts());
  gbf.offer(1);
  gbf.offer(2);
  gbf.reset();
  EXPECT_FALSE(gbf.offer(1));
  EXPECT_FALSE(gbf.offer(2));
}

TEST(Gbf, MemoryAccountingIsMTimesQPlusOne) {
  GroupBloomFilter gbf(WindowSpec::jumping_count(1000, 7),
                       small_opts(1u << 12));
  EXPECT_EQ(gbf.memory_bits(), (1u << 12) * 8u);
  EXPECT_GE(gbf.storage_bits(), gbf.memory_bits());
}

TEST(Gbf, CleanStrideCoversSlotWithinOneSubwindow) {
  GroupBloomFilter gbf(WindowSpec::jumping_count(1 << 10, 8),
                       small_opts(1 << 14));
  // stride · (N/Q) ≥ m ensures the expired slot is clean by the jump.
  EXPECT_GE(gbf.clean_stride() * ((1 << 10) / 8), 1u << 14);
}

TEST(Gbf, WorksWithQGreaterThan63MultiLane) {
  // 70 sub-windows → 71 slots → 2 word lanes.
  auto opts = small_opts(1u << 12, 4);
  GroupBloomFilter gbf(WindowSpec::jumping_count(700, 70), opts);
  EXPECT_FALSE(gbf.offer(9));
  EXPECT_TRUE(gbf.offer(9));
  for (std::uint64_t i = 0; i < 800; ++i) gbf.offer(10'000 + i);
  EXPECT_FALSE(gbf.offer(9));
}

TEST(Gbf, OpCounterTracksProbesAndInserts) {
  GroupBloomFilter gbf(WindowSpec::jumping_count(1000, 4), small_opts());
  OpCounter ops;
  gbf.set_op_counter(&ops);
  gbf.offer(123);
  EXPECT_EQ(ops.hash_evals, 1u);
  EXPECT_EQ(ops.word_reads, gbf.hash_count());
  EXPECT_GE(ops.word_writes, gbf.hash_count());  // insert + cleaning stride
}

// ------------------------------------------------- time-based extension

TEST(GbfTimeBased, ExpiresByElapsedTimeNotArrivals) {
  // 10s window, 5 sub-windows (2s each), 100ms units.
  const auto w = WindowSpec::jumping_time(10'000'000, 5, 100'000);
  GroupBloomFilter gbf(w, small_opts());
  EXPECT_FALSE(gbf.offer(77, 1'000'000));
  EXPECT_TRUE(gbf.offer(77, 2'000'000));   // 1s later: duplicate
  EXPECT_TRUE(gbf.offer(77, 9'500'000));   // still inside the window
  EXPECT_FALSE(gbf.offer(77, 25'000'000))  // long idle gap: expired
      << "time-based window failed to expire an old id";
}

TEST(GbfTimeBased, SurvivesWholeWindowsWithNoTraffic) {
  const auto w = WindowSpec::jumping_time(1'000'000, 4, 50'000);
  GroupBloomFilter gbf(w, small_opts());
  gbf.offer(1, 0);
  // Jump 100 windows ahead; everything must be forgotten and usable.
  EXPECT_FALSE(gbf.offer(1, 100'000'000));
  EXPECT_TRUE(gbf.offer(1, 100'000'001));
}

TEST(GbfTimeBased, RejectsIndivisibleSubwindowSpan) {
  WindowSpec w{WindowKind::kJumping, WindowBasis::kTime, 1'000'000, 3,
               100'000};
  // 1s/3 is not a multiple of 100ms.
  EXPECT_THROW(GroupBloomFilter(w, small_opts()), std::invalid_argument);
}

std::string saved(const GroupBloomFilter& gbf) {
  std::ostringstream out(std::ios::binary);
  gbf.save(out);
  return out.str();
}

TEST(GbfTimeGap, ClosedFormCatchUpMatchesUnitLoop) {
  // Two identical filters: one sees a single far-future click, the other
  // is walked there in sub-unit steps, its last step shorter than Q+1
  // sub-windows, so it takes the per-unit loop. The walker's 0xf00d
  // inserts are the only state difference, and they expire during the
  // post-gap traffic below.
  constexpr std::uint64_t kUnitUs = 1'000;
  const auto w = WindowSpec::jumping_time(64 * kUnitUs, 4, kUnitUs);  // R=16
  GroupBloomFilter jump(w, small_opts(1u << 12));
  GroupBloomFilter walk(w, small_opts(1u << 12));
  for (std::uint64_t i = 0; i < 100; ++i) {
    jump.offer(i, 1'000'000 + i * 37);
    walk.offer(i, 1'000'000 + i * 37);
  }
  const std::uint64_t target = 1'000'000 + 503 * kUnitUs;  // 31 jumps out
  for (std::uint64_t t = 1'000'000; t < target - 40 * kUnitUs;
       t += kUnitUs / 2) {
    walk.offer(0xf00d, t);
  }
  // 160 units of identical traffic after the gap: every slot jumps at
  // least once more, so the saved states match only if the closed form
  // left the slot ring, the sub-window phase and the clock where the walk
  // did.
  for (std::uint64_t i = 0; i < 320; ++i) {
    const ClickId id = 7'000 + i % 60;
    const std::uint64_t t = target + i * kUnitUs / 2;
    ASSERT_EQ(jump.offer(id, t), walk.offer(id, t)) << i;
  }
  EXPECT_EQ(saved(jump), saved(walk));
}

TEST(GbfTimeGap, MultiHourGapReturnsWithinAFixedBound) {
  // ppcd's time windows: 1 s in 8 sub-windows of 1 ms units. Walking a
  // 6-hour gap unit by unit clears a whole slot at each of its 172,800
  // sub-window jumps; the closed form clears the matrix once.
  const auto w = WindowSpec::jumping_time(1'000'000, 8, 1'000);
  GroupBloomFilter gbf(w, small_opts(1u << 17, 7));
  EXPECT_FALSE(gbf.offer(1, 1'000'000));
  const std::uint64_t later = 1'000'000 + 6ull * 3600 * 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(gbf.offer(1, later));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_TRUE(gbf.offer(1, later + 1));
}

// --------------------------------------------------- property: zero FN

struct GbfPropertyCase {
  std::uint64_t window;
  std::uint32_t q;
  double dup_prob;
  std::uint64_t seed;
};

class GbfZeroFnTest : public ::testing::TestWithParam<GbfPropertyCase> {};

TEST_P(GbfZeroFnTest, NeverMissesAWindowDuplicate) {
  const auto& p = GetParam();
  const auto w = WindowSpec::jumping_count(p.window, p.q);
  GroupBloomFilter sketch(w, small_opts(1u << 16, 6));
  analysis::JumpingOracle oracle(p.window, p.q);
  const auto ids =
      testutil::make_id_stream(p.window * 6, p.dup_prob, p.window * 2, p.seed);
  const auto counts = analysis::run_self_consistency(sketch, oracle, ids);
  EXPECT_EQ(counts.false_negative, 0u)
      << "Theorem 1(1) violated: " << counts.summary();
  // Generously sized filter: FP rate must stay tiny.
  EXPECT_LT(counts.false_positive_rate(), 0.02) << counts.summary();
}

INSTANTIATE_TEST_SUITE_P(
    WindowShapes, GbfZeroFnTest,
    ::testing::Values(GbfPropertyCase{256, 2, 0.1, 1},
                      GbfPropertyCase{256, 4, 0.3, 2},
                      GbfPropertyCase{1000, 5, 0.05, 3},
                      GbfPropertyCase{1024, 8, 0.2, 4},
                      GbfPropertyCase{4096, 16, 0.1, 5},
                      GbfPropertyCase{777, 7, 0.5, 6},
                      GbfPropertyCase{4096, 31, 0.15, 7},
                      GbfPropertyCase{100, 1, 0.3, 8},
                      GbfPropertyCase{1000, 7, 0.25, 9},    // N % Q != 0
                      GbfPropertyCase{997, 13, 0.35, 10},   // prime N
                      GbfPropertyCase{4200, 70, 0.2, 11},   // multi-lane
                      GbfPropertyCase{130, 65, 0.4, 12}));  // two lanes, tiny subs

TEST(GbfTimeBased, SelfConsistentOnRandomTraffic) {
  // 2s window, 4 sub-windows of 500ms, 10ms units — random bursty traffic
  // with idle gaps; the oracle replays GBF's exact time-jumping semantics.
  const auto w = WindowSpec::jumping_time(2'000'000, 4, 10'000);
  GroupBloomFilter sketch(w, small_opts(1u << 16, 6));
  analysis::TimeJumpingOracle oracle(4, /*units_per_sub=*/50,
                                     /*unit_us=*/10'000);
  stream::Rng rng(29);
  std::vector<std::uint64_t> ids, times;
  std::uint64_t t = 1'000;
  for (int i = 0; i < 30'000; ++i) {
    // Mostly dense traffic with occasional long gaps (whole windows idle).
    t += rng.chance(0.001) ? 5'000'000 : 1 + rng.below(500);
    ids.push_back(rng.below(400));
    times.push_back(t);
  }
  const auto counts =
      analysis::run_self_consistency(sketch, oracle, ids, &times);
  EXPECT_EQ(counts.false_negative, 0u) << counts.summary();
  EXPECT_GT(counts.true_duplicate, 1000u);
  EXPECT_LT(counts.false_positive_rate(), 0.02) << counts.summary();
}

TEST(GbfDeterminism, SameSeedSameVerdicts) {
  const auto w = WindowSpec::jumping_count(512, 4);
  GroupBloomFilter a(w, small_opts());
  GroupBloomFilter b(w, small_opts());
  const auto ids = testutil::make_id_stream(5000, 0.25, 1000, 99);
  for (std::uint64_t id : ids) EXPECT_EQ(a.offer(id), b.offer(id));
}

}  // namespace
}  // namespace ppc::core
