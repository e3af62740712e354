// Tests for the baseline detectors: classical/counting Bloom filters, the
// Metwally jumping scheme, the Stable Bloom Filter, exact detectors, and
// the naive (non-grouped) jumping deployment.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baseline/bloom_filter.hpp"
#include "baseline/counting_bloom_filter.hpp"
#include "baseline/exact_detectors.hpp"
#include "baseline/landmark_detector.hpp"
#include "baseline/metwally_jumping_detector.hpp"
#include "baseline/metwally_sliding_detector.hpp"
#include "baseline/naive_jumping_bloom.hpp"
#include "baseline/stable_bloom_filter.hpp"
#include "core/group_bloom_filter.hpp"
#include "detector_test_util.hpp"
#include "analysis/validity_oracle.hpp"

namespace ppc::baseline {
namespace {

// ------------------------------------------------------------ BloomFilter

TEST(Bloom, NoFalseNegatives) {
  BloomFilter bf(1 << 16, 5);
  for (std::uint64_t i = 0; i < 1000; ++i) bf.insert(i);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(bf.contains(i));
}

TEST(Bloom, TestAndInsertEqualsContainsTheNInsert) {
  BloomFilter a(1 << 14, 4);
  BloomFilter b(1 << 14, 4);
  stream::Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.below(2000);
    const bool expected = b.contains(key);
    b.insert(key);
    EXPECT_EQ(a.test_and_insert(key), expected);
  }
}

TEST(Bloom, FillFactorTracksTheory) {
  // After n inserts, P(bit set) = 1 - (1 - 1/m)^{kn}.
  constexpr std::uint64_t kM = 1 << 16;
  constexpr std::size_t kK = 5;
  constexpr std::uint64_t kN = 8000;
  BloomFilter bf(kM, kK);
  for (std::uint64_t i = 0; i < kN; ++i) bf.insert(i * 0x9e3779b9 + 1);
  const double expected =
      1.0 - std::pow(1.0 - 1.0 / kM, static_cast<double>(kK * kN));
  EXPECT_NEAR(bf.fill_factor(), expected, 0.01);
}

TEST(Bloom, ClearEmptiesTheFilter) {
  BloomFilter bf(1 << 10, 3);
  bf.insert(1);
  bf.clear();
  EXPECT_DOUBLE_EQ(bf.fill_factor(), 0.0);
}

// ---------------------------------------------------- CountingBloomFilter

TEST(CountingBloom, InsertEraseRoundTrip) {
  CountingBloomFilter cbf(1 << 12, 4, 4);
  cbf.insert(10);
  cbf.insert(20);
  EXPECT_TRUE(cbf.contains(10));
  cbf.erase(10);
  EXPECT_FALSE(cbf.contains(10));
  EXPECT_TRUE(cbf.contains(20));
}

TEST(CountingBloom, AddThenSubtractRestoresState) {
  CountingBloomFilter a(1 << 12, 6, 4, hashing::IndexStrategy::kDoubleHashing,
                        1);
  CountingBloomFilter b(1 << 12, 6, 4, hashing::IndexStrategy::kDoubleHashing,
                        1);
  for (std::uint64_t i = 0; i < 100; ++i) a.insert(i);
  for (std::uint64_t i = 100; i < 200; ++i) b.insert(i);
  CountingBloomFilter main(1 << 12, 6, 4,
                           hashing::IndexStrategy::kDoubleHashing, 1);
  main.add(a);
  main.add(b);
  EXPECT_TRUE(main.contains(50));
  EXPECT_TRUE(main.contains(150));
  main.subtract(a);
  EXPECT_TRUE(main.contains(150));
  for (std::uint64_t i = 200; i < 300; ++i) EXPECT_FALSE(main.contains(i));
}

TEST(CountingBloom, SaturationIsStickyAndCounted) {
  // 2-bit counters saturate at 3.
  CountingBloomFilter cbf(64, 2, 1);
  const std::uint64_t key = 5;
  for (int i = 0; i < 10; ++i) cbf.insert(key);
  EXPECT_GT(cbf.saturation_events(), 0u);
  // Erasing more times than the counter can represent must NOT clear the
  // cell (sticky saturation prevents false negatives for other elements).
  for (int i = 0; i < 10; ++i) cbf.erase(key);
  EXPECT_TRUE(cbf.contains(key));
}

TEST(CountingBloom, CellCountMismatchThrows) {
  CountingBloomFilter a(64, 2, 1);
  CountingBloomFilter b(128, 2, 1);
  EXPECT_THROW(a.add(b), std::invalid_argument);
  EXPECT_THROW(a.subtract(b), std::invalid_argument);
}

TEST(CountingBloom, MixedWidthAddSubtractWorks) {
  // Main filter wider than the sub-window filter, as in the Metwally scheme.
  CountingBloomFilter sub(1 << 10, 4, 3, hashing::IndexStrategy::kDoubleHashing,
                          2);
  CountingBloomFilter main(1 << 10, 8, 3,
                           hashing::IndexStrategy::kDoubleHashing, 2);
  for (std::uint64_t i = 0; i < 50; ++i) sub.insert(i);
  main.add(sub);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_TRUE(main.contains(i));
  main.subtract(sub);
  std::uint64_t residue = 0;
  for (std::size_t i = 0; i < main.cells(); ++i) residue += main.cell(i);
  EXPECT_EQ(residue, 0u);
}

// ------------------------------------------------------- exact detectors

TEST(ExactSliding, WindowSemantics) {
  ExactSlidingDetector d(core::WindowSpec::sliding_count(3));
  EXPECT_FALSE(d.offer(1));  // window [1]
  EXPECT_TRUE(d.offer(1));   // [1,1] — duplicate, not re-validated
  EXPECT_FALSE(d.offer(2));  // [1,1,2]
  EXPECT_FALSE(d.offer(3));  // [1,2,3] — the valid 1 just expired...
  EXPECT_FALSE(d.offer(1));  // [2,3,1] — so 1 is fresh again
  EXPECT_TRUE(d.offer(3));
}

TEST(ExactSliding, DuplicateDoesNotExtendLifetime) {
  ExactSlidingDetector d(core::WindowSpec::sliding_count(4));
  EXPECT_FALSE(d.offer(9));  // valid at position 0
  EXPECT_TRUE(d.offer(9));   // dup at 1 (does not refresh)
  EXPECT_TRUE(d.offer(9));   // dup at 2
  EXPECT_TRUE(d.offer(9));   // dup at 3
  // Position 4: the valid occurrence at 0 has left the window; the dups in
  // the window were never validated, so 9 is fresh.
  EXPECT_FALSE(d.offer(9));
}

TEST(ExactJumping, ExpiresBySubwindow) {
  ExactJumpingDetector d(core::WindowSpec::jumping_count(4, 2));
  EXPECT_FALSE(d.offer(1));  // sub A: [1]
  EXPECT_FALSE(d.offer(2));  // sub A full: [1,2]
  EXPECT_FALSE(d.offer(3));  // sub B: [3]
  EXPECT_TRUE(d.offer(1));   // 1 still in window (sub A active)
  // Sub B full; sub A expires.
  EXPECT_FALSE(d.offer(1));  // sub C: 1 is fresh again
}

TEST(ExactLandmark, ForgetsAtBoundary) {
  ExactLandmarkDetector d(core::WindowSpec::landmark_count(3));
  EXPECT_FALSE(d.offer(1));
  EXPECT_TRUE(d.offer(1));
  EXPECT_FALSE(d.offer(2));  // window ends after this arrival (3 items)
  EXPECT_FALSE(d.offer(1));  // new landmark window
}

TEST(ExactDetectors, RejectMismatchedWindows) {
  EXPECT_THROW(ExactSlidingDetector(core::WindowSpec::jumping_count(8, 2)),
               std::invalid_argument);
  EXPECT_THROW(ExactJumpingDetector(core::WindowSpec::sliding_count(8)),
               std::invalid_argument);
  EXPECT_THROW(ExactLandmarkDetector(core::WindowSpec::sliding_count(8)),
               std::invalid_argument);
}

// ------------------------------------------------------ Metwally scheme

TEST(Metwally, DetectsWindowDuplicatesWithAmpleCounters) {
  MetwallyJumpingDetector::Options opts;
  opts.cells = 1 << 16;
  opts.sub_counter_bits = 8;
  opts.main_counter_bits = 16;
  opts.hash_count = 6;
  MetwallyJumpingDetector sketch(core::WindowSpec::jumping_count(256, 4),
                                 opts);
  analysis::JumpingOracle oracle(256, 4);
  const auto ids = testutil::make_id_stream(4000, 0.3, 512, 11);
  const auto counts = analysis::run_self_consistency(sketch, oracle, ids);
  EXPECT_EQ(counts.false_negative, 0u) << counts.summary();
  EXPECT_LT(counts.false_positive_rate(), 0.05) << counts.summary();
}

TEST(Metwally, HigherFprThanGbfAtSameCellCount) {
  // §3.3 / Figure 1: with the same per-filter size, the main-filter check
  // behaves like all N elements in one filter. Make N a large fraction of
  // m and compare measured FP rates on a distinct stream.
  constexpr std::uint64_t kM = 1 << 14;
  constexpr std::uint64_t kN = 1 << 13;
  constexpr std::uint32_t kQ = 8;
  const auto w = core::WindowSpec::jumping_count(kN, kQ);

  MetwallyJumpingDetector::Options mo;
  mo.cells = kM;
  mo.sub_counter_bits = 8;
  mo.main_counter_bits = 16;
  mo.hash_count = 2;
  MetwallyJumpingDetector prev(w, mo);

  core::GroupBloomFilter::Options go;
  go.bits_per_subfilter = kM;
  go.hash_count = 2;
  core::GroupBloomFilter gbf(w, go);

  analysis::DistinctRunConfig cfg{kN * 8, kN * 4, 1};
  const double fpr_prev = analysis::measure_fpr_distinct(prev, cfg);
  const double fpr_gbf = analysis::measure_fpr_distinct(gbf, cfg);
  EXPECT_GT(fpr_prev, 3.0 * fpr_gbf)
      << "prev=" << fpr_prev << " gbf=" << fpr_gbf;
}

// ------------------------------------------------- Metwally sliding CBF

TEST(MetwallySliding, ExactWindowSemantics) {
  MetwallySlidingDetector::Options opts;
  opts.cells = 1 << 14;
  opts.hash_count = 5;
  MetwallySlidingDetector d(core::WindowSpec::sliding_count(3), opts);
  EXPECT_FALSE(d.offer(1));
  EXPECT_TRUE(d.offer(1));
  EXPECT_FALSE(d.offer(2));
  EXPECT_FALSE(d.offer(3));  // the valid 1 just slid out
  EXPECT_FALSE(d.offer(1));
}

TEST(MetwallySliding, SelfConsistencyWithZeroFn) {
  MetwallySlidingDetector::Options opts;
  opts.cells = 1 << 16;
  opts.counter_bits = 8;
  opts.hash_count = 6;
  MetwallySlidingDetector sketch(core::WindowSpec::sliding_count(512), opts);
  analysis::SlidingOracle oracle(512);
  const auto ids = testutil::make_id_stream(10'000, 0.3, 1024, 13);
  const auto counts = analysis::run_self_consistency(sketch, oracle, ids);
  EXPECT_EQ(counts.false_negative, 0u) << counts.summary();
  EXPECT_LT(counts.false_positive_rate(), 0.02) << counts.summary();
}

TEST(MetwallySliding, MemoryGrowsWithWindowOccupancy) {
  // The §2.4 criticism: the identifier queue costs Θ(N) on top of the
  // filter, unlike TBF whose footprint is fixed by m alone.
  MetwallySlidingDetector::Options opts;
  opts.cells = 1 << 12;
  MetwallySlidingDetector d(core::WindowSpec::sliding_count(10'000), opts);
  const std::size_t empty_bits = d.memory_bits();
  for (std::uint64_t i = 0; i < 10'000; ++i) d.offer(i);
  EXPECT_GE(d.memory_bits(), empty_bits + 10'000 * 65);
}

TEST(MetwallySliding, RejectsNonSlidingWindows) {
  MetwallySlidingDetector::Options opts;
  EXPECT_THROW(
      MetwallySlidingDetector(core::WindowSpec::jumping_count(8, 2), opts),
      std::invalid_argument);
}

// ----------------------------------------------------------- Stable BF

TEST(StableBloom, HasFalseNegativesUnderPressure) {
  // The whole point of including SBF: random decay loses fresh elements.
  StableBloomFilter::Options opts;
  opts.cells = 1 << 10;  // deliberately small
  opts.cell_bits = 2;
  opts.hash_count = 3;
  opts.decrements_per_arrival = 30;
  StableBloomFilter sbf(core::WindowSpec::sliding_count(256), opts);
  EXPECT_FALSE(sbf.zero_false_negatives());

  // Even against its OWN validity history the SBF misses duplicates: the
  // random decay erases entries it validated moments ago.
  analysis::SlidingOracle oracle(256);
  const auto ids = testutil::make_id_stream(20'000, 0.4, 128, 21);
  const auto counts = analysis::run_self_consistency(sbf, oracle, ids);
  EXPECT_GT(counts.false_negative, 0u)
      << "SBF under memory pressure should miss duplicates: "
      << counts.summary();
}

// ------------------------------------------------- naive jumping filter

TEST(NaiveJumping, VerdictsExactlyMatchGbf) {
  // Same hash family, same slot discipline, different memory layout: the
  // grouped and naive deployments must agree on every verdict.
  const auto w = core::WindowSpec::jumping_count(512, 4);
  core::GroupBloomFilter::Options go;
  go.bits_per_subfilter = 1 << 12;
  go.hash_count = 5;
  go.seed = 7;
  core::GroupBloomFilter gbf(w, go);

  NaiveJumpingBloomDetector::Options no;
  no.bits_per_subfilter = 1 << 12;
  no.hash_count = 5;
  no.seed = 7;
  NaiveJumpingBloomDetector naive(w, no);

  const auto ids = testutil::make_id_stream(10'000, 0.3, 1024, 31);
  for (std::uint64_t id : ids) {
    ASSERT_EQ(gbf.offer(id), naive.offer(id));
  }
}

TEST(NaiveJumping, CostsMoreReadsThanGbf) {
  const auto w = core::WindowSpec::jumping_count(1 << 12, 16);
  core::GroupBloomFilter::Options go;
  go.bits_per_subfilter = 1 << 14;
  go.hash_count = 6;
  core::GroupBloomFilter gbf(w, go);
  NaiveJumpingBloomDetector::Options no;
  no.bits_per_subfilter = 1 << 14;
  no.hash_count = 6;
  NaiveJumpingBloomDetector naive(w, no);

  core::OpCounter gbf_ops, naive_ops;
  gbf.set_op_counter(&gbf_ops);
  naive.set_op_counter(&naive_ops);
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    gbf.offer(i);
    naive.offer(i);
  }
  // Naive probes every active filter until a zero bit; at low fill that is
  // ~Q·1.1 reads vs GBF's k. Require a conservative 2x gap.
  EXPECT_GT(naive_ops.word_reads, 2 * gbf_ops.word_reads);
}

// --------------------------------------------------------- landmark BF

TEST(LandmarkBloom, CountBasisForgetsAtBoundary) {
  LandmarkBloomDetector::Options opts;
  opts.bits = 1 << 14;
  opts.hash_count = 5;
  LandmarkBloomDetector d(core::WindowSpec::landmark_count(100), opts);
  EXPECT_FALSE(d.offer(5));
  EXPECT_TRUE(d.offer(5));
  for (std::uint64_t i = 0; i < 98; ++i) d.offer(1000 + i);
  EXPECT_FALSE(d.offer(5));  // next landmark window
}

TEST(LandmarkBloom, TimeBasisForgetsAtEpoch) {
  LandmarkBloomDetector::Options opts;
  opts.bits = 1 << 14;
  core::WindowSpec w{core::WindowKind::kLandmark, core::WindowBasis::kTime,
                     1'000'000, 1, 1'000};
  LandmarkBloomDetector d(w, opts);
  EXPECT_FALSE(d.offer(5, 100));
  EXPECT_TRUE(d.offer(5, 900'000));
  EXPECT_FALSE(d.offer(5, 1'100'000));  // next epoch
}

TEST(StaleStamp, TimeBaselinesJudgeItAtTheCurrentUnit) {
  // A click stamped older than the clock must not rewind or wipe the
  // window (DuplicateDetector's stale-stamp rule).
  ExactTimeSlidingDetector exact(
      core::WindowSpec::sliding_time(1'000'000, 1'000));
  EXPECT_FALSE(exact.offer(7, 5'000'000));
  EXPECT_FALSE(exact.offer(8, 1'000'000));
  EXPECT_TRUE(exact.offer(8, 5'000'000));
  EXPECT_TRUE(exact.offer(7, 5'001'000));

  LandmarkBloomDetector::Options opts;
  opts.bits = 1 << 14;
  core::WindowSpec w{core::WindowKind::kLandmark, core::WindowBasis::kTime,
                     1'000'000, 1, 1'000};
  LandmarkBloomDetector landmark(w, opts);
  EXPECT_FALSE(landmark.offer(5, 1'100'000));
  EXPECT_FALSE(landmark.offer(6, 500'000));
  EXPECT_TRUE(landmark.offer(6, 1'150'000));
  EXPECT_TRUE(landmark.offer(5, 1'200'000));
}

}  // namespace
}  // namespace ppc::baseline
