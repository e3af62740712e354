// Tests for the Age-Partitioned Bloom Filter backend: geometry and
// parameter validation, the zero-false-negative guarantee inside the
// covered window (count and time basis, against the validity oracle),
// batch/sequential verdict parity, snapshot round-trips, factory wiring,
// and sharded batch operation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "analysis/validity_oracle.hpp"
#include "core/age_partitioned_bloom_filter.hpp"
#include "core/detector_factory.hpp"
#include "core/sharded_detector.hpp"
#include "detector_test_util.hpp"

namespace ppc::core {
namespace {

AgePartitionedBloomFilter::Options small_opts(std::uint64_t m = 1u << 14,
                                              std::size_t k = 6,
                                              std::size_t l = 8) {
  AgePartitionedBloomFilter::Options o;
  o.bits_per_slice = m;
  o.consecutive = k;
  o.generations = l;
  return o;
}

// ------------------------------------------------------------- geometry

TEST(Apbf, GeometryFollowsTheConstruction) {
  AgePartitionedBloomFilter f(WindowSpec::sliding_count(1000),
                              small_opts(1u << 14, 6, 8));
  EXPECT_EQ(f.consecutive(), 6u);
  EXPECT_EQ(f.generations(), 8u);
  EXPECT_EQ(f.slice_count(), 6u + 8u + 1u);
  EXPECT_EQ(f.generation_span(), 125u);  // ceil(1000 / 8)
  EXPECT_EQ(f.covered_span(), 1000u);
  EXPECT_EQ(f.memory_bits(), (1u << 14) * (6 + 8 + 1));
  EXPECT_TRUE(f.zero_false_negatives());
  EXPECT_EQ(f.name(), "APBF");
}

TEST(Apbf, CoveredSpanIsAtLeastTheWindow) {
  // Indivisible N: the generation span rounds UP, so the covered span
  // overshoots the window (over-remembering), never undershoots it.
  for (std::uint64_t n : {1ull, 7ull, 1000ull, 1001ull, 99999ull}) {
    for (std::size_t l : {1ull, 3ull, 8ull, 16ull}) {
      AgePartitionedBloomFilter f(WindowSpec::sliding_count(n),
                                  small_opts(1u << 10, 4, l));
      EXPECT_GE(f.covered_span(), n) << "N=" << n << " l=" << l;
      EXPECT_LT(f.covered_span(), n + l) << "N=" << n << " l=" << l;
    }
  }
}

TEST(Apbf, TimeBasisMeasuresGenerationsInUnits) {
  AgePartitionedBloomFilter f(
      WindowSpec::sliding_time(1'000'000, 1'000),  // R = 1000 units
      small_opts(1u << 14, 6, 8));
  EXPECT_EQ(f.generation_span(), 125u);  // ceil(1000 units / 8)
  EXPECT_EQ(f.covered_span(), 1000u);    // units, not microseconds
  EXPECT_EQ(f.name(), "APBF-time");
}

TEST(Apbf, RejectsNonSlidingWindowsAndBadOptions) {
  const auto w = WindowSpec::sliding_count(1000);
  EXPECT_THROW(
      AgePartitionedBloomFilter(WindowSpec::jumping_count(1000, 4),
                                small_opts()),
      std::invalid_argument);
  EXPECT_THROW(
      AgePartitionedBloomFilter(WindowSpec::landmark_count(1000),
                                small_opts()),
      std::invalid_argument);
  EXPECT_THROW(AgePartitionedBloomFilter(w, small_opts(0)),
               std::invalid_argument);
  EXPECT_THROW(AgePartitionedBloomFilter(w, small_opts(1u << 10, 0, 8)),
               std::invalid_argument);
  EXPECT_THROW(AgePartitionedBloomFilter(w, small_opts(1u << 10, 6, 0)),
               std::invalid_argument);
  EXPECT_THROW(AgePartitionedBloomFilter(w, small_opts(1u << 10, 40, 30)),
               std::invalid_argument);  // k + l > 64 hash functions
}

// ---------------------------------------------- zero FN / FPR vs oracle

TEST(Apbf, CountBasisHasZeroFalseNegativesAgainstOracle) {
  constexpr std::uint64_t kWindow = 2048;
  AgePartitionedBloomFilter f(WindowSpec::sliding_count(kWindow),
                              small_opts(1u << 12, 7, 8));
  analysis::SlidingOracle oracle(kWindow);
  const auto ids = testutil::make_id_stream(20'000, 0.3, kWindow, 41);
  const auto counts = analysis::run_self_consistency(f, oracle, ids);
  EXPECT_EQ(counts.false_negative, 0u)
      << "zero-FN theorem violated inside the covered window";
  EXPECT_GT(counts.true_duplicate, 0u);  // the stream exercised duplicates
  EXPECT_LT(counts.false_positive_rate(), 0.05);
}

TEST(Apbf, TimeBasisHasZeroFalseNegativesAgainstOracle) {
  constexpr std::uint64_t kUnitUs = 1'000;
  constexpr std::uint64_t kWindowUnits = 1024;
  AgePartitionedBloomFilter f(
      WindowSpec::sliding_time(kWindowUnits * kUnitUs, kUnitUs),
      small_opts(1u << 12, 7, 8));
  analysis::TimeSlidingOracle oracle(kWindowUnits, kUnitUs);
  const auto ids = testutil::make_id_stream(20'000, 0.3, 1024, 42);
  // Monotone clock averaging ~2 arrivals per unit, with occasional idle
  // gaps so whole generations pass between arrivals.
  std::vector<std::uint64_t> times(ids.size());
  std::uint64_t t = 1'000'000, x = 99;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    t += (x >> 33) % kUnitUs;  // sub-unit steps
    if ((x >> 60) == 0) t += 200 * kUnitUs;  // ~1/16: jump 200 units
    times[i] = t;
  }
  const auto counts = analysis::run_self_consistency(f, oracle, ids, &times);
  EXPECT_EQ(counts.false_negative, 0u)
      << "zero-FN theorem violated inside the covered time window";
  EXPECT_GT(counts.true_duplicate, 0u);
  EXPECT_LT(counts.false_positive_rate(), 0.05);
}

TEST(Apbf, ForgetsAfterCoveredSpanPlusSlack) {
  // Detection is guaranteed for covered_span arrivals and impossible (mod
  // FP noise on a fresh filter) after (l+1) generations.
  AgePartitionedBloomFilter f(WindowSpec::sliding_count(256),
                              small_opts(1u << 14, 6, 8));
  EXPECT_FALSE(f.offer(0xbeef));
  for (std::uint64_t i = 0; i < (f.generations() + 1) * f.generation_span();
       ++i) {
    f.offer(1'000'000 + i);
  }
  EXPECT_FALSE(f.offer(0xbeef)) << "id survived past l+1 generations";
}

TEST(Apbf, TimeJumpExpiresEverything) {
  // A clock jump far past the covered span must land in the closed-form
  // fast path and leave the filter empty of old ids.
  constexpr std::uint64_t kUnitUs = 1'000;
  AgePartitionedBloomFilter f(WindowSpec::sliding_time(256 * kUnitUs, kUnitUs),
                              small_opts(1u << 14, 6, 8));
  EXPECT_FALSE(f.offer(0xbeef, 1'000'000));
  EXPECT_TRUE(f.offer(0xbeef, 1'000'000 + kUnitUs));
  // Jump ~1e6 units: thousands of whole ring revolutions at once.
  const std::uint64_t far = 1'000'000 + 1'000'000'000 * kUnitUs / 1'000;
  EXPECT_FALSE(f.offer(0xbeef, far)) << "id survived a huge clock jump";
  EXPECT_TRUE(f.offer(0xbeef, far + kUnitUs));  // still a working filter
}

TEST(Apbf, TimeJumpFastPathMatchesUnitLoop) {
  // Two identical filters, one fed a single far-future probe, the other
  // walked there in small steps with no intervening inserts: identical
  // verdicts afterwards (the fast path is loop-equivalent).
  constexpr std::uint64_t kUnitUs = 1'000;
  const auto w = WindowSpec::sliding_time(64 * kUnitUs, kUnitUs);
  AgePartitionedBloomFilter jump(w, small_opts(1u << 12, 5, 6));
  AgePartitionedBloomFilter walk(w, small_opts(1u << 12, 5, 6));
  for (std::uint64_t i = 0; i < 100; ++i) {
    jump.offer(i, 1'000'000 + i);
    walk.offer(i, 1'000'000 + i);
  }
  // Walk crosses 500 units in sub-unit steps (per-unit loop); jump sees
  // nothing until `target`, so its first post-gap offer takes the
  // closed-form path. The walker's extra 0xf00d insertions are the only
  // state difference, and they expire before the probes below.
  const std::uint64_t target = 1'000'000 + 500 * kUnitUs;  // > (l+1) gens out
  for (std::uint64_t t = 1'000'000; t < target - 100 * kUnitUs;
       t += kUnitUs / 2) {
    walk.offer(0xf00d, t);  // drive the unit loop in sub-unit steps
  }
  for (std::uint64_t i = 0; i < 200; ++i) {
    const ClickId id = 7'000 + i % 60;
    ASSERT_EQ(jump.offer(id, target + i), walk.offer(id, target + i)) << i;
  }
}

// -------------------------------------------------------- batch parity

TEST(Apbf, ScalarTimeBatchMatchesSequentialReplay) {
  const auto ids = testutil::make_id_stream(10'000, 0.4, 512, 7);
  AgePartitionedBloomFilter seq(WindowSpec::sliding_count(512),
                                small_opts(1u << 12, 6, 8));
  AgePartitionedBloomFilter bat(WindowSpec::sliding_count(512),
                                small_opts(1u << 12, 6, 8));
  std::vector<bool> expected(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) expected[i] = seq.offer(ids[i]);
  constexpr std::size_t kChunks[] = {1, 3, 17, 256, 4096};
  bool buf[4096];
  std::size_t pos = 0, c = 0;
  while (pos < ids.size()) {
    const std::size_t n =
        std::min(kChunks[c++ % std::size(kChunks)], ids.size() - pos);
    bat.offer_batch(std::span<const ClickId>(ids).subspan(pos, n),
                    std::span<bool>(buf, n));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expected[pos + i]) << "click " << (pos + i);
    }
    pos += n;
  }
}

// --------------------------------------------------------------- snapshots

TEST(Apbf, SnapshotRoundTripIsBitIdentical) {
  AgePartitionedBloomFilter a(WindowSpec::sliding_count(512),
                              small_opts(1u << 12, 6, 8));
  const auto ids = testutil::make_id_stream(5'000, 0.4, 512, 13);
  for (const auto id : ids) a.offer(id);
  ASSERT_TRUE(a.supports_snapshots());

  std::ostringstream saved;
  a.save(saved);

  AgePartitionedBloomFilter b(WindowSpec::sliding_count(512),
                              small_opts(1u << 12, 6, 8));
  std::istringstream in(saved.str());
  b.restore(in);

  // Bit-identical state: re-saving the restored filter reproduces the
  // snapshot byte-for-byte.
  std::ostringstream resaved;
  b.save(resaved);
  EXPECT_EQ(saved.str(), resaved.str());

  // And the verdict streams stay in lockstep from here on.
  const auto more = testutil::make_id_stream(5'000, 0.4, 512, 14);
  for (const auto id : more) ASSERT_EQ(a.offer(id), b.offer(id));
}

TEST(Apbf, LoadRebuildsTheFilterFromTheSnapshotAlone) {
  constexpr std::uint64_t kUnitUs = 1'000;
  AgePartitionedBloomFilter a(WindowSpec::sliding_time(64 * kUnitUs, kUnitUs),
                              small_opts(1u << 12, 5, 6));
  for (std::uint64_t i = 0; i < 3'000; ++i) {
    a.offer(i % 700, 1'000'000 + i * kUnitUs / 3);
  }
  std::ostringstream saved;
  a.save(saved);
  std::istringstream in(saved.str());
  const auto b = std::make_unique<AgePartitionedBloomFilter>(
      WindowSpec::sliding_time(64 * kUnitUs, kUnitUs),
      small_opts(1u << 12, 5, 6));
  b->restore(in);
  const std::uint64_t t0 = 1'000'000 + 1'000 * kUnitUs;
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    const std::uint64_t t = t0 + i * kUnitUs / 2;
    ASSERT_EQ(a.offer(i % 900, t), b->offer(i % 900, t)) << i;
  }
}

TEST(Apbf, RestoreRejectsMismatchedGeometry) {
  AgePartitionedBloomFilter a(WindowSpec::sliding_count(512),
                              small_opts(1u << 12, 6, 8));
  a.offer(1);
  std::ostringstream saved;
  a.save(saved);
  AgePartitionedBloomFilter other(WindowSpec::sliding_count(512),
                                  small_opts(1u << 12, 6, 4));
  std::istringstream in(saved.str());
  EXPECT_THROW(other.restore(in), std::runtime_error);
  AgePartitionedBloomFilter window_differs(WindowSpec::sliding_count(1024),
                                           small_opts(1u << 12, 6, 8));
  std::istringstream in2(saved.str());
  EXPECT_THROW(window_differs.restore(in2), std::runtime_error);
}

TEST(Apbf, RestoreRejectsCorruptAndTruncatedSnapshots) {
  AgePartitionedBloomFilter a(WindowSpec::sliding_count(512),
                              small_opts(1u << 12, 6, 8));
  for (std::uint64_t i = 0; i < 1'000; ++i) a.offer(i);
  std::ostringstream saved;
  a.save(saved);
  std::string bytes = saved.str();

  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;  // payload bit flip → CRC mismatch
  AgePartitionedBloomFilter b(WindowSpec::sliding_count(512),
                              small_opts(1u << 12, 6, 8));
  std::istringstream bad(corrupt);
  EXPECT_THROW(b.restore(bad), std::runtime_error);

  std::istringstream truncated(bytes.substr(0, bytes.size() / 3));
  AgePartitionedBloomFilter c(WindowSpec::sliding_count(512),
                              small_opts(1u << 12, 6, 8));
  EXPECT_THROW(c.restore(truncated), std::runtime_error);

  std::istringstream garbage(std::string(64, '\x5a'));
  EXPECT_THROW(c.restore(garbage), std::runtime_error);
}

// ----------------------------------------------------- sharded / factory

TEST(Apbf, ShardedFanOutBatchesMatchSequentialOffers) {
  const auto make_sharded = [](std::size_t threads) {
    ShardedDetector::Options o;
    o.threads = threads;
    return std::make_unique<ShardedDetector>(
        4,
        [](std::size_t) {
          return std::make_unique<AgePartitionedBloomFilter>(
              WindowSpec::sliding_count(256), small_opts(1u << 12, 5, 8));
        },
        o);
  };
  auto sequential = make_sharded(1);
  auto fanned = make_sharded(4);
  EXPECT_TRUE(fanned->supports_snapshots());
  const auto ids = testutil::make_id_stream(20'000, 0.4, 1024, 21);
  constexpr std::size_t kBatch = 512;
  bool out[kBatch];
  for (std::size_t pos = 0; pos < ids.size(); pos += kBatch) {
    const std::size_t n = std::min(kBatch, ids.size() - pos);
    fanned->offer_batch(std::span<const ClickId>(ids).subspan(pos, n),
                        std::span<bool>(out, n));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], sequential->offer(ids[pos + i]))
          << "click " << (pos + i);
    }
  }
}

TEST(Apbf, FactoryBuildsApbfOnRequest) {
  DetectorBudget budget;
  budget.backend = DetectorBackend::kApbf;
  budget.total_memory_bits = 1 << 20;
  auto d = make_detector(WindowSpec::sliding_count(1 << 10), budget);
  EXPECT_EQ(d->name(), "APBF");
  EXPECT_LE(d->memory_bits(), budget.total_memory_bits);
  EXPECT_GT(d->memory_bits(), budget.total_memory_bits * 9 / 10);
  EXPECT_FALSE(d->offer(42));
  EXPECT_TRUE(d->offer(42));

  auto t = make_detector(WindowSpec::sliding_time(1'000'000, 1'000), budget);
  EXPECT_EQ(t->name(), "APBF-time");

  budget.total_memory_bits = 8;  // below one bit per slice
  EXPECT_THROW(make_detector(WindowSpec::sliding_count(1 << 10), budget),
               std::invalid_argument);
}

TEST(Apbf, FactoryHonorsApbfShapeOverrides) {
  DetectorBudget budget;
  budget.backend = DetectorBackend::kApbf;
  budget.total_memory_bits = 1 << 20;
  budget.hash_count = 7;
  budget.apbf_generations = 4;
  auto d = make_detector(WindowSpec::sliding_count(1 << 10), budget);
  auto* f = dynamic_cast<AgePartitionedBloomFilter*>(d.get());
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->consecutive(), 7u);  // inherits hash_count when unset
  EXPECT_EQ(f->generations(), 4u);
  budget.apbf_consecutive = 5;
  auto d2 = make_detector(WindowSpec::sliding_count(1 << 10), budget);
  EXPECT_EQ(dynamic_cast<AgePartitionedBloomFilter*>(d2.get())->consecutive(),
            5u);
}

}  // namespace
}  // namespace ppc::core
