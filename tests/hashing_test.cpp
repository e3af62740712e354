// Unit and statistical tests for the hashing substrate.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "hashing/fnv.hpp"
#include "hashing/hash_common.hpp"
#include "hashing/index_family.hpp"
#include "hashing/murmur3.hpp"
#include "hashing/tabulation.hpp"
#include "hashing/xxhash.hpp"
#include "stream/rng.hpp"

namespace ppc::hashing {
namespace {

TEST(Fmix64, IsBijectiveOnSamples) {
  // fmix64 must not collide: spot-check a dense sample.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    EXPECT_TRUE(seen.insert(fmix64(i)).second) << "collision at " << i;
  }
}

TEST(Fmix64, ZeroMapsToZero) { EXPECT_EQ(fmix64(0), 0u); }

TEST(SplitMix64, ProducesKnownSequenceShape) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64_next(s);
  const std::uint64_t b = splitmix64_next(s);
  EXPECT_NE(a, b);
  // Golden value of splitmix64 with seed 0, first output.
  EXPECT_EQ(a, 0xe220a8397b1dcdafULL);
}

TEST(Fnv1a, MatchesPublishedVectors) {
  EXPECT_EQ(fnv1a64(""), kFnvOffsetBasis64);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Murmur3, EmptyInputSeedZeroIsZero) {
  const Hash128 h = murmur3_x64_128("", 0);
  EXPECT_EQ(h.lo, 0u);
  EXPECT_EQ(h.hi, 0u);
}

TEST(Murmur3, Deterministic) {
  EXPECT_EQ(murmur3_x64_128("click-fraud", 7), murmur3_x64_128("click-fraud", 7));
}

TEST(Murmur3, SeedChangesOutput) {
  EXPECT_NE(murmur3_x64_128("click", 1), murmur3_x64_128("click", 2));
}

TEST(Murmur3, AllTailLengthsDiffer) {
  // Exercise every tail-switch arm (lengths 0..32) and check injectivity
  // on this small sample.
  std::set<std::uint64_t> seen;
  std::string s;
  for (int len = 0; len <= 32; ++len) {
    EXPECT_TRUE(seen.insert(murmur3_x64_128(s, 0).lo).second)
        << "collision at length " << len;
    s.push_back(static_cast<char>('a' + len % 26));
  }
}

TEST(Murmur3, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip roughly half the output bits.
  std::uint64_t key = 0x0123456789abcdefULL;
  const Hash128 base = murmur3_x64_128(as_bytes(key), 0);
  double total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    std::uint64_t mutated = key ^ (1ULL << bit);
    const Hash128 h = murmur3_x64_128(as_bytes(mutated), 0);
    total_flips += std::popcount(h.lo ^ base.lo) + std::popcount(h.hi ^ base.hi);
  }
  const double mean_flips = total_flips / 64.0;  // out of 128 bits
  EXPECT_GT(mean_flips, 50.0);
  EXPECT_LT(mean_flips, 78.0);
}

TEST(Xxh64, MatchesPublishedVectors) {
  EXPECT_EQ(xxh64("", 0), 0xef46db3751d8e999ULL);
}

TEST(Xxh64, Deterministic) {
  const std::string long_input(1000, 'x');
  EXPECT_EQ(xxh64(long_input, 3), xxh64(long_input, 3));
  EXPECT_NE(xxh64(long_input, 3), xxh64(long_input, 4));
}

TEST(Xxh64, CoversAllLengthRegimes) {
  // < 4, < 8, < 32, >= 32 bytes all take different code paths.
  std::set<std::uint64_t> seen;
  std::string s;
  for (int len : {0, 1, 3, 4, 7, 8, 15, 31, 32, 33, 64, 100}) {
    s.assign(static_cast<std::size_t>(len), 'q');
    s.append(std::to_string(len));
    EXPECT_TRUE(seen.insert(xxh64(s, 0)).second);
  }
}

TEST(Tabulation, DeterministicPerSeed) {
  TabulationHash64 t1(42);
  TabulationHash64 t2(42);
  TabulationHash64 t3(43);
  EXPECT_EQ(t1(123456), t2(123456));
  EXPECT_NE(t1(123456), t3(123456));
}

TEST(Tabulation, UniformLowBits) {
  // Low output bit should be balanced over sequential keys.
  TabulationHash64 t(7);
  int ones = 0;
  constexpr int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i) ones += static_cast<int>(t(i) & 1);
  EXPECT_NEAR(ones, kTrials / 2, 4 * std::sqrt(kTrials / 4.0));
}

// ----------------------------------------------------------- IndexFamily

TEST(IndexFamily, RejectsBadParameters) {
  EXPECT_THROW(IndexFamily(0, 100), std::invalid_argument);
  EXPECT_THROW(IndexFamily(65, 100), std::invalid_argument);
  EXPECT_THROW(IndexFamily(4, 0), std::invalid_argument);
}

TEST(IndexFamily, IndicesStayInRange) {
  for (std::uint64_t range : {1ull, 2ull, 63ull, 1000ull, 1ull << 20}) {
    IndexFamily family(8, range);
    for (std::uint64_t key = 0; key < 200; ++key) {
      std::uint64_t idx[8];
      family.indices(key, std::span<std::uint64_t>(idx, 8));
      for (std::uint64_t v : idx) EXPECT_LT(v, range);
    }
  }
}

TEST(IndexFamily, ByteAndU64OverloadsAreIndependentlyDeterministic) {
  IndexFamily family(5, 1u << 16);
  const std::uint64_t key = 0xfeedface;
  auto a = family.indices(as_bytes(key));
  auto b = family.indices(as_bytes(key));
  EXPECT_EQ(a, b);
}

class IndexFamilyStrategyTest
    : public ::testing::TestWithParam<IndexStrategy> {};

TEST_P(IndexFamilyStrategyTest, DistributesUniformly) {
  // Chi-squared-ish check: bucket 64k keys × k indices into 256 cells.
  constexpr std::uint64_t kRange = 256;
  constexpr std::size_t kK = 4;
  IndexFamily family(kK, kRange, GetParam(), /*seed=*/11);
  std::vector<std::uint64_t> counts(kRange, 0);
  constexpr std::uint64_t kKeys = 1 << 16;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    std::uint64_t idx[kK];
    family.indices(key, std::span<std::uint64_t>(idx, kK));
    for (std::uint64_t v : idx) ++counts[static_cast<std::size_t>(v)];
  }
  const double expected = static_cast<double>(kKeys * kK) / kRange;
  double chi2 = 0;
  for (std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 255 dof: mean 255, std ~22.6; 400 is ~6 sigma.
  EXPECT_LT(chi2, 400.0) << "strategy produced a skewed distribution";
}

TEST_P(IndexFamilyStrategyTest, DifferentSeedsDecorrelate) {
  IndexFamily f1(6, 1u << 20, GetParam(), 1);
  IndexFamily f2(6, 1u << 20, GetParam(), 2);
  int matches = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    std::uint64_t a[6], b[6];
    f1.indices(key, std::span<std::uint64_t>(a, 6));
    f2.indices(key, std::span<std::uint64_t>(b, 6));
    for (int i = 0; i < 6; ++i) matches += (a[i] == b[i]);
  }
  EXPECT_LT(matches, 10);  // 6000 comparisons, ~0.006 expected by chance
}

// indices_batch against per-key indices for every strategy, k, range and
// seed: the exact index parity that keeps the FPR theory, the sizing
// planner and checked-in snapshots valid for the batched pipelines.
TEST(IndexFamily, BatchMatchesPerKeyForEveryStrategyKRangeSeed) {
  stream::Rng rng(77);
  const IndexStrategy strategies[] = {
      IndexStrategy::kDoubleHashing, IndexStrategy::kIndependentHashes,
      IndexStrategy::kTabulation};
  for (const IndexStrategy strategy : strategies) {
    for (int trial = 0; trial < 12; ++trial) {
      // Ranges mix powers of two, odd values and non-multiples of 8.
      const std::size_t k = 1 + rng.below(13);
      // Every third trial uses a > 2^32 range so the wide-multiply arm of
      // the Lemire reduction is pinned too, not just the narrow fast path.
      const std::uint64_t range =
          trial % 3 == 0 ? (std::uint64_t{1} << 33) + rng.below(1u << 20)
                         : 8 + rng.below(1u << 20);
      const std::uint64_t seed = rng.next();
      const IndexFamily family(k, range, strategy, seed);

      const std::size_t n = 1 + rng.below(40);
      std::vector<std::uint64_t> keys(n);
      for (auto& key : keys) key = rng.next();

      std::vector<std::uint64_t> expected(n * k);
      for (std::size_t i = 0; i < n; ++i) {
        family.indices(keys[i],
                       std::span<std::uint64_t>(expected.data() + i * k, k));
      }
      std::vector<std::uint64_t> got(n * k, ~std::uint64_t{0});
      family.indices_batch(keys, got);
      for (std::size_t i = 0; i < n * k; ++i) {
        ASSERT_EQ(got[i], expected[i])
            << "strategy " << static_cast<int>(strategy) << " k " << k
            << " range " << range << " element " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, IndexFamilyStrategyTest,
                         ::testing::Values(IndexStrategy::kDoubleHashing,
                                           IndexStrategy::kIndependentHashes,
                                           IndexStrategy::kTabulation));

}  // namespace
}  // namespace ppc::hashing
