// Unit tests for the bit-storage substrate (BitVector, PackedIntVector,
// SlicedBitMatrix), with emphasis on word-boundary edge cases: every filter
// in the library depends on these being exactly right.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stream/rng.hpp"

#include "bits/bit_vector.hpp"
#include "bits/packed_int_vector.hpp"
#include "bits/sliced_bit_matrix.hpp"

namespace ppc::bits {
namespace {

// -------------------------------------------------------------- BitVector

TEST(BitVector, StartsAllZero) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.test(i));
}

TEST(BitVector, SetTestResetRoundTrip) {
  BitVector v(200);
  for (std::size_t i = 0; i < 200; i += 7) v.set(i);
  for (std::size_t i = 0; i < 200; ++i) EXPECT_EQ(v.test(i), i % 7 == 0);
  for (std::size_t i = 0; i < 200; i += 7) v.reset(i);
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVector, TestAndSetReportsPriorValue) {
  BitVector v(64);
  EXPECT_FALSE(v.test_and_set(63));
  EXPECT_TRUE(v.test_and_set(63));
}

TEST(BitVector, CountAndFillFactor) {
  BitVector v(128);
  for (std::size_t i = 0; i < 32; ++i) v.set(i * 4);
  EXPECT_EQ(v.count(), 32u);
  EXPECT_DOUBLE_EQ(v.fill_factor(), 0.25);
}

struct ResetRangeCase {
  std::size_t size, begin, end;
};

class BitVectorResetRangeTest
    : public ::testing::TestWithParam<ResetRangeCase> {};

TEST_P(BitVectorResetRangeTest, ClearsExactlyTheRange) {
  const auto& p = GetParam();
  BitVector v(p.size);
  for (std::size_t i = 0; i < p.size; ++i) v.set(i);
  v.reset_range(p.begin, p.end);
  for (std::size_t i = 0; i < p.size; ++i) {
    EXPECT_EQ(v.test(i), i < p.begin || i >= p.end) << "bit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, BitVectorResetRangeTest,
    ::testing::Values(ResetRangeCase{128, 0, 0},      // empty range
                      ResetRangeCase{128, 0, 128},    // everything
                      ResetRangeCase{128, 0, 64},     // exactly one word
                      ResetRangeCase{128, 64, 128},   // second word
                      ResetRangeCase{128, 63, 65},    // straddles boundary
                      ResetRangeCase{128, 1, 127},    // inner with ragged ends
                      ResetRangeCase{200, 60, 197},   // multi-word middle
                      ResetRangeCase{64, 5, 6},       // single bit
                      ResetRangeCase{65, 63, 65}));   // tail partial word

TEST(BitVector, EmptyVectorFillFactorIsZero) {
  BitVector v;
  EXPECT_DOUBLE_EQ(v.fill_factor(), 0.0);
}

// -------------------------------------------------------- PackedIntVector

class PackedIntVectorWidthTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(PackedIntVectorWidthTest, RoundTripsPatternsAtEveryWidth) {
  const std::size_t width = GetParam();
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  PackedIntVector v(97, width);  // 97: prime, guarantees straddling entries
  EXPECT_EQ(v.max_value(), mask);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v.set(i, (0x9e3779b97f4a7c15ULL * (i + 1)) & mask);
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.get(i), (0x9e3779b97f4a7c15ULL * (i + 1)) & mask)
        << "width " << width << " index " << i;
  }
}

TEST_P(PackedIntVectorWidthTest, NeighborsDoNotInterfere) {
  const std::size_t width = GetParam();
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  PackedIntVector v(50, width, mask);  // all entries at max
  v.set(25, 0);
  EXPECT_EQ(v.get(24), mask);
  EXPECT_EQ(v.get(25), 0u);
  EXPECT_EQ(v.get(26), mask);
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedIntVectorWidthTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 21, 24,
                                           31, 32, 33, 48, 63, 64));

TEST(PackedIntVector, FillInitialization) {
  PackedIntVector v(1000, 21, (1u << 21) - 1);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.get(i), (1u << 21) - 1);
  }
}

// fill_all tiles a precomputed word pattern; it must leave exactly the raw
// words (padding bits and guard word included — snapshots serialize them)
// that one set() per entry leaves, at every width and at sizes whose
// payload ends just before, on, and just after a word boundary.
TEST(PackedIntVector, WordFillMatchesPerEntrySetAtEveryWidth) {
  for (std::size_t width = 1; width <= 64; ++width) {
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    std::vector<std::size_t> sizes = {0, 1, 2, 3};
    for (std::size_t words : {1, 2, 3, 5, 64, 65}) {
      const std::size_t at = words * 64 / width;
      for (std::size_t n = at > 3 ? at - 3 : 0; n <= at + 3; ++n) {
        sizes.push_back(n);
      }
    }
    const std::uint64_t values[] = {mask, 1, 0x9e3779b97f4a7c15ULL & mask, 0};
    for (const std::size_t n : sizes) {
      for (const std::uint64_t value : values) {
        PackedIntVector reference(n, width);
        for (std::size_t i = 0; i < n; ++i) reference.set(i, value);
        const PackedIntVector built(n, width, value);
        ASSERT_TRUE(std::ranges::equal(built.raw_words(),
                                       reference.raw_words()))
            << "construct: width " << width << " size " << n;

        // Reset path over dirty words: all-ones padding and guard must
        // survive fill_all just as they survive set().
        const std::vector<std::uint64_t> dirty(reference.raw_words().size(),
                                               ~std::uint64_t{0});
        PackedIntVector refilled(n, width);
        refilled.set_raw_words(dirty);
        refilled.fill_all(value);
        PackedIntVector reset_ref(n, width);
        reset_ref.set_raw_words(dirty);
        for (std::size_t i = 0; i < n; ++i) reset_ref.set(i, value);
        ASSERT_TRUE(std::ranges::equal(refilled.raw_words(),
                                       reset_ref.raw_words()))
            << "fill_all: width " << width << " size " << n;
      }
    }
  }
}

TEST(PackedIntVector, PayloadBits) {
  PackedIntVector v(1000, 21);
  EXPECT_EQ(v.payload_bits(), 21'000u);
}

// -------------------------------------------------------- SlicedBitMatrix

TEST(SlicedBitMatrix, SetAndTestPerSlot) {
  SlicedBitMatrix m(100, 9);
  m.set(3, 50);
  m.set(8, 50);
  EXPECT_TRUE(m.test(3, 50));
  EXPECT_TRUE(m.test(8, 50));
  EXPECT_FALSE(m.test(4, 50));
  EXPECT_FALSE(m.test(3, 51));
}

TEST(SlicedBitMatrix, WordGroupsSlotsTogether) {
  SlicedBitMatrix m(10, 5);
  m.set(0, 7);
  m.set(2, 7);
  m.set(4, 7);
  EXPECT_EQ(m.word(7), 0b10101u);
}

TEST(SlicedBitMatrix, ProbeAndIntersectsRows) {
  SlicedBitMatrix m(64, 4);
  // Slot 1 contains rows {3, 9}; slot 2 only row 3.
  m.set(1, 3);
  m.set(1, 9);
  m.set(2, 3);
  const std::vector<std::uint64_t> probe{3, 9};
  EXPECT_EQ(m.probe_and(probe), 0b0010u);  // only slot 1 has both rows
  const std::vector<std::uint64_t> probe_one{3};
  EXPECT_EQ(m.probe_and(probe_one), 0b0110u);
}

TEST(SlicedBitMatrix, ClearSlotRowsLeavesOtherSlotsIntact) {
  SlicedBitMatrix m(128, 6);
  for (std::size_t r = 0; r < 128; ++r) {
    m.set(2, r);
    m.set(3, r);
  }
  m.clear_slot_rows(2, 10, 100);
  for (std::size_t r = 0; r < 128; ++r) {
    EXPECT_EQ(m.test(2, r), r < 10 || r >= 100);
    EXPECT_TRUE(m.test(3, r));
  }
}

TEST(SlicedBitMatrix, MultiLaneBeyond64Slots) {
  SlicedBitMatrix m(32, 130);  // 3 lanes
  EXPECT_EQ(m.lanes(), 3u);
  m.set(0, 5);
  m.set(64, 5);
  m.set(129, 5);
  EXPECT_TRUE(m.test(0, 5));
  EXPECT_TRUE(m.test(64, 5));
  EXPECT_TRUE(m.test(129, 5));
  EXPECT_FALSE(m.test(65, 5));
  const std::vector<std::uint64_t> probe{5};
  EXPECT_EQ(m.probe_and(probe, 0), 1u);
  EXPECT_EQ(m.probe_and(probe, 1), 1u);
  EXPECT_EQ(m.probe_and(probe, 2), 2u);
}

TEST(SlicedBitMatrix, CountSlot) {
  SlicedBitMatrix m(1000, 3);
  for (std::size_t r = 0; r < 1000; r += 10) m.set(1, r);
  EXPECT_EQ(m.count_slot(1), 100u);
  EXPECT_EQ(m.count_slot(0), 0u);
}

// ------------------------------------------------ differential fuzzing

TEST(PackedIntVectorFuzz, MatchesReferenceVectorUnderRandomOps) {
  // 20k random get/set/fill ops at awkward widths vs a plain uint64 vector.
  for (const std::size_t width : {3u, 13u, 21u, 37u, 61u}) {
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    PackedIntVector packed(501, width);
    std::vector<std::uint64_t> reference(501, 0);
    stream::Rng rng(width * 1000003);
    for (int op = 0; op < 20'000; ++op) {
      const std::size_t i = static_cast<std::size_t>(rng.below(501));
      switch (rng.below(8)) {
        case 0: {  // occasional fill
          const std::uint64_t v = rng.next() & mask;
          packed.fill_all(v);
          std::fill(reference.begin(), reference.end(), v);
          break;
        }
        default: {
          const std::uint64_t v = rng.next() & mask;
          packed.set(i, v);
          reference[i] = v;
          break;
        }
      }
      const std::size_t probe = static_cast<std::size_t>(rng.below(501));
      ASSERT_EQ(packed.get(probe), reference[probe])
          << "width " << width << " op " << op;
    }
  }
}

TEST(SlicedBitMatrixFuzz, MatchesReferenceUnderRandomOps) {
  constexpr std::size_t kRows = 300;
  constexpr std::size_t kSlots = 70;  // forces two lanes
  SlicedBitMatrix m(kRows, kSlots);
  std::vector<std::vector<bool>> reference(kSlots,
                                           std::vector<bool>(kRows, false));
  stream::Rng rng(99);
  for (int op = 0; op < 20'000; ++op) {
    const std::size_t slot = static_cast<std::size_t>(rng.below(kSlots));
    if (rng.chance(0.9)) {
      const std::size_t row = static_cast<std::size_t>(rng.below(kRows));
      m.set(slot, row);
      reference[slot][row] = true;
    } else {
      std::size_t a = static_cast<std::size_t>(rng.below(kRows));
      std::size_t b = static_cast<std::size_t>(rng.below(kRows + 1));
      if (a > b) std::swap(a, b);
      m.clear_slot_rows(slot, a, b);
      for (std::size_t r = a; r < b; ++r) reference[slot][r] = false;
    }
    const std::size_t ps = static_cast<std::size_t>(rng.below(kSlots));
    const std::size_t pr = static_cast<std::size_t>(rng.below(kRows));
    ASSERT_EQ(m.test(ps, pr), reference[ps][pr]) << "op " << op;
  }
  // Full sweep at the end, including per-slot counts.
  for (std::size_t s2 = 0; s2 < kSlots; ++s2) {
    std::size_t expected = 0;
    for (std::size_t r = 0; r < kRows; ++r) {
      ASSERT_EQ(m.test(s2, r), reference[s2][r]);
      expected += reference[s2][r] ? 1 : 0;
    }
    ASSERT_EQ(m.count_slot(s2), expected);
  }
}

TEST(BitVectorFuzz, ResetRangeMatchesReference) {
  BitVector v(777);
  std::vector<bool> reference(777, false);
  stream::Rng rng(5);
  for (int op = 0; op < 10'000; ++op) {
    if (rng.chance(0.7)) {
      const std::size_t i = static_cast<std::size_t>(rng.below(777));
      v.set(i);
      reference[i] = true;
    } else {
      std::size_t a = static_cast<std::size_t>(rng.below(777));
      std::size_t b = static_cast<std::size_t>(rng.below(778));
      if (a > b) std::swap(a, b);
      v.reset_range(a, b);
      for (std::size_t r = a; r < b; ++r) reference[r] = false;
    }
  }
  std::size_t expected_count = 0;
  for (std::size_t i = 0; i < 777; ++i) {
    ASSERT_EQ(v.test(i), reference[i]);
    expected_count += reference[i] ? 1 : 0;
  }
  EXPECT_EQ(v.count(), expected_count);
}

}  // namespace
}  // namespace ppc::bits
