// Batched-offer equivalence: offer_batch must be verdict-for-verdict
// identical to the element-at-a-time path, across batch sizes that cross
// sub-window jumps and wraparound boundaries, and the default base-class
// implementations (the one-stamp convenience and the timed loop) must work
// for every detector.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/stable_bloom_filter.hpp"
#include "core/age_partitioned_bloom_filter.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/timing_bloom_filter.hpp"
#include "detector_test_util.hpp"

namespace ppc::core {
namespace {

struct BatchCase {
  std::size_t batch_size;
};

class GbfBatchTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(GbfBatchTest, BatchMatchesSequential) {
  const auto w = WindowSpec::jumping_count(512, 4);
  GroupBloomFilter::Options opts;
  opts.bits_per_subfilter = 1 << 14;
  opts.hash_count = 5;
  GroupBloomFilter seq(w, opts);
  GroupBloomFilter bat(w, opts);

  const auto ids = testutil::make_id_stream(9000, 0.3, 1024, 55);
  std::vector<bool> expected(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) expected[i] = seq.offer(ids[i]);

  const std::size_t bs = GetParam().batch_size;
  std::vector<bool> got(ids.size());
  // std::vector<bool> has no data(); use a plain buffer per batch.
  for (std::size_t off = 0; off < ids.size(); off += bs) {
    const std::size_t n = std::min(bs, ids.size() - off);
    bool buf[4096];
    ASSERT_LE(n, sizeof(buf));
    bat.offer_batch(std::span<const ClickId>(ids.data() + off, n),
                    std::span<bool>(buf, n));
    for (std::size_t j = 0; j < n; ++j) got[off + j] = buf[j];
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "diverged at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GbfBatchTest,
                         ::testing::Values(BatchCase{1}, BatchCase{2},
                                           BatchCase{7}, BatchCase{128},
                                           BatchCase{511}, BatchCase{4096}));

class TbfBatchTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(TbfBatchTest, BatchMatchesSequential) {
  const auto w = WindowSpec::sliding_count(512);
  TimingBloomFilter::Options opts;
  opts.entries = 1 << 14;
  opts.hash_count = 5;
  TimingBloomFilter seq(w, opts);
  TimingBloomFilter bat(w, opts);

  const auto ids = testutil::make_id_stream(9000, 0.3, 1024, 56);
  std::vector<bool> expected(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) expected[i] = seq.offer(ids[i]);

  const std::size_t bs = GetParam().batch_size;
  std::vector<bool> got(ids.size());
  for (std::size_t off = 0; off < ids.size(); off += bs) {
    const std::size_t n = std::min(bs, ids.size() - off);
    bool buf[4096];
    ASSERT_LE(n, sizeof(buf));
    bat.offer_batch(std::span<const ClickId>(ids.data() + off, n),
                    std::span<bool>(buf, n));
    for (std::size_t j = 0; j < n; ++j) got[off + j] = buf[j];
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "diverged at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TbfBatchTest,
                         ::testing::Values(BatchCase{1}, BatchCase{2},
                                           BatchCase{7}, BatchCase{128},
                                           BatchCase{511}, BatchCase{4096}));

// One-stamp batches go through the base-class default, which stamps the
// whole batch and makes ONE call to the timed overload: time-basis GBF,
// TBF and APBF, and a 4-shard ShardedDetector fanned out over 4 threads
// (so a batch must reach it whole, not in chunks), each against a
// per-click offer(id, t) replay at batch sizes around the 256-click mark.
struct OneStampDetector {
  const char* name;
  std::unique_ptr<DuplicateDetector> (*make)();
};

constexpr std::uint64_t kUnitUs = 10'000;
constexpr std::uint64_t kSpanUs = 20 * kUnitUs;

std::unique_ptr<DuplicateDetector> make_time_tbf() {
  TimingBloomFilter::Options opts;
  opts.entries = 1 << 14;
  opts.hash_count = 5;
  return std::make_unique<TimingBloomFilter>(
      WindowSpec::sliding_time(kSpanUs, kUnitUs), opts);
}

const OneStampDetector kOneStampDetectors[] = {
    {"GBF_time",
     [] {
       GroupBloomFilter::Options opts;
       opts.bits_per_subfilter = 1 << 14;
       opts.hash_count = 5;
       return std::unique_ptr<DuplicateDetector>(
           std::make_unique<GroupBloomFilter>(
               WindowSpec::jumping_time(kSpanUs, 4, kUnitUs), opts));
     }},
    {"TBF_time", &make_time_tbf},
    {"APBF_time",
     [] {
       AgePartitionedBloomFilter::Options opts;
       opts.bits_per_slice = 1 << 12;
       opts.consecutive = 5;
       opts.generations = 4;
       return std::unique_ptr<DuplicateDetector>(
           std::make_unique<AgePartitionedBloomFilter>(
               WindowSpec::sliding_time(kSpanUs, kUnitUs), opts));
     }},
    {"Sharded4x4_TBF_time",
     [] {
       return std::unique_ptr<DuplicateDetector>(
           std::make_unique<ShardedDetector>(
               4, [](std::size_t) { return make_time_tbf(); },
               ShardedDetector::Options{.threads = 4}));
     }},
};

class OneStampBatchTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(OneStampBatchTest, BatchMatchesPerClickReplay) {
  const OneStampDetector& kind = kOneStampDetectors[std::get<0>(GetParam())];
  const std::size_t bs = std::get<1>(GetParam());
  const auto seq = kind.make();
  const auto bat = kind.make();

  // Every batch carries one stamp that grows with its first click's index,
  // so the ~90 window units of the stream expire state at every size.
  const auto ids = testutil::make_id_stream(9000, 0.3, 1024, 58);
  const auto stamp = [&](std::size_t i) {
    return 1'000'000 + 100 * static_cast<std::uint64_t>(i / bs * bs);
  };
  std::vector<bool> expected(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expected[i] = seq->offer(ids[i], stamp(i));
  }
  std::vector<char> got(ids.size());
  for (std::size_t off = 0; off < ids.size(); off += bs) {
    const std::size_t n = std::min(bs, ids.size() - off);
    bat->offer_batch(std::span<const ClickId>(ids.data() + off, n),
                     std::span<bool>(reinterpret_cast<bool*>(got.data()) + off,
                                     n),
                     stamp(off));
  }
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(got[i] != 0, expected[i]) << kind.name << " diverged at " << i;
    duplicates += expected[i] ? 1 : 0;
  }
  EXPECT_GT(duplicates, 0u) << kind.name;
}

INSTANTIATE_TEST_SUITE_P(
    TimeBasis, OneStampBatchTest,
    ::testing::Combine(::testing::Range<std::size_t>(
                           0, std::size(kOneStampDetectors)),
                       ::testing::Values<std::size_t>(1, 255, 256, 257, 4096)),
    [](const auto& info) {
      return std::string(kOneStampDetectors[std::get<0>(info.param)].name) +
             "_" + std::to_string(std::get<1>(info.param));
    });

TEST(BatchDefault, BaseImplementationWorksForAnyDetector) {
  baseline::StableBloomFilter::Options opts;
  opts.cells = 1 << 12;
  baseline::StableBloomFilter a(WindowSpec::sliding_count(128), opts);
  baseline::StableBloomFilter b(WindowSpec::sliding_count(128), opts);
  const auto ids = testutil::make_id_stream(2000, 0.4, 128, 57);
  bool buf[2000];
  a.offer_batch(std::span<const ClickId>(ids.data(), ids.size()),
                std::span<bool>(buf, ids.size()));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(buf[i], b.offer(ids[i]));
  }
}

TEST(Batch, EmptyBatchIsANoOp) {
  TimingBloomFilter::Options opts;
  opts.entries = 1 << 10;
  TimingBloomFilter tbf(WindowSpec::sliding_count(16), opts);
  tbf.offer_batch({}, {});
  EXPECT_FALSE(tbf.offer(1));
}

TEST(Batch, TimeBasedFallsBackCorrectly) {
  const auto w = WindowSpec::sliding_time(1'000'000, 10'000);
  TimingBloomFilter::Options opts;
  opts.entries = 1 << 12;
  TimingBloomFilter tbf(w, opts);
  const ClickId ids[] = {1, 2, 1};
  bool buf[3];
  tbf.offer_batch(std::span<const ClickId>(ids, 3), std::span<bool>(buf, 3),
                  500'000);
  EXPECT_FALSE(buf[0]);
  EXPECT_FALSE(buf[1]);
  EXPECT_TRUE(buf[2]);
}

}  // namespace
}  // namespace ppc::core
