// Detector conformance suite: every DuplicateDetector implementation in
// the library must satisfy the same basic contract, independent of its
// algorithm. One parameterized suite runs the whole matrix, so adding a
// detector means adding one factory line here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/validity_oracle.hpp"
#include "baseline/exact_detectors.hpp"
#include "baseline/landmark_detector.hpp"
#include "baseline/metwally_jumping_detector.hpp"
#include "baseline/metwally_sliding_detector.hpp"
#include "baseline/naive_jumping_bloom.hpp"
#include "core/age_partitioned_bloom_filter.hpp"
#include "core/detector_factory.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/timing_bloom_filter.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace ppc {
namespace {

struct DetectorCase {
  // Stored inline rather than as std::string: gtest has no printer for
  // this struct, so it dumps the raw bytes of the parameter into every
  // registered test name. A std::string would lead that dump with a heap
  // pointer and make the names differ from build to build; inline
  // characters keep them stable.
  char label[32];
  std::function<std::unique_ptr<core::DuplicateDetector>()> make;
  // Number of filler arrivals that guarantees an id offered at arrival 0
  // has expired (window length + slack for jumping granularity).
  std::uint64_t expiry_fill;
  // Microseconds the clock advances per arrival. 0 for count-based cases
  // (every offer at time 0, as before); time-based cases pick a step that
  // makes expiry_fill arrivals span well past the time window.
  std::uint64_t time_step_us = 0;
};

constexpr std::uint64_t kN = 256;
constexpr std::uint64_t kUnitUs = 1000;

/// Drives one detector with the case's arrival clock: arrival i carries
/// timestamp i · time_step_us, so time-based windows advance while
/// count-based cases keep the old time-0 behaviour.
struct Driver {
  core::DuplicateDetector& d;
  std::uint64_t step;
  std::uint64_t arrivals = 0;
  bool offer(core::ClickId id) { return d.offer(id, arrivals++ * step); }
};

std::vector<DetectorCase> all_detectors() {
  std::vector<DetectorCase> cases;
  cases.push_back({"GBF",
                   [] {
                     core::GroupBloomFilter::Options o;
                     o.bits_per_subfilter = 1 << 14;
                     o.hash_count = 5;
                     return std::make_unique<core::GroupBloomFilter>(
                         core::WindowSpec::jumping_count(kN, 4), o);
                   },
                   2 * kN});
  cases.push_back({"TBF-sliding",
                   [] {
                     core::TimingBloomFilter::Options o;
                     o.entries = 1 << 14;
                     o.hash_count = 5;
                     return std::make_unique<core::TimingBloomFilter>(
                         core::WindowSpec::sliding_count(kN), o);
                   },
                   2 * kN});
  cases.push_back({"TBF-jumping",
                   [] {
                     core::TimingBloomFilter::Options o;
                     o.entries = 1 << 14;
                     o.hash_count = 5;
                     return std::make_unique<core::TimingBloomFilter>(
                         core::WindowSpec::jumping_count(kN, 64), o);
                   },
                   2 * kN});
  cases.push_back({"TBF-time",
                   [] {
                     core::TimingBloomFilter::Options o;
                     o.entries = 1 << 14;
                     o.hash_count = 5;
                     return std::make_unique<core::TimingBloomFilter>(
                         core::WindowSpec::sliding_time(kN * kUnitUs, kUnitUs),
                         o);
                   },
                   2 * kN, kUnitUs});
  cases.push_back({"APBF",
                   [] {
                     core::AgePartitionedBloomFilter::Options o;
                     o.bits_per_slice = 1 << 14;
                     o.consecutive = 5;
                     o.generations = 8;
                     return std::make_unique<core::AgePartitionedBloomFilter>(
                         core::WindowSpec::sliding_count(kN), o);
                   },
                   // APBF over-remembers up to (l+1) generations:
                   // (8+1)*ceil(256/8) = 288 arrivals < 2*kN = 512.
                   2 * kN});
  cases.push_back({"APBF-time",
                   [] {
                     core::AgePartitionedBloomFilter::Options o;
                     o.bits_per_slice = 1 << 14;
                     o.consecutive = 5;
                     o.generations = 8;
                     return std::make_unique<core::AgePartitionedBloomFilter>(
                         core::WindowSpec::sliding_time(kN * kUnitUs, kUnitUs),
                         o);
                   },
                   2 * kN, kUnitUs});
  cases.push_back({"Landmark-BF",
                   [] {
                     baseline::LandmarkBloomDetector::Options o;
                     o.bits = 1 << 14;
                     o.hash_count = 5;
                     return std::make_unique<baseline::LandmarkBloomDetector>(
                         core::WindowSpec::landmark_count(kN), o);
                   },
                   2 * kN});
  cases.push_back({"Metwally-jumping",
                   [] {
                     baseline::MetwallyJumpingDetector::Options o;
                     o.cells = 1 << 14;
                     o.sub_counter_bits = 8;
                     o.main_counter_bits = 16;
                     o.hash_count = 5;
                     return std::make_unique<baseline::MetwallyJumpingDetector>(
                         core::WindowSpec::jumping_count(kN, 4), o);
                   },
                   2 * kN});
  cases.push_back({"Metwally-sliding",
                   [] {
                     baseline::MetwallySlidingDetector::Options o;
                     o.cells = 1 << 14;
                     o.counter_bits = 8;
                     o.hash_count = 5;
                     return std::make_unique<baseline::MetwallySlidingDetector>(
                         core::WindowSpec::sliding_count(kN), o);
                   },
                   2 * kN});
  cases.push_back({"Naive-jumping",
                   [] {
                     baseline::NaiveJumpingBloomDetector::Options o;
                     o.bits_per_subfilter = 1 << 14;
                     o.hash_count = 5;
                     return std::make_unique<baseline::NaiveJumpingBloomDetector>(
                         core::WindowSpec::jumping_count(kN, 4), o);
                   },
                   2 * kN});
  cases.push_back({"Exact-sliding",
                   [] {
                     return std::make_unique<baseline::ExactSlidingDetector>(
                         core::WindowSpec::sliding_count(kN));
                   },
                   2 * kN});
  cases.push_back({"Exact-jumping",
                   [] {
                     return std::make_unique<baseline::ExactJumpingDetector>(
                         core::WindowSpec::jumping_count(kN, 4));
                   },
                   2 * kN});
  cases.push_back({"Sharded-TBF",
                   [] {
                     return std::make_unique<core::ShardedDetector>(
                         4, [](std::size_t) {
                           core::TimingBloomFilter::Options o;
                           o.entries = 1 << 12;
                           o.hash_count = 5;
                           return std::make_unique<core::TimingBloomFilter>(
                               core::WindowSpec::sliding_count(kN), o);
                         });
                   },
                   // Count-based windows shard approximately: each of the 4
                   // shards must see kN of ITS OWN arrivals before the id
                   // expires, so over-fill with generous slack.
                   16 * kN});
  cases.push_back({"Sharded-APBF",
                   [] {
                     return std::make_unique<core::ShardedDetector>(
                         4, [](std::size_t) {
                           core::AgePartitionedBloomFilter::Options o;
                           o.bits_per_slice = 1 << 12;
                           o.consecutive = 5;
                           o.generations = 8;
                           return std::make_unique<
                               core::AgePartitionedBloomFilter>(
                               core::WindowSpec::sliding_count(kN), o);
                         });
                   },
                   // Same shard-approximation slack as Sharded-TBF, and each
                   // shard's ~16*kN/4 arrivals clear APBF's (l+1)-generation
                   // over-remember bound of 288.
                   16 * kN});
  return cases;
}

class DetectorConformanceTest : public ::testing::TestWithParam<DetectorCase> {
};

TEST_P(DetectorConformanceTest, FirstOfferOfAnIdIsValid) {
  auto d = GetParam().make();
  Driver drv{*d, GetParam().time_step_us};
  EXPECT_FALSE(drv.offer(0xdead));
}

TEST_P(DetectorConformanceTest, ImmediateRepeatIsDuplicate) {
  auto d = GetParam().make();
  Driver drv{*d, GetParam().time_step_us};
  drv.offer(0xdead);
  EXPECT_TRUE(drv.offer(0xdead));
}

TEST_P(DetectorConformanceTest, DistinctIdsAreIndependent) {
  auto d = GetParam().make();
  Driver drv{*d, GetParam().time_step_us};
  drv.offer(1);
  EXPECT_FALSE(drv.offer(2));
}

TEST_P(DetectorConformanceTest, ExpiryEventuallyForgets) {
  auto d = GetParam().make();
  Driver drv{*d, GetParam().time_step_us};
  drv.offer(0xbeef);
  for (std::uint64_t i = 0; i < GetParam().expiry_fill; ++i) {
    drv.offer(1'000'000 + i);
  }
  EXPECT_FALSE(drv.offer(0xbeef))
      << GetParam().label << " kept an id past its window";
}

TEST_P(DetectorConformanceTest, ResetRestoresFreshState) {
  auto d = GetParam().make();
  Driver drv{*d, GetParam().time_step_us};
  drv.offer(7);
  drv.offer(8);
  d->reset();
  // After reset the clock restarts too: detectors anchor their window to
  // the first timestamp they see, so a fresh driver replays from zero.
  Driver fresh{*d, GetParam().time_step_us};
  EXPECT_FALSE(fresh.offer(7));
  EXPECT_FALSE(fresh.offer(8));
  EXPECT_TRUE(fresh.offer(7));
}

TEST_P(DetectorConformanceTest, ReportsPositiveMemoryAndName) {
  auto d = GetParam().make();
  d->offer(1);  // exact detectors only consume memory once fed
  EXPECT_GT(d->memory_bits(), 0u);
  EXPECT_FALSE(d->name().empty());
  EXPECT_NO_THROW(d->window().validate());
}

TEST_P(DetectorConformanceTest, DeterministicAcrossInstances) {
  auto a = GetParam().make();
  auto b = GetParam().make();
  Driver da{*a, GetParam().time_step_us};
  Driver db{*b, GetParam().time_step_us};
  std::uint64_t x = 12345;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const core::ClickId id = (x >> 33) % 600;
    ASSERT_EQ(da.offer(id), db.offer(id)) << GetParam().label << " @" << i;
  }
}

// Satellite arm: EVERY backend's per-click-`times` offer_batch must be
// verdict-for-verdict identical to a sequential offer(id, time) replay —
// the paper detectors override it with pipelined hashing, the baselines
// inherit the base-class loop, and both must agree with scalar offers.
TEST_P(DetectorConformanceTest, PerClickTimesBatchMatchesSequentialReplay) {
  auto seq = GetParam().make();
  auto bat = GetParam().make();
  const std::uint64_t step = GetParam().time_step_us;

  constexpr std::size_t kTotal = 3000;
  std::vector<core::ClickId> ids(kTotal);
  std::vector<std::uint64_t> times(kTotal);
  std::uint64_t x = 987654321;
  for (std::size_t i = 0; i < kTotal; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ids[i] = (x >> 33) % 600;
    times[i] = i * step;
  }

  std::vector<bool> expected(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    expected[i] = seq->offer(ids[i], times[i]);
  }

  constexpr std::size_t kChunks[] = {1, 2, 7, 64, 333, 4096};
  std::size_t pos = 0, chunk_idx = 0;
  bool buf[4096];
  while (pos < kTotal) {
    const std::size_t n =
        std::min(kChunks[chunk_idx % std::size(kChunks)], kTotal - pos);
    ++chunk_idx;
    bat->offer_batch(std::span<const core::ClickId>(ids).subspan(pos, n),
                     std::span<const std::uint64_t>(times).subspan(pos, n),
                     std::span<bool>(buf, n));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expected[pos + i])
          << GetParam().label << " diverged at click " << (pos + i);
    }
    pos += n;
  }
}

// Snapshot capability is part of the contract: a detector either advertises
// supports_snapshots() and round-trips its state, or it refuses save() with
// an error NAMING the backend — so snapshot-path callers can fail up front
// instead of mid-drain (see IngestServer's constructor check).
TEST_P(DetectorConformanceTest, SnapshotSupportMatchesAdvertisement) {
  auto d = GetParam().make();
  Driver drv{*d, GetParam().time_step_us};
  for (core::ClickId id = 0; id < 64; ++id) drv.offer(id % 40);
  if (d->supports_snapshots()) {
    std::ostringstream saved;
    EXPECT_NO_THROW(d->save(saved));
    EXPECT_FALSE(saved.str().empty());
  } else {
    std::ostringstream sink;
    try {
      d->save(sink);
      FAIL() << GetParam().label
             << " advertises no snapshot support but save() succeeded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(d->name()), std::string::npos)
          << "error message must name the backend: " << e.what();
      EXPECT_NE(std::string(e.what()).find("does not support snapshots"),
                std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectors, DetectorConformanceTest, ::testing::ValuesIn(all_detectors()),
    [](const ::testing::TestParamInfo<DetectorCase>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Theorem 1/2 end-to-end through the batch path: a heavy-tailed Zipf
// stream (the realistic click-fraud workload) batched through offer_batch
// must produce ZERO false negatives against the validity oracle.
TEST(ZeroFalseNegatives, GbfAndTbfOnZipfThroughBatchPath) {
  stream::Rng rng(314159);
  const stream::ZipfSampler zipf(4096, 1.1);
  std::vector<std::uint64_t> ids(30000);
  for (auto& id : ids) id = 0xC11C'0000'0000ULL + zipf.sample(rng);

  {
    core::GroupBloomFilter gbf(core::WindowSpec::jumping_count(2048, 8),
                               {.bits_per_subfilter = 1 << 15,
                                .hash_count = 6});
    analysis::JumpingOracle oracle(2048, 8);
    std::vector<bool> out(ids.size());
    constexpr std::size_t kBatch = 256;
    bool buf[kBatch];
    for (std::size_t off = 0; off < ids.size(); off += kBatch) {
      const std::size_t n = std::min(kBatch, ids.size() - off);
      gbf.offer_batch(std::span<const core::ClickId>(ids.data() + off, n),
                      std::span<bool>(buf, n));
      for (std::size_t j = 0; j < n; ++j) {
        const bool duplicate = buf[j];
        if (oracle.contains_valid(ids[off + j])) {
          ASSERT_TRUE(duplicate) << "GBF false negative at " << off + j;
        }
        oracle.record(ids[off + j], !duplicate, 0);
      }
    }
  }
  {
    core::TimingBloomFilter tbf(core::WindowSpec::sliding_count(2048),
                                {.entries = 1 << 15, .hash_count = 6});
    analysis::SlidingOracle oracle(2048);
    constexpr std::size_t kBatch = 256;
    bool buf[kBatch];
    for (std::size_t off = 0; off < ids.size(); off += kBatch) {
      const std::size_t n = std::min(kBatch, ids.size() - off);
      tbf.offer_batch(std::span<const core::ClickId>(ids.data() + off, n),
                      std::span<bool>(buf, n));
      for (std::size_t j = 0; j < n; ++j) {
        const bool duplicate = buf[j];
        if (oracle.contains_valid(ids[off + j])) {
          ASSERT_TRUE(duplicate) << "TBF false negative at " << off + j;
        }
        oracle.record(ids[off + j], !duplicate, 0);
      }
    }
  }
}

}  // namespace
}  // namespace ppc
