// Parallel batched-ingestion equivalence: ShardedDetector::offer_batch at
// 1..8 threads must yield verdicts bit-identical to the sequential
// mutex-per-offer path (bucketization preserves within-shard order), for
// every algorithm the DetectorFactory can select; zero-false-negatives
// must hold end-to-end on an adversarial duplicate-heavy Zipf stream and
// under concurrent batch producers; and DetectorPool's batch route path
// must match its sequential path, including over sharded per-ad detectors
// fanned out across their own shard threads.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "analysis/validity_oracle.hpp"
#include "core/detector_factory.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/timing_bloom_filter.hpp"
#include "adnet/detector_pool.hpp"
#include "detector_test_util.hpp"
#include "stream/zipf.hpp"

namespace ppc::core {
namespace {

constexpr std::size_t kShards = 8;

DetectorBudget test_budget() {
  DetectorBudget budget;
  budget.total_memory_bits = std::uint64_t{1} << 20;
  budget.hash_count = 5;
  budget.seed = 99;
  return budget;
}

/// Factory that sizes each shard's count window at N/shards (the header's
/// guidance) and builds the paper-recommended algorithm for the spec.
ShardedDetector::Factory factory_for(WindowSpec spec) {
  if (spec.basis == WindowBasis::kCount) spec.length /= kShards;
  return [spec](std::size_t) { return make_detector(spec, test_budget()); };
}

/// Every algorithm family the DetectorFactory dispatches to: GBF (landmark
/// and small-Q jumping), TBF (large-Q jumping and sliding).
std::vector<WindowSpec> factory_specs() {
  return {
      WindowSpec::landmark_count(4096),
      WindowSpec::jumping_count(4096, 8),     // GBF
      WindowSpec::jumping_count(4096, 256),   // large Q → TBF
      WindowSpec::sliding_count(4096),        // TBF
  };
}

TEST(ParallelBatch, MatchesSequentialForEveryFactoryDetector) {
  const auto ids = testutil::make_id_stream(20000, 0.35, 2048, 77);
  for (const WindowSpec& spec : factory_specs()) {
    // Sequential reference: the mutex-per-offer path, element at a time.
    ShardedDetector seq(kShards, factory_for(spec));
    std::vector<bool> expected(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      expected[i] = seq.offer(ids[i]);
    }

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      ShardedDetector bat(kShards, factory_for(spec), {.threads = threads});
      EXPECT_EQ(bat.thread_count(), threads);
      std::vector<bool> got(ids.size());
      bool buf[509];
      for (std::size_t off = 0; off < ids.size(); off += 509) {
        const std::size_t n = std::min<std::size_t>(509, ids.size() - off);
        bat.offer_batch(std::span<const ClickId>(ids.data() + off, n),
                        std::span<bool>(buf, n));
        for (std::size_t j = 0; j < n; ++j) got[off + j] = buf[j];
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << spec.describe() << " threads=" << threads << " diverged at "
            << i;
      }
    }
  }
}

TEST(ParallelBatch, MatchesSequentialWithTimeBasedWindows) {
  // Time-based windows shard exactly; a batch shares one timestamp, so the
  // sequential reference replays each element with its batch's timestamp.
  const auto make = [] {
    return factory_for(WindowSpec::sliding_time(5'000'000, 10'000));
  };
  const auto ids = testutil::make_id_stream(12000, 0.4, 1024, 78);
  constexpr std::size_t kBatchLen = 256;
  const auto time_of_batch = [](std::size_t batch) {
    return 20'000 * static_cast<std::uint64_t>(batch);
  };

  ShardedDetector seq(kShards, make());
  std::vector<bool> expected(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expected[i] = seq.offer(ids[i], time_of_batch(i / kBatchLen));
  }

  ShardedDetector bat(kShards, make(), {.threads = 4});
  bool buf[kBatchLen];
  for (std::size_t off = 0; off < ids.size(); off += kBatchLen) {
    const std::size_t n = std::min(kBatchLen, ids.size() - off);
    bat.offer_batch(std::span<const ClickId>(ids.data() + off, n),
                    std::span<bool>(buf, n), time_of_batch(off / kBatchLen));
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(buf[j], expected[off + j]) << "diverged at " << (off + j);
    }
  }
}

TEST(ParallelBatch, ZeroFalseNegativesOnAdversarialZipfStream) {
  // Duplicate-heavy Zipf traffic (a botnet hammering the popular ids)
  // through the full parallel batch path; time-based windows shard
  // exactly, so Theorem 2's zero-FN guarantee must survive end-to-end.
  constexpr std::uint64_t kUnitUs = 10'000;
  constexpr std::uint64_t kSpanUs = 1'000 * kUnitUs;
  const auto factory = [](std::size_t) {
    TimingBloomFilter::Options opts;
    opts.entries = 1 << 16;
    opts.hash_count = 5;
    return std::make_unique<TimingBloomFilter>(
        WindowSpec::sliding_time(kSpanUs, kUnitUs), opts);
  };
  ShardedDetector sketch(kShards, factory, {.threads = 8});
  ASSERT_TRUE(sketch.zero_false_negatives());

  stream::Rng rng(41);
  const stream::ZipfSampler zipf(4000, 1.2);
  std::vector<std::uint64_t> ids(30'000);
  for (auto& id : ids) id = zipf.sample(rng);

  analysis::TimeSlidingOracle oracle(1'000, kUnitUs);
  analysis::ConfusionCounts counts;
  constexpr std::size_t kBatchLen = 128;
  bool buf[kBatchLen];
  for (std::size_t off = 0; off < ids.size(); off += kBatchLen) {
    const std::size_t n = std::min(kBatchLen, ids.size() - off);
    const std::uint64_t t = 25'000 * (off / kBatchLen);
    sketch.offer_batch(std::span<const ClickId>(ids.data() + off, n),
                       std::span<bool>(buf, n), t);
    for (std::size_t j = 0; j < n; ++j) {
      oracle.advance(t);
      const bool truth = oracle.contains_valid(ids[off + j]);
      counts.record(buf[j], truth);
      oracle.record(ids[off + j], /*validated=*/!buf[j], t);
    }
  }
  EXPECT_EQ(counts.false_negative, 0u) << counts.summary();
  EXPECT_GT(counts.true_duplicate, 1000u);  // the stream really is adversarial
}

TEST(ParallelBatch, ConcurrentBatchProducersPreserveZeroFalseNegatives) {
  // Many threads calling offer_batch on one fanned-out detector with
  // disjoint id ranges: order across producers is arbitrary, but every id
  // was offered once, so a full sequential re-offer must flag EVERY id as
  // a duplicate (zero false negatives survive concurrency).
  const auto factory = [](std::size_t) {
    TimingBloomFilter::Options opts;
    opts.entries = 1 << 14;
    opts.hash_count = 5;
    opts.seed = 9;
    return std::make_unique<TimingBloomFilter>(
        WindowSpec::sliding_time(5'000'000, 10'000), opts);
  };
  ShardedDetector d(kShards, factory, {.threads = 4});
  constexpr std::size_t kProducers = 6;
  constexpr std::size_t kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&d, p] {
      std::vector<ClickId> ids(kPerProducer);
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ids[i] = (p << 32) | (i + 1);
      }
      std::vector<char> buf(kPerProducer);
      d.offer_batch(
          std::span<const ClickId>(ids),
          std::span<bool>(reinterpret_cast<bool*>(buf.data()), buf.size()),
          1'000'000);
    });
  }
  for (auto& t : producers) t.join();
  std::size_t caught = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      caught += d.offer((p << 32) | (i + 1), 1'000'001) ? 1 : 0;
    }
  }
  EXPECT_EQ(caught, kProducers * kPerProducer);
}

TEST(ParallelBatch, ShardedRejectsZeroThreads) {
  EXPECT_THROW(ShardedDetector(
                   2, factory_for(WindowSpec::sliding_count(4096)),
                   {.threads = 0}),
               std::invalid_argument);
}

TEST(ParallelBatch, PerShardOpCountersAggregateWithoutRacing) {
  ShardedDetector d(4, factory_for(WindowSpec::jumping_count(4096, 8)),
                    {.threads = 4});
  OpCounter ops;
  d.set_op_counter(&ops);
  const auto ids = testutil::make_id_stream(4096, 0.3, 512, 79);
  std::vector<char> buf(ids.size());
  d.offer_batch(std::span<const ClickId>(ids.data(), ids.size()),
                std::span<bool>(reinterpret_cast<bool*>(buf.data()),
                                ids.size()));
  EXPECT_EQ(ops.total(), 0u);  // never written concurrently...
  const OpCounter totals = d.op_totals();
  EXPECT_GT(totals.total(), 0u);  // ...folded on demand instead
  EXPECT_EQ(ops.total(), totals.total());
  d.reset();
  EXPECT_EQ(d.op_totals().total(), 0u);
}

}  // namespace
}  // namespace ppc::core

namespace ppc::adnet {
namespace {

std::unique_ptr<core::DuplicateDetector> per_ad_tbf(std::uint32_t) {
  core::TimingBloomFilter::Options opts;
  opts.entries = 1 << 14;
  opts.hash_count = 5;
  return std::make_unique<core::TimingBloomFilter>(
      core::WindowSpec::sliding_count(512), opts);
}

TEST(DetectorPoolBatch, MatchesSequentialRoutingAcrossWorkerThreads) {
  const std::size_t n = 10'000;
  stream::Rng rng(91);
  std::vector<std::uint32_t> ad_ids(n);
  std::vector<core::ClickId> ids(n);
  const auto id_pool = testutil::make_id_stream(n, 0.5, 256, 92);
  for (std::size_t i = 0; i < n; ++i) {
    ad_ids[i] = static_cast<std::uint32_t>(rng.below(24));
    ids[i] = id_pool[i];
  }

  DetectorPool sequential(per_ad_tbf);
  std::vector<bool> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = sequential.offer(ad_ids[i], ids[i], 0);
  }

  DetectorPool batched(per_ad_tbf);
  std::vector<char> out(n);
  const std::vector<std::uint64_t> times(n, 0);  // count windows ignore them
  constexpr std::size_t kBatchLen = 777;
  for (std::size_t off = 0; off < n; off += kBatchLen) {
    const std::size_t len = std::min(kBatchLen, n - off);
    batched.offer_batch(
        std::span<const std::uint32_t>(ad_ids.data() + off, len),
        std::span<const core::ClickId>(ids.data() + off, len),
        std::span<const std::uint64_t>(times.data() + off, len),
        std::span<bool>(reinterpret_cast<bool*>(out.data()) + off, len));
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i] != 0, expected[i]) << "diverged at " << i;
  }
  EXPECT_EQ(batched.size(), sequential.size());
  EXPECT_EQ(batched.memory_bits(), sequential.memory_bits());
}

TEST(DetectorPoolBatch, ShardedPerAdDetectorsMatchSequential) {
  // Every per-ad detector is a fanned-out ShardedDetector; the pool's
  // timed batch path must match a sequential replay through unfanned ones.
  const auto sharded_factory = [](std::size_t threads) {
    return [threads](std::uint32_t ad) {
      return std::make_unique<core::ShardedDetector>(
          4,
          [ad](std::size_t) {
            core::TimingBloomFilter::Options opts;
            opts.entries = 1 << 12;
            opts.hash_count = 5;
            opts.seed = 11 + ad;
            return std::make_unique<core::TimingBloomFilter>(
                core::WindowSpec::sliding_time(5'000'000, 10'000), opts);
          },
          core::ShardedDetector::Options{.threads = threads});
    };
  };
  DetectorPool seq_pool(sharded_factory(1));
  DetectorPool fan_pool(sharded_factory(2));

  const std::size_t n = 10'000;
  stream::Rng rng(88);
  const auto ids = testutil::make_id_stream(n, 0.5, 2048, 808);
  std::vector<std::uint32_t> ad_ids(n);
  std::vector<std::uint64_t> times(n);
  std::uint64_t t = 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    ad_ids[i] = static_cast<std::uint32_t>(rng.below(3));
    t += rng.chance(0.05) ? 10'000 * (1 + rng.below(30)) : rng.below(10'000);
    times[i] = t;
  }

  std::vector<bool> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = seq_pool.offer(ad_ids[i], ids[i], times[i]);
  }
  std::vector<char> buf(n);
  fan_pool.offer_batch(
      std::span<const std::uint32_t>(ad_ids),
      std::span<const core::ClickId>(ids),
      std::span<const std::uint64_t>(times),
      std::span<bool>(reinterpret_cast<bool*>(buf.data()), buf.size()));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(buf[i] != 0, expected[i]) << "diverged at " << i;
  }
}

TEST(DetectorPoolBatch, RejectsMismatchedSpans) {
  DetectorPool pool(per_ad_tbf);
  const std::uint32_t ads[] = {1, 2};
  const core::ClickId ids[] = {10, 11};
  const std::uint64_t times[] = {0, 0};
  bool out[2];
  EXPECT_THROW(pool.offer_batch(std::span<const std::uint32_t>(ads, 1),
                                std::span<const core::ClickId>(ids, 2),
                                std::span<const std::uint64_t>(times, 2),
                                std::span<bool>(out, 2)),
               std::invalid_argument);
  EXPECT_THROW(pool.offer_batch(std::span<const std::uint32_t>(ads, 2),
                                std::span<const core::ClickId>(ids, 2),
                                std::span<const std::uint64_t>(times, 2),
                                std::span<bool>(out, 1)),
               std::invalid_argument);
  EXPECT_THROW(pool.offer_batch(std::span<const std::uint32_t>(ads, 2),
                                std::span<const core::ClickId>(ids, 2),
                                std::span<const std::uint64_t>(times, 1),
                                std::span<bool>(out, 2)),
               std::invalid_argument);
}

TEST(DetectorPoolBatch, EmptyBatchIsANoOp) {
  DetectorPool pool(per_ad_tbf);
  pool.offer_batch({}, {}, {}, {});
  EXPECT_EQ(pool.size(), 0u);
}

}  // namespace
}  // namespace ppc::adnet
