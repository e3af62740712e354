// Golden snapshot bytes: the length and CRC-32 of fixed-seed snapshots of
// every detector and composite layer, pinned as constants. Round-trip
// tests only prove that save() and restore() agree with each other; these
// prove the bytes themselves never drift, so a snapshot written by one
// build restores in the next and a follower stays byte-identical to its
// primary across upgrades. Any change to a constant here is a snapshot
// format change and must be deliberate.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "adnet/tiered_detector_pool.hpp"
#include "core/age_partitioned_bloom_filter.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/timing_bloom_filter.hpp"
#include "detector_test_util.hpp"
#include "enforce/reputation_ledger.hpp"
#include "hashing/crc32.hpp"
#include "server/enforcing_sink.hpp"
#include "server/ingest_server.hpp"
#include "stream/rng.hpp"

namespace ppc {
namespace {

using core::ClickId;
using core::WindowSpec;

struct Golden {
  std::size_t length;
  std::uint32_t crc;
};

void expect_golden(const std::string& bytes, Golden want) {
  const std::uint32_t crc = hashing::crc32(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  EXPECT_EQ(bytes.size(), want.length);
  EXPECT_EQ(crc, want.crc) << std::hex << "0x" << crc;
}

template <class Saveable>
std::string saved(const Saveable& s) {
  std::ostringstream out(std::ios::binary);
  s.save(out);
  return out.str();
}

/// Offers a fixed stream with steadily advancing timestamps, so count and
/// time windows both carry live, partly expired state.
void feed(core::DuplicateDetector& d, std::uint64_t seed,
          std::size_t n = 5000) {
  const auto ids = testutil::make_id_stream(n, 0.3, 512, seed);
  for (std::size_t i = 0; i < ids.size(); ++i) d.offer(ids[i], 1000 * i);
}

core::GroupBloomFilter::Options gbf_opts(std::uint64_t seed) {
  core::GroupBloomFilter::Options o;
  o.bits_per_subfilter = 1 << 12;
  o.hash_count = 4;
  o.seed = seed;
  return o;
}

std::unique_ptr<core::ShardedDetector> sharded(std::size_t threads,
                                               std::uint64_t seed) {
  return std::make_unique<core::ShardedDetector>(
      4,
      [seed](std::size_t) {
        return std::make_unique<core::GroupBloomFilter>(
            WindowSpec::jumping_count(256, 4), gbf_opts(seed));
      },
      core::ShardedDetector::Options{.threads = threads});
}

TEST(SnapshotGolden, GroupBloomFilter) {
  core::GroupBloomFilter gbf(WindowSpec::jumping_count(1024, 8), gbf_opts(3));
  feed(gbf, 31);
  expect_golden(saved(gbf), {32912, 0x49cda8e8});
}

TEST(SnapshotGolden, TimingBloomFilter) {
  core::TimingBloomFilter::Options o;
  o.entries = 1 << 12;
  o.hash_count = 4;
  o.seed = 5;
  core::TimingBloomFilter tbf(WindowSpec::sliding_time(2'000'000, 1000), o);
  feed(tbf, 32);
  expect_golden(saved(tbf), {6288, 0x9e0ac4b5});
}

TEST(SnapshotGolden, AgePartitionedBloomFilter) {
  core::AgePartitionedBloomFilter::Options o;
  o.bits_per_slice = 1 << 10;
  o.consecutive = 4;
  o.generations = 4;
  o.seed = 7;
  core::AgePartitionedBloomFilter apbf(WindowSpec::sliding_count(1024), o);
  feed(apbf, 33);
  expect_golden(saved(apbf), {1328, 0x4aed72c0});
}

TEST(SnapshotGolden, ShardedDetectorAtOneAndFourThreads) {
  const auto ids = testutil::make_id_stream(6000, 0.3, 512, 34);
  for (const std::size_t threads : {1u, 4u}) {
    auto d = sharded(threads, 11);
    std::vector<char> out(ids.size());
    bool* verdicts = reinterpret_cast<bool*>(out.data());
    constexpr std::size_t kBatch = 500;
    for (std::size_t off = 0; off < ids.size(); off += kBatch) {
      d->offer_batch(std::span<const ClickId>(ids.data() + off, kBatch),
                     std::span<bool>(verdicts + off, kBatch));
    }
    SCOPED_TRACE(threads);
    expect_golden(saved(*d), {131736, 0xde75a17d});
  }
}

TEST(SnapshotGolden, DetectorPoolOfShardedDetectors) {
  adnet::DetectorPool pool(
      [](std::uint32_t ad) { return sharded(1, 20 + ad); });
  const auto ids = testutil::make_id_stream(6000, 0.3, 512, 35);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    pool.offer(static_cast<std::uint32_t>((ids[i] * 7) % 5), ids[i], 0);
  }
  expect_golden(saved(pool), {658760, 0x4ae91b5c});
}

TEST(SnapshotGolden, TieredPoolAfterPromotion) {
  adnet::TieredPoolOptions opts;
  opts.memory_cap_bits = std::size_t{1} << 24;
  opts.hot_window = WindowSpec::sliding_count(256);
  opts.hot_target_fpr = 1e-3;
  opts.tail_window_clicks = std::uint64_t{1} << 12;
  opts.tail_target_fpr = 1e-2;
  opts.hh_capacity = 16;
  opts.epoch_clicks = 1 << 10;
  adnet::TieredDetectorPool pool(opts);
  stream::Rng rng(36);
  std::uint64_t fresh = 1'000'000;
  for (int i = 0; i < 3 * (1 << 10); ++i) {
    const std::uint32_t ad =
        rng.chance(0.5) ? 9
                        : 100 + static_cast<std::uint32_t>(rng.below(500));
    const ClickId id = rng.chance(0.2) ? fresh - 1 - rng.below(64) : fresh++;
    pool.offer(ad, id, static_cast<std::uint64_t>(i));
  }
  ASSERT_GE(pool.stats().promotions, 1u);
  expect_golden(saved(pool), {72784, 0x93f5e30a});
}

TEST(SnapshotGolden, EnforcingSinkEnvelope) {
  adnet::DetectorPool pool([](std::uint32_t) {
    return std::make_unique<core::GroupBloomFilter>(
        WindowSpec::jumping_count(256, 4), gbf_opts(41));
  });
  server::PoolSink inner(pool);
  enforce::EnforcementPolicy policy;
  policy.flag_min_duplicates = 4;
  policy.discount_min_duplicates = 8;
  policy.block_min_duplicates = 16;
  policy.blatant_min_duplicates = 16;
  policy.min_clicks = 8;
  enforce::ReputationLedger ledger(policy);
  server::EnforcingSink sink(inner, ledger);

  stream::Rng rng(37);
  constexpr std::size_t kBatch = 256;
  std::vector<std::uint32_t> ads(kBatch), sources(kBatch);
  std::vector<ClickId> ids(kBatch);
  std::vector<std::uint64_t> times(kBatch);
  std::vector<char> out(kBatch);
  std::uint64_t t = 0;
  for (int b = 0; b < 16; ++b) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      ads[i] = static_cast<std::uint32_t>(rng.below(3));
      sources[i] = 0x0a000000 + static_cast<std::uint32_t>(rng.below(40));
      // Low sources hammer a few ids; the rest click fresh ones.
      ids[i] = sources[i] < 0x0a000004 ? rng.below(8)
                                        : 1000 + rng.below(1u << 20);
      times[i] = t += 997;
    }
    sink.offer_with_sources(
        ads, ids, times, sources,
        std::span<bool>(reinterpret_cast<bool*>(out.data()), kBatch));
  }
  ASSERT_GT(ledger.stats().sources, 0u);

  const std::string path = ::testing::TempDir() + "/golden_envelope.snap";
  server::IngestServer::save_sink_snapshot(sink, path);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes(std::istreambuf_iterator<char>(in), {});
  expect_golden(bytes, {99344, 0xcf5ba7d9});
}

}  // namespace
}  // namespace ppc
