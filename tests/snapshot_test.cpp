// Tests for detector snapshotting: a reloaded detector must be verdict-
// for-verdict identical to one that never stopped, for both algorithms,
// both window bases, and at arbitrary checkpoints (including mid-cleaning
// and mid-sub-window).
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "adnet/detector_pool.hpp"
#include "adnet/tiered_detector_pool.hpp"
#include "core/age_partitioned_bloom_filter.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/snapshot_io.hpp"
#include "core/timing_bloom_filter.hpp"
#include "detector_test_util.hpp"
#include "enforce/reputation_ledger.hpp"
#include "server/ingest_server.hpp"

namespace ppc::core {
namespace {

GroupBloomFilter::Options gbf_opts() {
  GroupBloomFilter::Options o;
  o.bits_per_subfilter = 1 << 14;
  o.hash_count = 5;
  o.seed = 9;
  return o;
}

TimingBloomFilter::Options tbf_opts() {
  TimingBloomFilter::Options o;
  o.entries = 1 << 14;
  o.hash_count = 5;
  o.seed = 9;
  return o;
}

struct CheckpointCase {
  std::uint64_t checkpoint_at;
};

class GbfSnapshotTest : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(GbfSnapshotTest, ResumesIdenticallyAfterReload) {
  const auto w = WindowSpec::jumping_count(512, 4);
  GroupBloomFilter reference(w, gbf_opts());
  GroupBloomFilter live(w, gbf_opts());
  const auto ids = testutil::make_id_stream(8000, 0.3, 1024, 77);

  std::unique_ptr<GroupBloomFilter> resumed;
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    if (i == GetParam().checkpoint_at) {
      std::stringstream buffer;
      live.save(buffer);
      resumed = std::make_unique<GroupBloomFilter>(w, gbf_opts());
      resumed->restore(buffer);
    }
    const bool expected = reference.offer(ids[i]);
    DuplicateDetector& d = resumed ? *resumed : live;
    ASSERT_EQ(d.offer(ids[i]), expected) << "diverged at arrival " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Checkpoints, GbfSnapshotTest,
    ::testing::Values(CheckpointCase{0},     // before any arrival
                      CheckpointCase{1},     // right after the first
                      CheckpointCase{511},   // just before a jump
                      CheckpointCase{512},   // right at a jump
                      CheckpointCase{1300},  // mid-sub-window, mid-cleaning
                      CheckpointCase{4096}));

class TbfSnapshotTest : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(TbfSnapshotTest, ResumesIdenticallyAfterReload) {
  const auto w = WindowSpec::sliding_count(512);
  TimingBloomFilter reference(w, tbf_opts());
  TimingBloomFilter live(w, tbf_opts());
  const auto ids = testutil::make_id_stream(8000, 0.3, 1024, 78);

  std::unique_ptr<TimingBloomFilter> resumed;
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    if (i == GetParam().checkpoint_at) {
      std::stringstream buffer;
      live.save(buffer);
      resumed = std::make_unique<TimingBloomFilter>(w, tbf_opts());
      resumed->restore(buffer);
    }
    const bool expected = reference.offer(ids[i]);
    DuplicateDetector& d = resumed ? *resumed : live;
    ASSERT_EQ(d.offer(ids[i]), expected) << "diverged at arrival " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Checkpoints, TbfSnapshotTest,
    ::testing::Values(CheckpointCase{0}, CheckpointCase{1},
                      CheckpointCase{511}, CheckpointCase{512},
                      CheckpointCase{1023},  // wraparound boundary region
                      CheckpointCase{4096}));

TEST(TbfSnapshot, TimeBasedStateSurvives) {
  const auto w = WindowSpec::sliding_time(1'000'000, 10'000);
  TimingBloomFilter live(w, tbf_opts());
  live.offer(5, 100'000);
  live.offer(6, 200'000);

  std::stringstream buffer;
  live.save(buffer);
  auto resumed = std::make_unique<TimingBloomFilter>(w, tbf_opts());
  resumed->restore(buffer);

  // In-window duplicates still flagged, expiry clock still correct.
  EXPECT_TRUE(resumed->offer(5, 300'000));
  EXPECT_FALSE(resumed->offer(5, 5'000'000));
}

TEST(GbfSnapshot, TimeBasedStateSurvives) {
  const auto w = WindowSpec::jumping_time(1'000'000, 4, 10'000);
  GroupBloomFilter live(w, gbf_opts());
  live.offer(5, 100'000);

  std::stringstream buffer;
  live.save(buffer);
  auto resumed = std::make_unique<GroupBloomFilter>(w, gbf_opts());
  resumed->restore(buffer);
  EXPECT_TRUE(resumed->offer(5, 300'000));
  EXPECT_FALSE(resumed->offer(5, 10'000'000));
}

TEST(Snapshot, RejectsGarbageAndWrongMagic) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(64), tbf_opts());
  std::stringstream garbage("this is not a snapshot at all, sorry");
  EXPECT_THROW(tbf.restore(garbage), std::runtime_error);

  // A GBF snapshot is not a TBF snapshot.
  GroupBloomFilter gbf(WindowSpec::jumping_count(64, 2), gbf_opts());
  std::stringstream buffer;
  gbf.save(buffer);
  EXPECT_THROW(tbf.restore(buffer), std::runtime_error);
}

// A corrupt word-count header must surface as runtime_error BEFORE any
// allocation is attempted — not as a multi-GiB std::vector resize (or
// bad_alloc / OOM-kill) followed by EOF. The TBF layout puts the word
// count at a fixed offset: magic + 5 window fields + 5 option fields +
// 5 state fields = 16 u64s = 128 bytes.
TEST(Snapshot, RejectsForgedWordCountHeader) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(64), tbf_opts());
  tbf.offer(42);
  std::stringstream buffer;
  tbf.save(buffer);
  std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 136u);

  constexpr std::size_t kWordCountOffset = 128;
  // Absurd count (fails the absolute cap).
  std::string forged = bytes;
  const std::uint64_t huge = ~std::uint64_t{0} >> 3;
  std::memcpy(forged.data() + kWordCountOffset, &huge, 8);
  std::stringstream forged_in(forged);
  TimingBloomFilter target(WindowSpec::sliding_count(64), tbf_opts());
  EXPECT_THROW(target.restore(forged_in), std::runtime_error);

  // Plausible-looking count that still exceeds the remaining bytes
  // (fails the remaining-stream bound).
  forged = bytes;
  const std::uint64_t oversize =
      (bytes.size() - kWordCountOffset) / 8 + 1000;
  std::memcpy(forged.data() + kWordCountOffset, &oversize, 8);
  std::stringstream oversize_in(forged);
  EXPECT_THROW(target.restore(oversize_in), std::runtime_error);

  // Unchanged bytes still load — the forgery, not the check, is at fault.
  std::stringstream intact(bytes);
  EXPECT_NO_THROW(target.restore(intact));
}

TEST(Snapshot, RejectsTruncatedInput) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(64), tbf_opts());
  std::stringstream buffer;
  tbf.save(buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  TimingBloomFilter target(WindowSpec::sliding_count(64), tbf_opts());
  EXPECT_THROW(target.restore(truncated), std::runtime_error);
}

TEST(Snapshot, InstanceRestoreRejectsMismatchedParameters) {
  const auto w = WindowSpec::jumping_count(512, 4);
  GroupBloomFilter saved(w, gbf_opts());
  saved.offer(1);
  std::stringstream buffer;
  saved.save(buffer);
  const std::string bytes = buffer.str();

  {  // different window length
    GroupBloomFilter other(WindowSpec::jumping_count(1024, 4), gbf_opts());
    std::stringstream in(bytes);
    EXPECT_THROW(other.restore(in), std::runtime_error);
  }
  {  // different filter sizing
    auto o = gbf_opts();
    o.bits_per_subfilter = 1 << 13;
    GroupBloomFilter other(w, o);
    std::stringstream in(bytes);
    EXPECT_THROW(other.restore(in), std::runtime_error);
  }
  {  // different seed — indices would be garbage even though sizes match
    auto o = gbf_opts();
    o.seed = 10;
    GroupBloomFilter other(w, o);
    std::stringstream in(bytes);
    EXPECT_THROW(other.restore(in), std::runtime_error);
  }
  {  // matching instance restores fine
    GroupBloomFilter other(w, gbf_opts());
    std::stringstream in(bytes);
    EXPECT_NO_THROW(other.restore(in));
    EXPECT_TRUE(other.offer(1));  // saved click visible after restore
  }
}

// ---------------------------------------------------------------------------
// Mutation fuzz of the composite (sectioned, CRC-checked) snapshot formats
// — ShardedDetector and DetectorPool — in the wire_fuzz_test.cpp style:
// every truncation point, every byte flipped with several deltas, forged
// counts with RECOMPUTED checksums, and trailing garbage must all throw
// (never crash, never silently accept).
// ---------------------------------------------------------------------------

/// Tiny sharded GBF so the full snapshot is ~1 KB and the per-byte fuzz
/// loops stay fast.
std::unique_ptr<ShardedDetector> make_tiny_sharded(
    std::size_t shards, std::uint64_t window_len = 256,
    std::uint64_t seed = 9) {
  return std::make_unique<ShardedDetector>(shards, [&](std::size_t) {
    GroupBloomFilter::Options o;
    o.bits_per_subfilter = 1 << 10;
    o.hash_count = 3;
    o.seed = seed;
    return std::make_unique<GroupBloomFilter>(
        WindowSpec::jumping_count(window_len / shards, 4), o);
  });
}

std::string saved_bytes(DuplicateDetector& d) {
  std::stringstream buffer;
  d.save(buffer);
  return buffer.str();
}

TEST(ShardedSnapshotFuzz, EveryTruncationRejected) {
  auto sharded = make_tiny_sharded(2);
  const auto ids = testutil::make_id_stream(600, 0.3, 256, 5);
  for (const auto id : ids) sharded->offer(id);
  const std::string bytes = saved_bytes(*sharded);

  auto target = make_tiny_sharded(2);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream in(bytes.substr(0, len));
    EXPECT_THROW(target->restore(in), std::exception) << "length " << len;
  }
  std::stringstream intact(bytes);
  EXPECT_NO_THROW(target->restore(intact));
}

TEST(ShardedSnapshotFuzz, EveryByteFlipRejected) {
  auto sharded = make_tiny_sharded(2);
  const auto ids = testutil::make_id_stream(600, 0.3, 256, 6);
  for (const auto id : ids) sharded->offer(id);
  const std::string bytes = saved_bytes(*sharded);

  auto target = make_tiny_sharded(2);
  // Any single corrupted byte must be caught: the section header fields by
  // their explicit validation, the payload (shard headers, cursors, filter
  // words — all of it) by the CRC.
  for (const std::uint8_t delta : {0x01, 0x80, 0xff}) {
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ delta);
      std::stringstream in(mutated);
      EXPECT_THROW(target->restore(in), std::exception)
          << "byte " << pos << " ^ " << int{delta};
    }
  }
}

/// Re-wraps a forged payload with a VALID header + CRC, so only the
/// payload-level validation stands between the forgery and the filter.
std::string rewrap(std::uint64_t magic, const std::string& payload) {
  std::stringstream out;
  detail::write_section(out, magic, [&](std::ostream& body) {
    body.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  });
  return out.str();
}

/// Extracts the (already CRC-verified) payload from a saved section.
std::string unwrap(std::uint64_t magic, const std::string& bytes,
                   const char* what) {
  std::stringstream in(bytes);
  std::string payload;
  detail::read_section(in, magic, what, [&](std::istream& body) {
    payload.assign(std::istreambuf_iterator<char>(body), {});
  });
  return payload;
}

TEST(ShardedSnapshotFuzz, ForgedShardCountWithValidCrcRejected) {
  auto sharded = make_tiny_sharded(2);
  sharded->offer(1);
  std::string payload =
      unwrap(detail::kShardedMagic, saved_bytes(*sharded), "fuzz");

  auto target = make_tiny_sharded(2);
  for (const std::uint64_t forged_count : {0ull, 1ull, 3ull, 4096ull,
                                           ~0ull}) {
    std::string forged = payload;
    std::memcpy(forged.data(), &forged_count, 8);
    std::stringstream in(rewrap(detail::kShardedMagic, forged));
    EXPECT_THROW(target->restore(in), std::exception)
        << "count " << forged_count;
  }
}

TEST(ShardedSnapshotFuzz, RandomGarbageRejected) {
  auto target = make_tiny_sharded(2);
  std::uint64_t x = 0x243F6A8885A308D3ull;  // deterministic xorshift
  for (int round = 0; round < 64; ++round) {
    std::string garbage(64 + round * 17, '\0');
    for (auto& c : garbage) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>(x);
    }
    std::stringstream in(garbage);
    EXPECT_THROW(target->restore(in), std::exception) << "round " << round;
  }
}

TEST(ShardedSnapshot, RejectsMismatchedInstanceOptions) {
  auto sharded = make_tiny_sharded(2);
  sharded->offer(1);
  const std::string bytes = saved_bytes(*sharded);

  {  // shard count mismatch names the dimension
    auto target = make_tiny_sharded(4);
    std::stringstream in(bytes);
    try {
      target->restore(in);
      FAIL() << "restore accepted a 2-shard snapshot into 4 shards";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shards"), std::string::npos)
          << e.what();
    }
  }
  {  // window mismatch (different aggregate count length)
    auto target = make_tiny_sharded(2, /*window_len=*/512);
    std::stringstream in(bytes);
    try {
      target->restore(in);
      FAIL() << "restore accepted a mismatched window";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("window"), std::string::npos)
          << e.what();
    }
  }
  {  // inner detector option mismatch (different seed) surfaces shard context
    auto target = make_tiny_sharded(2, 256, /*seed=*/10);
    std::stringstream in(bytes);
    try {
      target->restore(in);
      FAIL() << "restore accepted mismatched inner options";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardedSnapshot, EngineFlagSnapshotStillRestores) {
  // Snapshots written by the retired lock-free engine carry engine flag 1
  // (the payload's second word); the flag never affected verdicts, so
  // they must still load. save() itself always writes 0.
  auto source = make_tiny_sharded(2);
  const auto ids = testutil::make_id_stream(400, 0.3, 128, 7);
  for (const auto id : ids) source->offer(id);
  const std::string bytes = saved_bytes(*source);
  std::string payload = unwrap(detail::kShardedMagic, bytes, "flag");
  std::uint64_t flag = ~0ull;
  std::memcpy(&flag, payload.data() + 8, 8);
  ASSERT_EQ(flag, 0u);
  flag = 1;
  std::memcpy(payload.data() + 8, &flag, 8);

  auto target = make_tiny_sharded(2);
  std::stringstream in(rewrap(detail::kShardedMagic, payload));
  ASSERT_NO_THROW(target->restore(in));
  EXPECT_EQ(saved_bytes(*target), bytes);  // re-saved with flag 0
  for (std::size_t i = 0; i < 200; ++i) {
    const ClickId id = ids[i % ids.size()];
    ASSERT_EQ(target->offer(id), source->offer(id)) << "click " << i;
  }

  flag = 2;  // anything else is corruption
  std::memcpy(payload.data() + 8, &flag, 8);
  std::stringstream bad(rewrap(detail::kShardedMagic, payload));
  EXPECT_THROW(target->restore(bad), std::runtime_error);
}

// --- DetectorPool composite format --------------------------------------

adnet::DetectorPool make_tiny_pool(std::uint64_t seed = 9) {
  return adnet::DetectorPool([seed](std::uint32_t) {
    GroupBloomFilter::Options o;
    o.bits_per_subfilter = 1 << 10;
    o.hash_count = 3;
    o.seed = seed;
    return std::make_unique<GroupBloomFilter>(WindowSpec::jumping_count(64, 4),
                                              o);
  });
}

std::string saved_pool_bytes(adnet::DetectorPool& pool) {
  std::stringstream buffer;
  pool.save(buffer);
  return buffer.str();
}

TEST(PoolSnapshotFuzz, EveryTruncationAndByteFlipRejected) {
  adnet::DetectorPool pool = make_tiny_pool();
  for (std::uint32_t ad : {7u, 3u, 900u}) {
    for (std::uint64_t i = 0; i < 50; ++i) pool.offer(ad, i % 20, 0);
  }
  const std::string bytes = saved_pool_bytes(pool);

  adnet::DetectorPool target = make_tiny_pool();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream in(bytes.substr(0, len));
    EXPECT_THROW(target.restore(in), std::exception) << "length " << len;
  }
  for (const std::uint8_t delta : {0x01, 0x80, 0xff}) {
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ delta);
      std::stringstream in(mutated);
      EXPECT_THROW(target.restore(in), std::exception)
          << "byte " << pos << " ^ " << int{delta};
    }
  }
  std::stringstream intact(bytes);
  EXPECT_NO_THROW(target.restore(intact));
  EXPECT_EQ(target.size(), 3u);
}

TEST(PoolSnapshotFuzz, ForgedAdCountsWithValidCrcRejected) {
  adnet::DetectorPool pool = make_tiny_pool();
  pool.offer(7, 1, 0);
  pool.offer(9, 2, 0);
  const std::string payload =
      unwrap(detail::kPoolMagic, saved_pool_bytes(pool), "fuzz");

  // Count larger than the ads present → runs off the payload; count
  // smaller → trailing bytes; absurd → implausible-count guard.
  for (const std::uint64_t forged_count : {1ull, 3ull, 4096ull, ~0ull}) {
    std::string forged = payload;
    std::memcpy(forged.data(), &forged_count, 8);
    adnet::DetectorPool target = make_tiny_pool();
    std::stringstream in(rewrap(detail::kPoolMagic, forged));
    EXPECT_THROW(target.restore(in), std::exception)
        << "count " << forged_count;
  }
}

TEST(PoolSnapshotFuzz, OutOfOrderAdIdsRejected) {
  adnet::DetectorPool pool = make_tiny_pool();
  pool.offer(7, 1, 0);
  const std::string payload =
      unwrap(detail::kPoolMagic, saved_pool_bytes(pool), "fuzz");

  // Duplicate the single (ad, detector) record and bump the count to 2:
  // the second record's ad id (7 again) is not strictly ascending.
  std::string forged = payload;
  const std::uint64_t two = 2;
  std::memcpy(forged.data(), &two, 8);
  forged += payload.substr(8);
  adnet::DetectorPool target = make_tiny_pool();
  std::stringstream in(rewrap(detail::kPoolMagic, forged));
  try {
    target.restore(in);
    FAIL() << "restore accepted duplicate ad records";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of order"), std::string::npos)
        << e.what();
  }
}

TEST(PoolSnapshot, RoundTripPreservesEveryAdsWindow) {
  adnet::DetectorPool pool = make_tiny_pool();
  const auto ids = testutil::make_id_stream(900, 0.4, 64, 8);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    pool.offer(static_cast<std::uint32_t>(i % 3), ids[i], 0);
  }
  const std::string bytes = saved_pool_bytes(pool);

  adnet::DetectorPool resumed = make_tiny_pool();
  std::stringstream in(bytes);
  resumed.restore(in);
  ASSERT_EQ(resumed.size(), pool.size());
  ASSERT_EQ(resumed.memory_bits(), pool.memory_bits());
  for (std::size_t i = 0; i < 300; ++i) {
    const auto ad = static_cast<std::uint32_t>(i % 3);
    const ClickId id = ids[i];
    ASSERT_EQ(resumed.offer(ad, id, 0), pool.offer(ad, id, 0))
        << "click " << i;
  }
}

TEST(PoolSnapshot, RestoreEnforcesMemoryCap) {
  adnet::DetectorPool pool = make_tiny_pool();
  for (std::uint32_t ad = 0; ad < 4; ++ad) pool.offer(ad, 1, 0);
  const std::string bytes = saved_pool_bytes(pool);

  // A pool whose cap fits only two of the four saved detectors must refuse
  // with the same length_error live creation throws.
  GroupBloomFilter probe(WindowSpec::jumping_count(64, 4), [] {
    GroupBloomFilter::Options o;
    o.bits_per_subfilter = 1 << 10;
    o.hash_count = 3;
    o.seed = 9;
    return o;
  }());
  adnet::DetectorPoolOptions small_cap;
  small_cap.memory_cap_bits = probe.memory_bits() * 2;
  adnet::DetectorPool target(
      [](std::uint32_t) {
        GroupBloomFilter::Options o;
        o.bits_per_subfilter = 1 << 10;
        o.hash_count = 3;
        o.seed = 9;
        return std::make_unique<GroupBloomFilter>(
            WindowSpec::jumping_count(64, 4), o);
      },
      small_cap);
  std::stringstream in(bytes);
  EXPECT_THROW(target.restore(in), std::length_error);
}

// --- every section format: payload garbage behind a VALID CRC -----------

/// A small saved section of the layer that owns `magic`, and how to restore
/// a section into a fresh instance of that layer.
struct SectionCase {
  std::string bytes;
  std::function<void(std::istream&)> restore;
};

SectionCase section_case(std::uint64_t magic) {
  switch (magic) {
    case detail::kShardedMagic: {
      auto sharded = make_tiny_sharded(2);
      sharded->offer(1);
      return {saved_bytes(*sharded),
              [](std::istream& in) { make_tiny_sharded(2)->restore(in); }};
    }
    case detail::kPoolMagic: {
      adnet::DetectorPool pool = make_tiny_pool();
      pool.offer(7, 1, 0);
      return {saved_pool_bytes(pool),
              [](std::istream& in) { make_tiny_pool().restore(in); }};
    }
    case detail::kTieredPoolMagic: {
      const auto make = [] {
        adnet::TieredPoolOptions o;
        o.memory_cap_bits = std::size_t{1} << 22;
        o.hot_window = WindowSpec::sliding_count(64);
        o.tail_window_clicks = 1 << 10;
        o.hh_capacity = 8;
        o.epoch_clicks = 1 << 8;
        return std::make_unique<adnet::TieredDetectorPool>(o);
      };
      auto pool = make();
      pool->offer(3, 1, 0);
      std::stringstream out;
      pool->save(out);
      return {out.str(), [make](std::istream& in) { make()->restore(in); }};
    }
    case detail::kApbfMagic: {
      const auto make = [] {
        AgePartitionedBloomFilter::Options o;
        o.bits_per_slice = 1 << 8;
        o.consecutive = 3;
        o.generations = 2;
        return std::make_unique<AgePartitionedBloomFilter>(
            WindowSpec::sliding_count(64), o);
      };
      auto apbf = make();
      apbf->offer(1);
      return {saved_bytes(*apbf),
              [make](std::istream& in) { make()->restore(in); }};
    }
    case detail::kEnforceMagic: {
      enforce::ReputationLedger ledger{enforce::EnforcementPolicy{}};
      ledger.observe(0x0a000001, 0, true, 1000);
      std::stringstream out;
      ledger.save(out);
      return {out.str(), [](std::istream& in) {
                enforce::ReputationLedger{enforce::EnforcementPolicy{}}
                    .restore(in);
              }};
    }
    case detail::kServerSnapshotMagic: {
      auto sharded = make_tiny_sharded(2);
      sharded->offer(1);
      server::DetectorSink sink(*sharded);
      const std::string path = ::testing::TempDir() + "/trailing.snap";
      server::IngestServer::save_sink_snapshot(sink, path);
      std::ifstream file(path, std::ios::binary);
      return {std::string(std::istreambuf_iterator<char>(file), {}),
              [](std::istream& in) {
                auto target = make_tiny_sharded(2);
                server::DetectorSink target_sink(*target);
                server::IngestServer::restore_sink_snapshot(target_sink, in);
              }};
    }
  }
  throw std::logic_error("no section case for this magic");
}

class SectionTrailingGarbage
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SectionTrailingGarbage, RejectedDespiteValidCrc) {
  const std::uint64_t magic = GetParam();
  const SectionCase c = section_case(magic);
  std::string payload = unwrap(magic, c.bytes, "fuzz");
  {  // the re-wrapped payload itself restores
    std::stringstream in(rewrap(magic, payload));
    ASSERT_NO_THROW(c.restore(in));
  }
  payload += "extra";
  std::stringstream in(rewrap(magic, payload));
  EXPECT_THROW(c.restore(in), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    AllSections, SectionTrailingGarbage,
    ::testing::Values(detail::kShardedMagic, detail::kPoolMagic,
                      detail::kTieredPoolMagic, detail::kApbfMagic,
                      detail::kEnforceMagic, detail::kServerSnapshotMagic),
    [](const auto& info) { return detail::section_name(info.param); });

}  // namespace
}  // namespace ppc::core
