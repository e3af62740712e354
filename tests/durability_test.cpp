// Crash-recovery equivalence suite: the durability claim behind
// snapshot-on-drain is that save → load → continue produces verdicts
// BIT-IDENTICAL to a run that never stopped. This file proves it at every
// layer of the serving stack:
//
//   1. single filters (GBF count, TBF time) through the new instance
//      restore() path, at checkpoints including mid-cleaning;
//   2. TBF across its modulo-(N+C) wraparound-counter boundary — the
//      regression the incremental stale scan must survive (an expired
//      entry that aliases as fresh after restore is a billing bug);
//   3. ShardedDetector with and without batch fan-out, fed through the
//      production batch path;
//   4. DetectorPool with interleaved multi-ad timed batches;
//   5. the full daemon: an IngestServer run over loopback, drained to a
//      snapshot file, restarted from it, replaying the second half of the
//      stream — concatenated wire verdicts equal a single-process oracle;
//   6. the ppcd binary itself (cli_test style): --snapshot writes a
//      loadable file on SIGTERM, --restore refuses mismatched configs
//      with errors naming the mismatched dimension;
// plus mutation fuzz of the snapshot FILE envelope (every truncation,
// every byte flip) in the wire_fuzz_test.cpp discipline.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "baseline/landmark_detector.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/timing_bloom_filter.hpp"
#include "detector_test_util.hpp"
#include "server/client.hpp"
#include "server/ingest_server.hpp"
#include "server/server_config.hpp"
#include "stream/click.hpp"
#include "stream/generators.hpp"

namespace ppc {
namespace {

using core::ClickId;
using core::DuplicateDetector;
using core::WindowSpec;

using MakeFn = std::function<std::unique_ptr<DuplicateDetector>()>;

/// The core harness: `reference` runs uninterrupted; `live` is saved at
/// arrival `checkpoint`, restored into a FRESH instance, which then
/// continues. Every verdict must match, arrival for arrival.
void check_checkpoint_equivalence(const MakeFn& make,
                                  std::span<const ClickId> ids,
                                  const std::uint64_t* times,
                                  std::size_t checkpoint) {
  auto reference = make();
  auto live = make();
  std::unique_ptr<DuplicateDetector> resumed;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i == checkpoint) {
      std::stringstream buffer;
      live->save(buffer);
      resumed = make();
      resumed->restore(buffer);
    }
    DuplicateDetector& d = resumed ? *resumed : *live;
    const std::uint64_t t = times != nullptr ? times[i] : 0;
    ASSERT_EQ(d.offer(ids[i], t), reference->offer(ids[i], t))
        << "diverged at arrival " << i << " (checkpoint " << checkpoint
        << ")";
  }
}

/// Batch-path harness: both runs are fed through offer_batch in identical
/// `chunk`-sized pieces (the production ingest shape); the checkpoint falls
/// on the chunk boundary at/after `checkpoint_near`.
void check_checkpoint_equivalence_batched(const MakeFn& make,
                                          std::span<const ClickId> ids,
                                          std::span<const std::uint64_t> times,
                                          std::size_t checkpoint_near,
                                          std::size_t chunk = 113) {
  auto reference = make();
  auto live = make();
  std::unique_ptr<DuplicateDetector> resumed;
  std::vector<char> ref_out(chunk), live_out(chunk);
  for (std::size_t start = 0; start < ids.size(); start += chunk) {
    if (start >= checkpoint_near && !resumed) {
      std::stringstream buffer;
      live->save(buffer);
      resumed = make();
      resumed->restore(buffer);
    }
    const std::size_t n = std::min(chunk, ids.size() - start);
    const auto id_chunk = ids.subspan(start, n);
    const auto time_chunk = times.subspan(start, n);
    const std::span<bool> ref_span(reinterpret_cast<bool*>(ref_out.data()), n);
    const std::span<bool> live_span(reinterpret_cast<bool*>(live_out.data()),
                                    n);
    reference->offer_batch(id_chunk, time_chunk, ref_span);
    DuplicateDetector& d = resumed ? *resumed : *live;
    d.offer_batch(id_chunk, time_chunk, live_span);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(live_span[i], ref_span[i])
          << "diverged at arrival " << start + i;
    }
  }
}

std::vector<std::uint64_t> monotone_times(std::size_t count,
                                          std::uint64_t step_us,
                                          std::uint64_t jitter_seed) {
  std::vector<std::uint64_t> times(count);
  std::uint64_t t = 0, x = jitter_seed | 1;
  for (auto& v : times) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t += x % (step_us + 1);
    v = t;
  }
  return times;
}

// --- 1. single filters ----------------------------------------------------

struct CheckpointCase {
  std::size_t at;
};

class GbfDurability : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(GbfDurability, CountWindowResumeIsBitIdentical) {
  const MakeFn make = [] {
    core::GroupBloomFilter::Options o;
    o.bits_per_subfilter = 1 << 14;
    o.hash_count = 5;
    o.seed = 21;
    return std::make_unique<core::GroupBloomFilter>(
        WindowSpec::jumping_count(512, 4), o);
  };
  const auto ids = testutil::make_id_stream(6000, 0.35, 1024, 31);
  check_checkpoint_equivalence(make, ids, nullptr, GetParam().at);
}

INSTANTIATE_TEST_SUITE_P(Checkpoints, GbfDurability,
                         ::testing::Values(CheckpointCase{0},
                                           CheckpointCase{1},
                                           CheckpointCase{257},
                                           CheckpointCase{511},
                                           CheckpointCase{512},
                                           CheckpointCase{1300},
                                           CheckpointCase{4096}));

class TbfTimeDurability : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(TbfTimeDurability, TimeWindowResumeIsBitIdentical) {
  const MakeFn make = [] {
    core::TimingBloomFilter::Options o;
    o.entries = 1 << 14;
    o.hash_count = 5;
    o.seed = 22;
    return std::make_unique<core::TimingBloomFilter>(
        WindowSpec::sliding_time(500'000, 10'000), o);
  };
  const auto ids = testutil::make_id_stream(5000, 0.35, 512, 32);
  const auto times = monotone_times(ids.size(), 400, 17);
  check_checkpoint_equivalence(make, ids, times.data(), GetParam().at);
}

INSTANTIATE_TEST_SUITE_P(Checkpoints, TbfTimeDurability,
                         ::testing::Values(CheckpointCase{0},
                                           CheckpointCase{1},
                                           CheckpointCase{700},
                                           CheckpointCase{2048},
                                           CheckpointCase{4999}));

// --- 2. TBF wraparound-counter boundary -----------------------------------

core::TimingBloomFilter::Options wrap_tbf_opts() {
  core::TimingBloomFilter::Options o;
  o.entries = 1 << 14;  // large enough that false positives are ~impossible
  o.hash_count = 5;
  o.c = 7;  // wrap = 64 + 7 = 71: small, so the sweep crosses it often
  o.seed = 23;
  return o;
}

TEST(TbfWraparoundDurability, CheckpointSweepAcrossWrapBoundary) {
  const MakeFn make = [] {
    return std::make_unique<core::TimingBloomFilter>(
        WindowSpec::sliding_count(64), wrap_tbf_opts());
  };
  const auto ids = testutil::make_id_stream(600, 0.4, 96, 33);
  // pos_ advances once per arrival (granularity 1), modulo wrap = 71.
  // Sweep every checkpoint around the first wrap (pos_ within C of
  // wrapping and just past it) and around the second.
  for (std::size_t cp = 63; cp <= 73; ++cp) {
    check_checkpoint_equivalence(make, ids, nullptr, cp);
  }
  for (std::size_t cp = 138; cp <= 145; ++cp) {
    check_checkpoint_equivalence(make, ids, nullptr, cp);
  }
}

TEST(TbfWraparoundDurability, StaleScanReclaimsExpiredEntriesAfterRestore) {
  // Save while the tick counter sits within C of wrapping, restore, run the
  // counter through the wrap, and verify every pre-checkpoint entry has
  // been reclaimed: an id whose age passed the window must NOT come back
  // as a duplicate (aliasing-as-fresh = silently billing a valid click).
  for (std::size_t checkpoint = 64; checkpoint <= 70; ++checkpoint) {
    core::TimingBloomFilter live(WindowSpec::sliding_count(64),
                                 wrap_tbf_opts());
    for (std::size_t i = 1; i <= checkpoint; ++i) {
      ASSERT_FALSE(live.offer(i)) << "unique id reported duplicate";
    }
    std::stringstream buffer;
    live.save(buffer);
    auto resumed = std::make_unique<core::TimingBloomFilter>(
        WindowSpec::sliding_count(64), wrap_tbf_opts());
    resumed->restore(buffer);

    // 70 fresh arrivals push pos_ through the wrap; ids 1..20 now have
    // ages well past wrap_ — exactly the aliasing regime.
    for (std::size_t j = 0; j < 70; ++j) {
      ASSERT_FALSE(resumed->offer(1'000'000 + checkpoint * 1000 + j));
    }
    for (std::size_t i = 1; i <= 20; ++i) {
      EXPECT_FALSE(resumed->offer(i))
          << "expired id " << i << " aliased as fresh after restore at "
          << checkpoint;
    }
  }
}

// --- 3. ShardedDetector, sequential and fanned-out batches ---------------

MakeFn make_sharded(std::size_t threads) {
  return [threads] {
    core::ShardedDetector::Options opts;
    opts.threads = threads;
    return std::make_unique<core::ShardedDetector>(
        4,
        [](std::size_t) {
          core::GroupBloomFilter::Options o;
          o.bits_per_subfilter = 1 << 12;
          o.hash_count = 5;
          o.seed = 24;
          return std::make_unique<core::GroupBloomFilter>(
              WindowSpec::jumping_count(256, 4), o);
        },
        opts);
  };
}

/// Parameter: ShardedDetector::Options::threads.
class ShardedDurability : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedDurability, BatchedResumeIsBitIdentical) {
  const MakeFn make = make_sharded(GetParam());
  const auto ids = testutil::make_id_stream(8000, 0.35, 2048, 34);
  const std::vector<std::uint64_t> times(ids.size(), 0);
  for (const std::size_t cp : {0u, 113u, 1017u, 4068u}) {
    check_checkpoint_equivalence_batched(make, ids, times, cp);
  }
}

TEST_P(ShardedDurability, TimedBatchResumeIsBitIdentical) {
  const std::size_t threads = GetParam();
  const MakeFn make = [threads] {
    core::ShardedDetector::Options opts;
    opts.threads = threads;
    return std::make_unique<core::ShardedDetector>(
        4,
        [](std::size_t) {
          core::TimingBloomFilter::Options o;
          o.entries = 1 << 12;
          o.hash_count = 5;
          o.seed = 25;
          return std::make_unique<core::TimingBloomFilter>(
              WindowSpec::sliding_time(300'000, 10'000), o);
        },
        opts);
  };
  const auto ids = testutil::make_id_stream(6000, 0.35, 1024, 35);
  const auto times = monotone_times(ids.size(), 300, 19);
  for (const std::size_t cp : {226u, 3051u}) {
    check_checkpoint_equivalence_batched(make, ids, times, cp);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardedDurability,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

// --- 4. DetectorPool ------------------------------------------------------

TEST(PoolDurability, MultiAdTimedBatchesResumeBitIdentical) {
  const adnet::DetectorPool::Factory factory = [](std::uint32_t) {
    core::TimingBloomFilter::Options o;
    o.entries = 1 << 12;
    o.hash_count = 5;
    o.seed = 26;
    return std::make_unique<core::TimingBloomFilter>(
        WindowSpec::sliding_time(300'000, 10'000), o);
  };
  const auto ids = testutil::make_id_stream(6000, 0.35, 512, 36);
  const auto times = monotone_times(ids.size(), 250, 29);
  std::vector<std::uint32_t> ads(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ads[i] = static_cast<std::uint32_t>(ids[i] % 5);  // 5 interleaved ads
  }

  constexpr std::size_t kChunk = 113;
  constexpr std::size_t kCheckpoint = 3051;
  adnet::DetectorPool reference(factory);
  adnet::DetectorPool live(factory);
  std::optional<adnet::DetectorPool> resumed;  // pool is non-movable
  std::vector<char> ref_out(kChunk), live_out(kChunk);
  for (std::size_t start = 0; start < ids.size(); start += kChunk) {
    if (start >= kCheckpoint && !resumed) {
      std::stringstream buffer;
      live.save(buffer);
      resumed.emplace(factory);
      resumed->restore(buffer);
    }
    const std::size_t n = std::min(kChunk, ids.size() - start);
    const std::span<bool> ref_span(reinterpret_cast<bool*>(ref_out.data()), n);
    const std::span<bool> live_span(reinterpret_cast<bool*>(live_out.data()),
                                    n);
    const std::span<const std::uint32_t> ad_chunk(&ads[start], n);
    const std::span<const ClickId> id_chunk(&ids[start], n);
    const std::span<const std::uint64_t> time_chunk(&times[start], n);
    reference.offer_batch(ad_chunk, id_chunk, time_chunk, ref_span);
    adnet::DetectorPool& p = resumed ? *resumed : live;
    p.offer_batch(ad_chunk, id_chunk, time_chunk, live_span);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(live_span[i], ref_span[i]) << "diverged at " << start + i;
    }
  }
}

// --- 5. full daemon: drain → snapshot file → restart → replay -------------

std::vector<server::wire::ClickRecord> make_clicks(std::uint32_t ad_id,
                                                   std::size_t count,
                                                   std::uint64_t seed) {
  stream::MixedTrafficStream::Options opts;
  opts.seed = seed;
  opts.user_count = 400;  // small population → plenty of duplicates
  stream::MixedTrafficStream gen(opts);
  std::vector<server::wire::ClickRecord> clicks(count);
  for (auto& rec : clicks) {
    stream::Click c = gen.next();
    c.ad_id = ad_id;
    rec = {c.ad_id, stream::click_identifier(c), c.time_us};
  }
  return clicks;
}

/// Lock-step send of `clicks`; appends verdict bits to `out`.
void send_and_collect(server::BlockingClient& client,
                      std::span<const server::wire::ClickRecord> clicks,
                      std::vector<bool>& out) {
  constexpr std::size_t kBatch = 512;
  std::uint64_t seq = 0;
  std::size_t sent = 0;
  while (sent < clicks.size()) {
    const std::size_t n = std::min(kBatch, clicks.size() - sent);
    client.send_click_batch(seq, clicks.subspan(sent, n));
    sent += n;
    server::wire::FrameView frame;
    ASSERT_TRUE(client.read_frame(frame));
    ASSERT_EQ(frame.type, server::wire::FrameType::kVerdictBatch);
    server::wire::VerdictBatchView view;
    std::string err;
    ASSERT_TRUE(server::wire::parse_verdict_batch(frame.payload, view, err))
        << err;
    ASSERT_EQ(view.seq, seq);
    for (std::uint32_t i = 0; i < view.count; ++i) {
      out.push_back(view.duplicate(i));
    }
    ++seq;
  }
}

/// One server lifetime: serve `clicks` over loopback through `sink`, stop,
/// drain (writing `snapshot_path` if non-empty), append verdicts to `out`.
void serve_phase(server::ClickSink& sink,
                 std::span<const server::wire::ClickRecord> clicks,
                 const std::string& snapshot_path, std::vector<bool>& out) {
  server::IngestServer::Options opts;
  opts.snapshot_path = snapshot_path;
  server::IngestServer srv(sink, opts);
  const std::uint16_t port = srv.listen("127.0.0.1", 0);
  std::thread loop([&] { srv.run(); });
  {
    server::BlockingClient client;
    client.connect("127.0.0.1", port);
    client.handshake();
    send_and_collect(client, clicks, out);
  }
  srv.stop();
  loop.join();
  srv.drain();
}

TEST(DaemonDurability, ShardedSinkDrainRestartRestoreMatchesOracle) {
  server::DetectorConfig cfg;
  cfg.window = WindowSpec::jumping_count(4096, 8);
  cfg.memory_bits = std::uint64_t{1} << 18;
  cfg.shards = 4;
  cfg.owners = 2;
  const auto clicks = make_clicks(1, 16'000, 41);
  const std::size_t half = clicks.size() / 2;
  const std::string path = ::testing::TempDir() + "/sharded_drain.snap";

  std::vector<bool> verdicts;
  {
    auto detector = server::build_detector(cfg);
    server::DetectorSink sink(*detector);
    serve_phase(sink, std::span(clicks).first(half), path, verdicts);
  }  // first daemon gone; only the snapshot file survives
  {
    auto detector = server::build_detector(cfg);
    server::DetectorSink sink(*detector);
    server::IngestServer::restore_sink_snapshot(sink, path);
    serve_phase(sink, std::span(clicks).subspan(half), "", verdicts);
  }
  ASSERT_EQ(verdicts.size(), clicks.size());

  // Single-process oracle that never restarted.
  auto oracle = server::build_detector(cfg);
  for (std::size_t i = 0; i < clicks.size(); ++i) {
    ASSERT_EQ(verdicts[i], oracle->offer(clicks[i].click_id, clicks[i].t_us))
        << "diverged at click " << i;
  }
}

TEST(DaemonDurability, PoolSinkDrainRestartRestoreMatchesOracle) {
  server::DetectorConfig cfg;
  cfg.window = WindowSpec::sliding_time(2'000'000, 10'000);  // → TBF per ad
  cfg.memory_bits = std::uint64_t{1} << 16;
  const std::string path = ::testing::TempDir() + "/pool_drain.snap";

  // Three ads, interleaved round-robin so both halves touch every ad.
  std::vector<server::wire::ClickRecord> clicks;
  {
    const auto a = make_clicks(1, 4000, 42);
    const auto b = make_clicks(2, 4000, 43);
    const auto c = make_clicks(3, 4000, 44);
    for (std::size_t i = 0; i < 4000; ++i) {
      clicks.push_back(a[i]);
      clicks.push_back(b[i]);
      clicks.push_back(c[i]);
    }
  }
  const std::size_t half = clicks.size() / 2;

  const auto make_pool = [&cfg] {
    return adnet::DetectorPool(
        [cfg](std::uint32_t) { return server::build_detector(cfg); });
  };
  std::vector<bool> verdicts;
  {
    adnet::DetectorPool pool = make_pool();
    server::PoolSink sink(pool);
    serve_phase(sink, std::span(clicks).first(half), path, verdicts);
  }
  {
    adnet::DetectorPool pool = make_pool();
    server::PoolSink sink(pool);
    server::IngestServer::restore_sink_snapshot(sink, path);
    serve_phase(sink, std::span(clicks).subspan(half), "", verdicts);
  }
  ASSERT_EQ(verdicts.size(), clicks.size());

  // Per-ad oracle: each ad's subsequence replayed through its own detector,
  // exactly what the pool does internally.
  adnet::DetectorPool oracle = make_pool();
  for (std::size_t i = 0; i < clicks.size(); ++i) {
    ASSERT_EQ(verdicts[i],
              oracle.offer(clicks[i].ad_id, clicks[i].click_id,
                           clicks[i].t_us))
        << "diverged at click " << i;
  }
}

// A multi-loop daemon must drain to the SAME snapshot a single-loop daemon
// writes for the same click sequence: the cross-loop quiesce flushes every
// loop before the one snapshot is taken, so loop count is invisible to
// durability. Clients run sequentially (one at a time) so both runs feed
// each ad's detector the identical click order regardless of which loop
// accepts which connection.
TEST(DaemonDurability, MultiLoopDrainSnapshotBitIdenticalToSingleLoop) {
  server::DetectorConfig cfg;
  cfg.window = WindowSpec::jumping_count(4096, 8);
  cfg.memory_bits = std::uint64_t{1} << 18;
  constexpr std::size_t kAds = 3;
  constexpr std::size_t kPerAd = 4'000;
  std::vector<std::vector<server::wire::ClickRecord>> streams(kAds);
  for (std::size_t a = 0; a < kAds; ++a) {
    streams[a] = make_clicks(static_cast<std::uint32_t>(a + 1), kPerAd,
                             80 + a);
  }
  const std::size_t half = kPerAd / 2;

  const auto make_pool = [&cfg] {
    return adnet::DetectorPool(
        [cfg](std::uint32_t) { return server::build_detector(cfg); });
  };
  // Serve each ad's sub-stream on its own SEQUENTIAL connection.
  const auto serve_streams = [&](server::ClickSink& sink, std::size_t loops,
                                 bool first_half, const std::string& snap,
                                 std::vector<std::vector<bool>>& out) {
    server::IngestServer::Options opts;
    opts.snapshot_path = snap;
    opts.loops = loops;
    server::IngestServer srv(sink, opts);
    const std::uint16_t port = srv.listen("127.0.0.1", 0);
    std::thread loop([&] { srv.run(); });
    for (std::size_t a = 0; a < kAds; ++a) {
      server::BlockingClient client;
      client.connect("127.0.0.1", port);
      client.handshake();
      const std::span<const server::wire::ClickRecord> part =
          first_half ? std::span(streams[a]).first(half)
                     : std::span(streams[a]).subspan(half);
      send_and_collect(client, part, out[a]);
    }
    srv.stop();
    loop.join();
    srv.drain();
  };
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream raw;
    raw << in.rdbuf();
    return raw.str();
  };

  const std::string snap1 = ::testing::TempDir() + "/loops1.snap";
  const std::string snap2 = ::testing::TempDir() + "/loops2.snap";
  std::vector<std::vector<bool>> got1(kAds), got2(kAds);
  {
    adnet::DetectorPool pool = make_pool();
    server::PoolSink sink(pool);
    serve_streams(sink, 1, /*first_half=*/true, snap1, got1);
  }
  {
    adnet::DetectorPool pool = make_pool();
    server::PoolSink sink(pool);
    serve_streams(sink, 2, /*first_half=*/true, snap2, got2);
  }
  for (std::size_t a = 0; a < kAds; ++a) {
    ASSERT_EQ(got1[a], got2[a]) << "phase-1 verdicts diverge for ad " << a;
  }
  const std::string bytes1 = slurp(snap1);
  const std::string bytes2 = slurp(snap2);
  ASSERT_FALSE(bytes1.empty());
  ASSERT_EQ(bytes1, bytes2)
      << "multi-loop drain produced a different snapshot";

  // Restore the multi-loop snapshot into a fresh multi-loop daemon for the
  // second half; concatenated verdicts must equal a per-ad oracle that
  // never restarted.
  {
    adnet::DetectorPool pool = make_pool();
    server::PoolSink sink(pool);
    server::IngestServer::restore_sink_snapshot(sink, snap2);
    serve_streams(sink, 2, /*first_half=*/false, "", got2);
  }
  for (std::size_t a = 0; a < kAds; ++a) {
    ASSERT_EQ(got2[a].size(), kPerAd);
    auto oracle = server::build_detector(cfg);
    for (std::size_t i = 0; i < kPerAd; ++i) {
      ASSERT_EQ(got2[a][i],
                oracle->offer(streams[a][i].click_id, streams[a][i].t_us))
          << "ad " << a << " diverged at click " << i;
    }
  }
}

// --- snapshot FILE envelope: atomicity + mutation fuzz --------------------

TEST(SnapshotFile, WriteIsAtomicAndTmpFileIsCleanedUp) {
  core::GroupBloomFilter::Options o;
  o.bits_per_subfilter = 1 << 10;
  o.hash_count = 3;
  o.seed = 27;
  core::GroupBloomFilter gbf(WindowSpec::jumping_count(64, 4), o);
  gbf.offer(5);
  server::DetectorSink sink(gbf);
  const std::string path = ::testing::TempDir() + "/atomic.snap";

  // Pre-existing snapshot survives a successful overwrite (rename, not
  // truncate-in-place) and the temp file never outlives the call.
  server::IngestServer::save_sink_snapshot(sink, path);
  gbf.offer(6);
  server::IngestServer::save_sink_snapshot(sink, path);
  EXPECT_NE(std::ifstream(path).peek(), std::ifstream::traits_type::eof());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  // An unwritable target throws and leaves no temp file behind.
  const std::string bad = ::testing::TempDir() + "/no_such_dir/x.snap";
  EXPECT_THROW(server::IngestServer::save_sink_snapshot(sink, bad),
               std::runtime_error);

  core::GroupBloomFilter fresh(WindowSpec::jumping_count(64, 4), o);
  server::DetectorSink fresh_sink(fresh);
  server::IngestServer::restore_sink_snapshot(fresh_sink, path);
  EXPECT_TRUE(fresh.offer(5));
  EXPECT_TRUE(fresh.offer(6));
}

TEST(SnapshotFileFuzz, EveryTruncationAndByteFlipRejected) {
  core::GroupBloomFilter::Options o;
  o.bits_per_subfilter = 1 << 10;
  o.hash_count = 3;
  o.seed = 28;
  core::GroupBloomFilter gbf(WindowSpec::jumping_count(64, 4), o);
  for (ClickId id = 0; id < 40; ++id) gbf.offer(id % 16);
  server::DetectorSink sink(gbf);
  const std::string path = ::testing::TempDir() + "/fuzz.snap";
  server::IngestServer::save_sink_snapshot(sink, path);

  std::ifstream in(path, std::ios::binary);
  std::stringstream raw;
  raw << in.rdbuf();
  const std::string bytes = raw.str();
  ASSERT_GT(bytes.size(), 32u);

  core::GroupBloomFilter target(WindowSpec::jumping_count(64, 4), o);
  server::DetectorSink target_sink(target);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream s(bytes.substr(0, len));
    EXPECT_THROW(server::IngestServer::restore_sink_snapshot(target_sink, s),
                 std::exception)
        << "length " << len;
  }
  for (const std::uint8_t delta : {0x01, 0x80, 0xff}) {
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ delta);
      std::stringstream s(mutated);
      EXPECT_THROW(
          server::IngestServer::restore_sink_snapshot(target_sink, s),
          std::exception)
          << "byte " << pos << " ^ " << int{delta};
    }
  }
  {  // trailing garbage after a VALID envelope is also refused
    std::stringstream s(bytes + "x");
    EXPECT_THROW(server::IngestServer::restore_sink_snapshot(target_sink, s),
                 std::runtime_error);
  }
  std::stringstream intact(bytes);
  EXPECT_NO_THROW(
      server::IngestServer::restore_sink_snapshot(target_sink, intact));
}

// --- 6. the ppcd binary ---------------------------------------------------

std::string ppcd_bin() { return PPCD_BIN; }

struct RunResult {
  int exit_code;
  std::string output;
};

RunResult run_cmd(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    output += buf.data();
  }
  const int status = pclose(pipe);
  return {WEXITSTATUS(status), output};
}

/// Starts ppcd in the background, waits until it reports readiness
/// ("listening on" — printed after any --restore), then delivers SIGTERM
/// and returns the full captured output. Readiness-driven rather than a
/// fixed sleep: sanitizer builds can take seconds just to reach main.
RunResult run_ppcd_until_listening_then_term(const std::string& flags,
                                             const std::string& log) {
  return run_cmd(ppcd_bin() + flags + " > " + log + " 2>&1 & pid=$!;" +
                 " for i in $(seq 1 400); do" +
                 "   kill -0 $pid 2>/dev/null || break;" +
                 "   grep -q 'listening on' " + log + " 2>/dev/null && break;" +
                 "   sleep 0.05;" +
                 " done;" +
                 " kill -TERM $pid 2>/dev/null; wait $pid; cat " + log);
}

/// Writes a snapshot file exactly as a `ppcd --sink=sharded` daemon with
/// these flags would on drain.
std::string write_sharded_snapshot(const server::DetectorConfig& cfg,
                                   const std::string& name) {
  auto detector = server::build_detector(cfg);
  detector->offer(1);
  server::DetectorSink sink(*detector);
  const std::string path = ::testing::TempDir() + "/" + name;
  server::IngestServer::save_sink_snapshot(sink, path);
  return path;
}

server::DetectorConfig cli_cfg() {
  server::DetectorConfig cfg;
  cfg.window = server::parse_window_spec("jumping:512:4");
  cfg.memory_bits = std::uint64_t{1} << 23;  // --memory-mib=1
  cfg.shards = 2;
  return cfg;
}

const char* kCliFlags =
    " --listen=127.0.0.1:0 --sink=sharded --window=jumping:512:4"
    " --memory-mib=1 --shards=2";

// Failure-mode runs are wrapped in `timeout`: if a regression let the
// restore succeed, ppcd would serve forever and hang the suite instead of
// failing it.
TEST(PpcdCli, RestoreMissingFileFails) {
  const auto r = run_cmd("timeout 10 " + ppcd_bin() + kCliFlags +
                         " --restore=" + ::testing::TempDir() +
                         "/does_not_exist.snap");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST(PpcdCli, UnknownFlagsFailNamingTheFlag) {
  // A retired flag and a misspelling must both be refused, not ignored in
  // favour of a default.
  for (const std::string bad : {"engine=on", "shard=4"}) {
    const auto r = run_cmd("timeout 10 " + ppcd_bin() + kCliFlags + " --" +
                           bad);
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.output.find("unknown flag --" + bad.substr(0, bad.find('='))),
              std::string::npos)
        << r.output;
  }
}

TEST(PpcdCli, TieredOnlyFlagsNeedTieredSink) {
  // The tiered-pool knobs mean nothing to the other sinks; accepting them
  // there would silently ignore them, malformed or not.
  for (const std::string bad :
       {"hot-fpr=1e-4", "tail-window=1024", "tail-fpr=0.5abc", "epoch=64",
        "promote-share=0.1", "demote-share=0.01"}) {
    for (const char* sink : {"sharded", "pool"}) {
      const auto r = run_cmd("timeout 10 " + ppcd_bin() +
                             " --listen=127.0.0.1:0 --sink=" + sink + " --" +
                             bad);
      EXPECT_EQ(r.exit_code, 2) << bad << " with --sink=" << sink;
      EXPECT_NE(r.output.find("--" + bad.substr(0, bad.find('=')) +
                              " requires --sink=tiered"),
                std::string::npos)
          << r.output;
    }
  }
}

TEST(PpcdCli, MalformedPortIsRefused) {
  // A port above 65535 must not wrap into another port (70000 served on
  // 4464), and a partly numeric one must not truncate.
  for (const std::string bad :
       {"listen=127.0.0.1:70000", "listen=127.0.0.1:4x", "listen=127.0.0.1",
        "follow=127.0.0.1:65536", "replicate-listen=127.0.0.1:-1"}) {
    const std::string key = bad.substr(0, bad.find('='));
    const std::string listen =
        key == "listen" ? "" : " --listen=127.0.0.1:0";
    const auto r = run_cmd("timeout 10 " + ppcd_bin() + " --sink=sharded" +
                           listen + " --" + bad);
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.output.find("invalid value for --" + key), std::string::npos)
        << r.output;
  }
}

TEST(PpcdCli, RestoreMismatchedWindowFailsNamingWindow) {
  const std::string path = write_sharded_snapshot(cli_cfg(), "cli_win.snap");
  const auto r = run_cmd("timeout 10 " + ppcd_bin() +
                         " --listen=127.0.0.1:0 --sink=sharded"
                         " --window=jumping:1024:4 --memory-mib=1 --shards=2"
                         " --restore=" + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("window"), std::string::npos) << r.output;
}

TEST(PpcdCli, RestoreMismatchedShardCountFailsNamingShards) {
  const std::string path = write_sharded_snapshot(cli_cfg(), "cli_shard.snap");
  const auto r = run_cmd("timeout 10 " + ppcd_bin() +
                         " --listen=127.0.0.1:0 --sink=sharded"
                         " --window=jumping:512:4 --memory-mib=1 --shards=4"
                         " --restore=" + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("shards"), std::string::npos) << r.output;
}

TEST(PpcdCli, RestoreShardedSnapshotIntoPoolSinkFails) {
  const std::string path = write_sharded_snapshot(cli_cfg(), "cli_kind.snap");
  const auto r = run_cmd("timeout 10 " + ppcd_bin() +
                         " --listen=127.0.0.1:0 --sink=pool"
                         " --window=jumping:512:4 --memory-mib=1"
                         " --restore=" + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("DetectorPool"), std::string::npos) << r.output;
}

TEST(PpcdCli, SigtermDrainWritesRestorableSnapshot) {
  const std::string snap = ::testing::TempDir() + "/cli_drain.snap";
  // SIGTERM once the daemon is up; ppcd drains gracefully, writing the
  // snapshot on the way out.
  const auto r = run_ppcd_until_listening_then_term(
      std::string(kCliFlags) + " --snapshot=" + snap,
      ::testing::TempDir() + "/cli_drain.log");
  EXPECT_NE(r.output.find("ppcd: drained"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("snapshot written to"), std::string::npos)
      << r.output;

  // The file restores into a matching config...
  auto detector = server::build_detector(cli_cfg());
  server::DetectorSink sink(*detector);
  EXPECT_NO_THROW(server::IngestServer::restore_sink_snapshot(sink, snap));

  // ...and a second daemon accepts it via --restore.
  const auto r2 = run_ppcd_until_listening_then_term(
      std::string(kCliFlags) + " --restore=" + snap,
      ::testing::TempDir() + "/cli_restore.log");
  EXPECT_NE(r2.output.find("restored window state"), std::string::npos)
      << r2.output;
}

// A --snapshot configuration over a backend with no snapshot format must be
// refused AT CONSTRUCTION, naming the backend — not discovered mid-drain
// after hours of ingest when save() finally throws.
TEST(Durability, SnapshotPathOverSnapshotlessBackendFailsUpFront) {
  baseline::LandmarkBloomDetector::Options o;
  o.bits = 1 << 12;
  o.hash_count = 4;
  baseline::LandmarkBloomDetector detector(core::WindowSpec::landmark_count(64),
                                           o);
  ASSERT_FALSE(detector.supports_snapshots());
  server::DetectorSink sink(detector);
  EXPECT_FALSE(sink.supports_snapshots());

  server::IngestServer::Options opts;
  opts.snapshot_path = "/tmp/ppc_never_written.snap";
  try {
    server::IngestServer srv(sink, opts);
    FAIL() << "IngestServer accepted --snapshot over a snapshot-less backend";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("does not support snapshots"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(sink.describe()), std::string::npos)
        << "error must name the backend: " << e.what();
  }

  // Without a snapshot path the same sink serves fine.
  server::IngestServer::Options plain;
  EXPECT_NO_THROW(server::IngestServer srv2(sink, plain));
}

}  // namespace
}  // namespace ppc
