// Snapshot cost: what a checkpoint actually costs the serving path.
//
// Sweeps filter memory over {2^20, 2^23, 2^26} bits (scaled by --scale) for
// every snapshot-capable layer — GBF, TBF, ShardedDetector, and a 64-ad
// DetectorPool — and measures:
//   * save_us / restore_us — in-memory serialize/deserialize wall time,
//     after warming the filter to a realistic fill;
//   * bytes — the serialized size, CRC envelope included;
//   * file_us — for the sharded arm, IngestServer::save_sink_snapshot's
//     full atomic file protocol (temp + write + fsync + rename), i.e. what
//     a SIGTERM drain adds before the process may exit.
// Every arm of one size runs kReps passes, interleaved rep-by-rep so
// shared-host clock drift hits all arms equally; the JSON records the
// median and the quartiles of each time. The checked-in
// BENCH_snapshot_cost.json is this bench's output; a PR that bloats the
// format or slows the quiesce shows up as a diff there.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "bench_util.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/timing_bloom_filter.hpp"
#include "runtime/thread_pool.hpp"
#include "server/ingest_server.hpp"
#include "stream/rng.hpp"

namespace {

using namespace ppc;
using benchutil::Spread;

constexpr std::uint32_t kQ = 8;
constexpr std::size_t kHashes = 7;
constexpr std::size_t kShards = 8;
constexpr std::size_t kOwners = 4;
constexpr std::size_t kPoolAds = 64;
constexpr int kReps = 5;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Warm a detector to a realistic fill: one window's worth of arrivals.
void warm(core::DuplicateDetector& d, std::uint64_t arrivals,
          std::uint64_t seed) {
  stream::Rng rng(seed);
  for (std::uint64_t i = 0; i < arrivals; ++i) {
    d.offer(rng.next(), i);
  }
}

/// One arm: a warmed live instance, timed once per rep. `restore_us`
/// stays empty for arms that only write (the file protocol).
struct Arm {
  Arm(std::string s, std::function<void(Arm&)> r)
      : series(std::move(s)), rep(std::move(r)) {}
  std::string series;
  std::function<void(Arm&)> rep;
  double bytes = 0;
  std::vector<double> save_us, restore_us;
};

/// In-memory save of `live`, then restore into a fresh `make()` instance.
template <typename Live, typename MakeFn>
void save_restore(Arm& arm, const Live& live, const MakeFn& make) {
  std::ostringstream out(std::ios::binary);
  auto t0 = std::chrono::steady_clock::now();
  live.save(out);
  arm.save_us.push_back(seconds_since(t0) * 1e6);
  const std::string bytes = std::move(out).str();
  arm.bytes = static_cast<double>(bytes.size());

  auto fresh = make();
  std::istringstream in(bytes, std::ios::binary);
  t0 = std::chrono::steady_clock::now();
  fresh->restore(in);
  arm.restore_us.push_back(seconds_since(t0) * 1e6);
}

/// An arm over a detector built by `make` and warmed with `arrivals`.
template <typename MakeFn>
Arm detector_arm(std::string series, MakeFn make, std::uint64_t arrivals) {
  std::shared_ptr<core::DuplicateDetector> live = make();
  warm(*live, arrivals, 7);
  return Arm(std::move(series),
             [live, make](Arm& arm) { save_restore(arm, *live, make); });
}

core::ShardedDetector::Factory shard_factory(std::uint64_t total_bits) {
  const std::uint64_t window = total_bits / 10;  // design-point m ≈ 10n
  return [total_bits, window](std::size_t) {
    core::GroupBloomFilter::Options opts;
    opts.bits_per_subfilter = total_bits / kShards / kQ;
    opts.hash_count = kHashes;
    return std::make_unique<core::GroupBloomFilter>(
        core::WindowSpec::jumping_count(
            std::max<std::uint64_t>(kQ, window / kShards), kQ),
        opts);
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  benchutil::JsonSeriesWriter json("snapshot_cost", args.json);
  json.set_meta("hw_threads",
                static_cast<double>(runtime::ThreadPool::hardware_threads()));
  json.set_meta("cpu_model", benchutil::cpu_model_string());
  json.set_meta("reps", static_cast<double>(kReps));

  std::printf("snapshot cost (save/restore wall time vs filter memory, "
              "median of %d interleaved reps; file = atomic write + fsync "
              "of the sharded arm)\n\n",
              kReps);
  std::printf("%10s %12s %12s %12s %12s %12s\n", "series", "mem_bits",
              "bytes", "save_us", "restore_us", "MB/s(save)");
  benchutil::print_rule(6, 13);

  const std::string file_path = "/tmp/ppc_snapshot_cost.snap";
  for (const int shift : {20, 23, 26}) {
    const std::uint64_t bits = args.scaled(std::uint64_t{1} << shift);
    const std::uint64_t window = bits / 10;

    std::vector<Arm> arms;
    arms.push_back(detector_arm(
        "gbf",
        [bits, window] {
          core::GroupBloomFilter::Options opts;
          opts.bits_per_subfilter = bits / kQ;
          opts.hash_count = kHashes;
          return std::make_unique<core::GroupBloomFilter>(
              core::WindowSpec::jumping_count(
                  std::max<std::uint64_t>(kQ, window), kQ),
              opts);
        },
        window));
    arms.push_back(detector_arm(
        "tbf",
        [bits, window] {
          core::TimingBloomFilter::Options opts;
          // Equal PAYLOAD memory: entries ~ bits / entry width.
          opts.entries = std::max<std::uint64_t>(64, bits / 16);
          opts.hash_count = kHashes;
          return std::make_unique<core::TimingBloomFilter>(
              core::WindowSpec::sliding_count(
                  std::max<std::uint64_t>(64, window)),
              opts);
        },
        window));
    arms.push_back(detector_arm(
        "sharded",
        [bits] {
          core::ShardedDetector::Options opts;
          opts.threads = kOwners;
          return std::make_unique<core::ShardedDetector>(
              kShards, shard_factory(bits), opts);
        },
        window));

    // Drain-time file protocol on the sharded arm (fsync dominates
    // at small sizes — that is the point of recording it).
    {
      auto d = std::make_shared<core::ShardedDetector>(kShards,
                                                       shard_factory(bits));
      warm(*d, window, 7);
      auto sink = std::make_shared<server::DetectorSink>(*d);
      arms.emplace_back("file", [d, sink, file_path](Arm& arm) {
        const auto t0 = std::chrono::steady_clock::now();
        server::IngestServer::save_sink_snapshot(*sink, file_path);
        arm.save_us.push_back(seconds_since(t0) * 1e6);
      });
    }

    // Pool of small per-ad filters: many nested sections, per-ad overhead.
    {
      const adnet::DetectorPool::Factory factory = [=](std::uint32_t) {
        core::GroupBloomFilter::Options opts;
        opts.bits_per_subfilter =
            std::max<std::uint64_t>(64, bits / kPoolAds / kQ);
        opts.hash_count = kHashes;
        return std::make_unique<core::GroupBloomFilter>(
            core::WindowSpec::jumping_count(
                std::max<std::uint64_t>(kQ, window / kPoolAds), kQ),
            opts);
      };
      auto live = std::make_shared<adnet::DetectorPool>(factory);
      stream::Rng rng(7);
      for (std::uint64_t i = 0; i < window; ++i) {
        live->offer(static_cast<std::uint32_t>(i % kPoolAds), rng.next(), i);
      }
      const auto make = [factory] {
        return std::make_unique<adnet::DetectorPool>(factory);
      };
      arms.emplace_back("pool64", [live, make](Arm& arm) {
        save_restore(arm, *live, make);
      });
    }

    for (int rep = 0; rep < kReps; ++rep) {
      for (Arm& arm : arms) arm.rep(arm);
    }

    for (const Arm& arm : arms) {
      const Spread save = benchutil::spread_of(arm.save_us);
      if (arm.restore_us.empty()) {
        std::printf("%10s %12llu %12s %12.1f %12s %12s\n", arm.series.c_str(),
                    static_cast<unsigned long long>(bits), "-", save.median,
                    "-", "-");
        json.add(arm.series, {{"mem_bits", static_cast<double>(bits)},
                              {"save_us", save.median},
                              {"save_us_q1", save.q1},
                              {"save_us_q3", save.q3}});
        continue;
      }
      const Spread restore = benchutil::spread_of(arm.restore_us);
      std::printf("%10s %12llu %12.0f %12.1f %12.1f %12.1f\n",
                  arm.series.c_str(), static_cast<unsigned long long>(bits),
                  arm.bytes, save.median, restore.median,
                  arm.bytes / save.median);  // bytes/us == MB/s
      json.add(arm.series, {{"mem_bits", static_cast<double>(bits)},
                            {"bytes", arm.bytes},
                            {"save_us", save.median},
                            {"save_us_q1", save.q1},
                            {"save_us_q3", save.q3},
                            {"restore_us", restore.median},
                            {"restore_us_q1", restore.q1},
                            {"restore_us_q3", restore.q3}});
    }
  }
  std::remove(file_path.c_str());
  json.write();
  return 0;
}
