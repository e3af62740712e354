// Sharded ingestion throughput: the trajectory bench for the parallel
// batched hot path.
//
// Sweeps {1,2,3,4} threads × {1,4,16,64} shards × {GBF, blocked-GBF, TBF}
// over one Zipf click stream (heavy-tailed duplicates, like real ad
// traffic) and measures three ingestion arms per configuration:
//   * offer   — the legacy path: one virtual call + one mutex acquisition
//     per click, threads = 1 (this is the "single-thread mutex-per-offer
//     baseline" every speedup is quoted against);
//   * batch-s — offer_batch with the SIMD hash kernels pinned to their
//     scalar arm;
//   * batch   — ShardedDetector::offer_batch, default dispatch:
//     micro-batches bucketized by shard, one lock per shard per batch,
//     pipelined inner offer_batch, optional fan-out across
//     ShardedDetector::Options::threads.
// Every arm runs kReps passes, interleaved rep-by-rep so shared-host clock
// drift hits all arms equally; the JSON records the median and the
// quartiles of each arm.
//
// Filters are sized cache-hostile on purpose (the production regime: a
// window of millions of clicks does not fit in L2), which is exactly where
// the batch path's prefetch pipelining pays. --json=<path> records the
// series machine-readably; the checked-in BENCH_sharded_throughput.json is
// this bench's output and the perf baseline future PRs diff against.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/timing_bloom_filter.hpp"
#include "hashing/simd_fmix.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace {

using namespace ppc;

constexpr std::size_t kBatch = 16384;  // micro-batch fed to offer_batch
// Global windows, split per shard. The GBF window is production-sized: at
// 64 shards each shard still holds ~hundreds of KiB, so the total working
// set stays DRAM-resident at every shard count and the baseline never
// gets an accidental all-in-cache advantage the real system would not see.
constexpr std::uint64_t kGbfWindow = 1 << 22;
constexpr std::uint64_t kTbfWindow = 1 << 20;  // TBF entries are ~25x wider
constexpr std::uint32_t kGbfQ = 8;
constexpr std::size_t kHashes = 7;

core::ShardedDetector::Factory gbf_factory(std::size_t shards) {
  const std::uint64_t shard_window = kGbfWindow / shards;
  return [shard_window](std::size_t) {
    core::GroupBloomFilter::Options opts;
    // Design-point fill (m ≈ 10·n for k=7), as in thm1_gbf_throughput.
    opts.bits_per_subfilter = 10 * (shard_window / kGbfQ);
    opts.hash_count = kHashes;
    return std::make_unique<core::GroupBloomFilter>(
        core::WindowSpec::jumping_count(shard_window, kGbfQ), opts);
  };
}

/// Same geometry with cache-line-blocked probing: the alternative ingestion
/// design point — k probes cost one cache line instead of k, trading ≈0.3pp
/// of FPR (see hashing::IndexStrategy::kCacheLineBlocked). Its *baseline*
/// speeds up too (fewer serialized misses per offer), so the batch-vs-offer
/// ratio shrinks even as absolute throughput rises.
core::ShardedDetector::Factory gbf_blocked_factory(std::size_t shards) {
  const std::uint64_t shard_window = kGbfWindow / shards;
  return [shard_window](std::size_t) {
    core::GroupBloomFilter::Options opts;
    opts.bits_per_subfilter = 10 * (shard_window / kGbfQ);
    opts.hash_count = kHashes;
    opts.strategy = hashing::IndexStrategy::kCacheLineBlocked;
    return std::make_unique<core::GroupBloomFilter>(
        core::WindowSpec::jumping_count(shard_window, kGbfQ), opts);
  };
}

core::ShardedDetector::Factory tbf_factory(std::size_t shards) {
  const std::uint64_t shard_window = kTbfWindow / shards;
  return [shard_window](std::size_t) {
    core::TimingBloomFilter::Options opts;
    opts.entries = shard_window * 16;  // m/N = 16, as in thm2
    opts.hash_count = kHashes;
    return std::make_unique<core::TimingBloomFilter>(
        core::WindowSpec::sliding_count(shard_window), opts);
  };
}

/// Zipf-duplicate click stream: ranks over a universe ~4 GBF-windows wide
/// so a solid fraction of arrivals are within-window repeats. ONE stream
/// serves every configuration — speedups are same-stream by construction.
std::vector<core::ClickId> make_stream(std::size_t count) {
  stream::Rng rng(2026);
  const stream::ZipfSampler zipf(kGbfWindow * 4, 1.05);
  std::vector<core::ClickId> ids(count);
  for (auto& id : ids) {
    id = hashing::fmix64(zipf.sample(rng) + 0x9e3779b97f4a7c15ull);
  }
  return ids;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One timed ingestion pass; returns clicks/second.
double run_offer(core::ShardedDetector& d,
                 const std::vector<core::ClickId>& ids) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t flagged = 0;
  for (const core::ClickId id : ids) flagged += d.offer(id) ? 1 : 0;
  const double secs = seconds_since(t0);
  if (flagged == ids.size() + 1) std::puts("");  // defeat dead-code elision
  return static_cast<double>(ids.size()) / secs;
}

double run_batch(core::ShardedDetector& d,
                 const std::vector<core::ClickId>& ids) {
  std::vector<char> verdicts(kBatch);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t flagged = 0;
  for (std::size_t off = 0; off < ids.size(); off += kBatch) {
    const std::size_t n = std::min(kBatch, ids.size() - off);
    d.offer_batch(
        std::span<const core::ClickId>(ids.data() + off, n),
        std::span<bool>(reinterpret_cast<bool*>(verdicts.data()), n));
    flagged += verdicts[0] != 0 ? 1 : 0;
  }
  const double secs = seconds_since(t0);
  if (flagged == ids.size() + 1) std::puts("");
  return static_cast<double>(ids.size()) / secs;
}

struct Algo {
  const char* name;
  core::ShardedDetector::Factory (*factory)(std::size_t shards);
};

/// Median and quartiles of kReps samples (Mclicks/s).
struct Spread {
  double q1, median, q3;
};

Spread spread_of(std::vector<double> cps) {
  std::sort(cps.begin(), cps.end());
  const auto at = [&](double q) {
    return cps[static_cast<std::size_t>(q * (cps.size() - 1) + 0.5)] / 1e6;
  };
  return {at(0.25), at(0.5), at(0.75)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  // Default stream: 2^22 clicks scaled down (scale=4 → 2^18); --paper runs
  // the full stream.
  const std::size_t stream_len =
      static_cast<std::size_t>(args.scaled(std::uint64_t{1} << 22));
  const auto ids = make_stream(stream_len);

  const Algo algos[] = {{"gbf", &gbf_factory},
                        {"gbfblk", &gbf_blocked_factory},
                        {"tbf", &tbf_factory}};
  const std::size_t shard_counts[] = {1, 4, 16, 64};
  std::vector<std::size_t> thread_counts = {1, 2, 3, 4};
  if (args.threads > 0) {
    thread_counts = {static_cast<std::size_t>(args.threads)};
  }
  // Five passes per arm: enough for a median and quartiles that hold
  // still on a shared host.
  constexpr int kReps = 5;

  benchutil::JsonSeriesWriter json("sharded_throughput", args.json);
  // Host metadata rides in the JSON header: throughput and fan-out speedup
  // numbers are only comparable against a baseline recorded on the same
  // class of machine.
  json.set_meta("hw_threads",
                static_cast<double>(runtime::ThreadPool::hardware_threads()));
  json.set_meta("cpu_model", benchutil::cpu_model_string());
  json.set_meta("reps", static_cast<double>(kReps));
  std::printf("sharded ingestion: %zu clicks, batch=%zu, gbf window=%llu, "
              "tbf window=%llu, %d reps (hardware threads: %zu, simd: %s, "
              "detected: %s)\n\n",
              ids.size(), kBatch,
              static_cast<unsigned long long>(kGbfWindow),
              static_cast<unsigned long long>(kTbfWindow), kReps,
              runtime::ThreadPool::hardware_threads(),
              hashing::simd::level_name(hashing::simd::active_level()),
              hashing::simd::level_name(hashing::simd::detected_level()));
  // Medians. The last column is the row's gain over its reference arm:
  // batch over batch-s (the vectorized hash stage's contribution alone).
  std::printf("%6s %7s %8s %8s %12s %9s %9s\n", "algo", "shards", "mode",
              "threads", "Mclicks/s", "speedup", "gain");
  benchutil::print_rule(6, 9);

  for (const Algo& algo : algos) {
    for (const std::size_t shards : shard_counts) {
      // Baseline: mutex-per-offer on one thread. Each pass starts from a
      // reset filter, so every rep ingests the identical workload.
      std::vector<double> offer_cps;
      {
        core::ShardedDetector d(shards, algo.factory(shards));
        run_offer(d, ids);  // warm up filters + caches, then measure
        for (int rep = 0; rep < kReps; ++rep) {
          d.reset();
          offer_cps.push_back(run_offer(d, ids));
        }
      }
      const Spread offer = spread_of(offer_cps);
      std::printf("%6s %7zu %8s %8d %12.3f %9.2f %9s\n", algo.name, shards,
                  "offer", 1, offer.median, 1.0, "-");
      json.add(algo.name, {{"shards", static_cast<double>(shards)},
                           {"mode_batch", 0},
                           {"simd", 0},
                           {"threads", 1},
                           {"clicks", static_cast<double>(ids.size())},
                           {"mclicks_per_s", offer.median},
                           {"mclicks_per_s_q1", offer.q1},
                           {"mclicks_per_s_q3", offer.q3},
                           {"speedup_vs_mutex_offer", 1.0}});

      for (const std::size_t threads : thread_counts) {
        core::ShardedDetector d(shards, algo.factory(shards),
                                {.threads = threads});
        run_batch(d, ids);  // warm up filters + caches once for both arms

        std::vector<double> scalar_cps;
        std::vector<double> batch_cps;
        for (int rep = 0; rep < kReps; ++rep) {
          hashing::simd::set_level_override(hashing::simd::Level::kScalar);
          d.reset();
          scalar_cps.push_back(run_batch(d, ids));
          hashing::simd::clear_level_override();
          d.reset();
          batch_cps.push_back(run_batch(d, ids));
        }
        const Spread scalar = spread_of(scalar_cps);
        const Spread batch = spread_of(batch_cps);

        const double scalar_speedup = scalar.median / offer.median;
        const double speedup = batch.median / offer.median;
        const double simd_gain = batch.median / scalar.median;
        std::printf("%6s %7zu %8s %8zu %12.3f %9.2f %9s\n", algo.name,
                    shards, "batch-s", threads, scalar.median,
                    scalar_speedup, "1.00");
        std::printf("%6s %7zu %8s %8zu %12.3f %9.2f %9.2f\n", algo.name,
                    shards, "batch", threads, batch.median, speedup,
                    simd_gain);
        json.add(algo.name, {{"shards", static_cast<double>(shards)},
                             {"mode_batch", 1},
                             {"simd", 0},
                             {"threads", static_cast<double>(threads)},
                             {"clicks", static_cast<double>(ids.size())},
                             {"mclicks_per_s", scalar.median},
                             {"mclicks_per_s_q1", scalar.q1},
                             {"mclicks_per_s_q3", scalar.q3},
                             {"speedup_vs_mutex_offer", scalar_speedup}});
        json.add(algo.name, {{"shards", static_cast<double>(shards)},
                             {"mode_batch", 1},
                             {"simd", 1},
                             {"threads", static_cast<double>(threads)},
                             {"clicks", static_cast<double>(ids.size())},
                             {"mclicks_per_s", batch.median},
                             {"mclicks_per_s_q1", batch.q1},
                             {"mclicks_per_s_q3", batch.q3},
                             {"speedup_vs_mutex_offer", speedup},
                             {"simd_gain_vs_scalar_batch", simd_gain}});
      }
    }
  }
  json.write();
  return 0;
}
