// Sharded ingestion throughput: the trajectory bench for the parallel
// batched hot path.
//
// Sweeps {1,2,3,4} threads × {1,4,16,64} shards × {GBF, TBF}
// over one Zipf click stream (heavy-tailed duplicates, like real ad
// traffic) and measures two ingestion arms per configuration:
//   * offer   — the legacy path: one virtual call + one mutex acquisition
//     per click, threads = 1 (this is the "single-thread mutex-per-offer
//     baseline" every speedup is quoted against);
//   * batch   — ShardedDetector::offer_batch:
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
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace {

using namespace ppc;
using benchutil::Spread;
using benchutil::spread_of;

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
  // The timed overload, the one ppcd drives; count windows ignore times.
  const std::vector<std::uint64_t> times(kBatch, 0);
  std::vector<char> verdicts(kBatch);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t flagged = 0;
  for (std::size_t off = 0; off < ids.size(); off += kBatch) {
    const std::size_t n = std::min(kBatch, ids.size() - off);
    d.offer_batch(
        std::span<const core::ClickId>(ids.data() + off, n),
        std::span<const std::uint64_t>(times.data(), n),
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

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  // Default stream: 2^22 clicks scaled down (scale=4 → 2^18); --paper runs
  // the full stream.
  const std::size_t stream_len =
      static_cast<std::size_t>(args.scaled(std::uint64_t{1} << 22));
  const auto ids = make_stream(stream_len);

  const Algo algos[] = {{"gbf", &gbf_factory}, {"tbf", &tbf_factory}};
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
              "tbf window=%llu, %d reps (hardware threads: %zu)\n\n",
              ids.size(), kBatch,
              static_cast<unsigned long long>(kGbfWindow),
              static_cast<unsigned long long>(kTbfWindow), kReps,
              runtime::ThreadPool::hardware_threads());
  // Medians; speedup is over the row's mutex-per-offer baseline.
  std::printf("%6s %7s %8s %8s %12s %9s\n", "algo", "shards", "mode",
              "threads", "Mclicks/s", "speedup");
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
      const Spread offer = spread_of(offer_cps, 1e-6);
      std::printf("%6s %7zu %8s %8d %12.3f %9.2f\n", algo.name, shards,
                  "offer", 1, offer.median, 1.0);
      json.add(algo.name, {{"shards", static_cast<double>(shards)},
                           {"mode_batch", 0},
                           {"threads", 1},
                           {"clicks", static_cast<double>(ids.size())},
                           {"mclicks_per_s", offer.median},
                           {"mclicks_per_s_q1", offer.q1},
                           {"mclicks_per_s_q3", offer.q3},
                           {"speedup_vs_mutex_offer", 1.0}});

      for (const std::size_t threads : thread_counts) {
        core::ShardedDetector d(shards, algo.factory(shards),
                                {.threads = threads});
        run_batch(d, ids);  // warm up filters + caches
        std::vector<double> batch_cps;
        for (int rep = 0; rep < kReps; ++rep) {
          d.reset();
          batch_cps.push_back(run_batch(d, ids));
        }
        const Spread batch = spread_of(batch_cps, 1e-6);
        const double speedup = batch.median / offer.median;
        std::printf("%6s %7zu %8s %8zu %12.3f %9.2f\n", algo.name, shards,
                    "batch", threads, batch.median, speedup);
        json.add(algo.name, {{"shards", static_cast<double>(shards)},
                             {"mode_batch", 1},
                             {"threads", static_cast<double>(threads)},
                             {"clicks", static_cast<double>(ids.size())},
                             {"mclicks_per_s", batch.median},
                             {"mclicks_per_s_q1", batch.q1},
                             {"mclicks_per_s_q3", batch.q3},
                             {"speedup_vs_mutex_offer", speedup}});
      }
    }
  }
  json.write();
  return 0;
}
