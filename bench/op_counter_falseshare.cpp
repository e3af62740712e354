// False-sharing microbench for the per-shard OpCounter padding.
//
// ShardedDetector keeps one OpCounter per shard; with batch fan-out each
// lane bumps its shard's counter on every instrumented filter op while
// lanes draining neighbouring shards do the same. If two shards' counters
// share a cache line, every increment is a coherence miss. This bench
// measures that directly: two threads each hammer their own OpCounter in
// two layouts —
//   adjacent — the counters packed back to back (they share lines);
//   padded   — each counter alignas(64) on its own line, the layout
//              ShardedDetector::Shard actually uses.
// The interesting output is the ratio; on a single-hardware-thread host
// the threads serialize and the ratio collapses to ~1 (noted in the
// output — don't read a padding conclusion off such a run).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "core/op_counter.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using ppc::core::OpCounter;

constexpr std::uint64_t kIncrements = 20'000'000;

/// Two counters packed like a naive std::vector<OpCounter> would.
struct AdjacentPair {
  OpCounter a;
  OpCounter b;
};

/// Two counters padded like ShardedDetector::Shard pads its per-shard one.
struct PaddedPair {
  alignas(64) OpCounter a;
  alignas(64) OpCounter b;
};

/// The instrumented hot-loop body shape: a handful of field bumps per
/// element, like one GBF probe records.
void hammer(OpCounter& ops) {
  for (std::uint64_t i = 0; i < kIncrements; ++i) {
    ops.word_reads += 1;
    if ((i & 7) == 0) ops.word_writes += 1;
    ops.hash_evals += 1;
  }
}

/// Runs the two-thread hammer on a counter pair; returns ns per increment
/// pair (lower is better).
template <typename Pair>
double run(Pair& pair) {
  const auto t0 = std::chrono::steady_clock::now();
  std::thread other([&pair] { hammer(pair.b); });
  hammer(pair.a);
  other.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return secs * 1e9 / static_cast<double>(kIncrements);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = ppc::benchutil::Args::parse(argc, argv);
  const std::size_t hw = ppc::runtime::ThreadPool::hardware_threads();
  std::printf("op-counter false sharing: 2 threads x %llu increment "
              "rounds (hardware threads: %zu)\n",
              static_cast<unsigned long long>(kIncrements), hw);
  if (hw < 2) {
    std::printf("note: <2 hardware threads — the two hammer threads "
                "serialize, so the adjacent/padded ratio will read ~1.00 "
                "and says nothing about the padding.\n");
  }

  AdjacentPair adjacent;
  PaddedPair padded;
  // Warm-up pass, then best-of-3 on each layout, interleaved.
  run(adjacent);
  run(padded);
  double adj_ns = 1e300, pad_ns = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    adj_ns = std::min(adj_ns, run(adjacent));
    pad_ns = std::min(pad_ns, run(padded));
  }

  const double ratio = adj_ns / pad_ns;
  std::printf("%10s %14s\n", "layout", "ns/round");
  std::printf("%10s %14.2f\n", "adjacent", adj_ns);
  std::printf("%10s %14.2f\n", "padded", pad_ns);
  std::printf("adjacent/padded slowdown: %.2fx\n", ratio);

  ppc::benchutil::JsonSeriesWriter json("op_counter_falseshare", args.json);
  json.set_meta("hw_threads", static_cast<double>(hw));
  json.set_meta("cpu_model", ppc::benchutil::cpu_model_string());
  json.add("adjacent", {{"ns_per_round", adj_ns}});
  json.add("padded", {{"ns_per_round", pad_ns},
                      {"adjacent_over_padded", ratio}});
  json.write();
  return 0;
}
