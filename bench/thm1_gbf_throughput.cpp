// Theorem 1(3) — GBF running time: "O(⌈Q/D⌉·k + m·Q/N) word operations per
// element in the worst case", i.e. essentially independent of Q while the
// grouped layout keeps all sub-filters in one word lane.
//
// google-benchmark suite comparing, across Q:
//   * GBF (grouped layout, this paper)
//   * the naive Q+1-separate-Bloom-filters deployment (§3.1's strawman,
//     whose probe cost grows with Q)
//   * the Metwally counting-filter scheme (O(m) burst at each jump)
//   * the exact hash-table detector (memory-hungry baseline)
// Counters report instrumented memory operations per element alongside
// wall-clock time.
#include <benchmark/benchmark.h>

#include "gbench_json.hpp"

#include "baseline/exact_detectors.hpp"
#include "baseline/metwally_jumping_detector.hpp"
#include "baseline/naive_jumping_bloom.hpp"
#include "core/group_bloom_filter.hpp"

namespace {

using namespace ppc;

constexpr std::uint64_t kWindow = 1 << 16;
constexpr std::size_t kHashes = 7;

// Size each sub-filter at its design point (k ≈ ln2·m/n → m ≈ 10·n for
// k=7, i.e. ~50% fill): this is the regime the paper's cost model assumes.
// Oversizing m would inflate GBF's incremental-cleaning share and let the
// naive deployment's early-exit probes look artificially cheap.
std::uint64_t bits_per_filter(std::uint32_t q) {
  return 10 * (kWindow / q);
}

template <typename Detector>
void run_detector(benchmark::State& state, Detector& detector) {
  core::OpCounter ops;
  detector.set_op_counter(&ops);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.offer(id++));
  }
  state.SetItemsProcessed(state.iterations());
  if (ops.total() > 0) {
    state.counters["mem_ops/elem"] =
        static_cast<double>(ops.total()) / static_cast<double>(state.iterations());
  }
  state.counters["memory_MiB"] =
      static_cast<double>(detector.memory_bits()) / 8.0 / (1 << 20);
}

void BM_GbfOffer(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  core::GroupBloomFilter::Options opts;
  opts.bits_per_subfilter = bits_per_filter(q);
  opts.hash_count = kHashes;
  core::GroupBloomFilter gbf(core::WindowSpec::jumping_count(kWindow, q),
                             opts);
  run_detector(state, gbf);
}
BENCHMARK(BM_GbfOffer)->Arg(4)->Arg(8)->Arg(16)->Arg(31)->Arg(63);

void BM_NaiveJumpingOffer(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  baseline::NaiveJumpingBloomDetector::Options opts;
  opts.bits_per_subfilter = bits_per_filter(q);
  opts.hash_count = kHashes;
  baseline::NaiveJumpingBloomDetector naive(
      core::WindowSpec::jumping_count(kWindow, q), opts);
  run_detector(state, naive);
}
BENCHMARK(BM_NaiveJumpingOffer)->Arg(4)->Arg(8)->Arg(16)->Arg(31)->Arg(63);

void BM_MetwallyOffer(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  baseline::MetwallyJumpingDetector::Options opts;
  opts.cells = bits_per_filter(q);  // same cell count; 4-8x the bits
  opts.hash_count = kHashes;
  baseline::MetwallyJumpingDetector prev(
      core::WindowSpec::jumping_count(kWindow, q), opts);
  run_detector(state, prev);
}
BENCHMARK(BM_MetwallyOffer)->Arg(4)->Arg(8)->Arg(31);

/// Batched GBF at a cache-hostile size (prefetch across elements).
void BM_GbfOfferBatch(benchmark::State& state) {
  constexpr std::uint64_t kBigWindow = 1 << 20;
  core::GroupBloomFilter::Options opts;
  opts.bits_per_subfilter = 10 * (kBigWindow / 8);  // ~1.6 MiB x 9 slots
  opts.hash_count = kHashes;
  core::GroupBloomFilter gbf(core::WindowSpec::jumping_count(kBigWindow, 8),
                             opts);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> ids(batch);
  const std::vector<std::uint64_t> times(batch, 0);  // count window
  std::vector<char> verdicts(batch);
  std::uint64_t next = 0;
  for (auto _ : state) {
    for (auto& id : ids) id = next++;
    if (batch == 1) {
      verdicts[0] = gbf.offer(ids[0]);
    } else {
      gbf.offer_batch(std::span<const std::uint64_t>(ids),
                      std::span<const std::uint64_t>(times),
                      std::span<bool>(reinterpret_cast<bool*>(verdicts.data()),
                                      batch));
    }
    benchmark::DoNotOptimize(verdicts[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_GbfOfferBatch)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

void BM_ExactJumpingOffer(benchmark::State& state) {
  baseline::ExactJumpingDetector exact(
      core::WindowSpec::jumping_count(kWindow, 8));
  run_detector(state, exact);
}
BENCHMARK(BM_ExactJumpingOffer);

}  // namespace

// BENCHMARK_MAIN() plus --json=<path>: the Theorem 1 series lands in the
// same machine-readable trajectory as BENCH_sharded_throughput.json.
// --threads is rejected: these loops are single-threaded by design.
int main(int argc, char** argv) {
  return ppc::benchutil::gbench_main_with_json(
      argc, argv, "thm1_gbf_throughput", /*allow_threads=*/false);
}
