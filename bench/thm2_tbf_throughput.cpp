// Theorem 2(3) — TBF running time: O(M/(N·log N)) entry operations per
// element in the worst case. With the paper's C = N-1 the incremental
// reclamation scan touches ~m/N entries per arrival, so per-element cost is
// flat in N once m/N is fixed, and the window size can grow to millions
// without touching throughput.
//
// Also benchmarked: the C knob (larger C → shorter scans, wider entries)
// and the exact hash-table detector as the memory-hungry baseline.
#include <benchmark/benchmark.h>

#include "gbench_json.hpp"

#include "baseline/exact_detectors.hpp"
#include "core/timing_bloom_filter.hpp"

namespace {

using namespace ppc;

void run_detector(benchmark::State& state, core::DuplicateDetector& d) {
  core::OpCounter ops;
  d.set_op_counter(&ops);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.offer(id++));
  }
  state.SetItemsProcessed(state.iterations());
  if (ops.total() > 0) {
    state.counters["entry_ops/elem"] =
        static_cast<double>(ops.total()) /
        static_cast<double>(state.iterations());
  }
  state.counters["memory_MiB"] =
      static_cast<double>(d.memory_bits()) / 8.0 / (1 << 20);
}

/// Window size sweep at fixed m/N ratio (constant FP target): per-element
/// cost should stay flat — the point of the incremental scan.
void BM_TbfOffer_WindowSweep(benchmark::State& state) {
  const std::uint64_t n = 1ull << state.range(0);
  core::TimingBloomFilter::Options opts;
  opts.entries = n * 16;  // m/N fixed at 16
  opts.hash_count = 7;
  core::TimingBloomFilter tbf(core::WindowSpec::sliding_count(n), opts);
  run_detector(state, tbf);
}
BENCHMARK(BM_TbfOffer_WindowSweep)->Arg(12)->Arg(14)->Arg(16)->Arg(18)->Arg(20);

/// C sweep at fixed window: the §4.1 space/time knob.
void BM_TbfOffer_CSweep(benchmark::State& state) {
  constexpr std::uint64_t kN = 1 << 16;
  core::TimingBloomFilter::Options opts;
  opts.entries = kN * 16;
  opts.hash_count = 7;
  opts.c = static_cast<std::uint64_t>(state.range(0));
  core::TimingBloomFilter tbf(core::WindowSpec::sliding_count(kN), opts);
  state.counters["entry_bits"] = static_cast<double>(tbf.entry_bits());
  state.counters["scan_stride"] = static_cast<double>(tbf.clean_stride());
  run_detector(state, tbf);
}
BENCHMARK(BM_TbfOffer_CSweep)
    ->Arg(1 << 10)
    ->Arg(1 << 13)
    ->Arg((1 << 16) - 1)  // paper default C = N-1
    ->Arg(1 << 19);

/// Batched path at a cache-hostile size: software prefetch hides the
/// random-access latency of the timestamp probes.
void BM_TbfOfferBatch(benchmark::State& state) {
  constexpr std::uint64_t kN = 1 << 20;
  core::TimingBloomFilter::Options opts;
  opts.entries = kN * 16;  // ~40 MiB: far beyond L2
  opts.hash_count = 7;
  core::TimingBloomFilter tbf(core::WindowSpec::sliding_count(kN), opts);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> ids(batch);
  const std::vector<std::uint64_t> times(batch, 0);  // count window
  std::vector<char> verdicts(batch);  // bool-sized scratch
  std::uint64_t next = 0;
  for (auto _ : state) {
    for (auto& id : ids) id = next++;
    if (batch == 1) {
      verdicts[0] = tbf.offer(ids[0]);
    } else {
      tbf.offer_batch(std::span<const std::uint64_t>(ids),
                      std::span<const std::uint64_t>(times),
                      std::span<bool>(reinterpret_cast<bool*>(verdicts.data()),
                                      batch));
    }
    benchmark::DoNotOptimize(verdicts[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_TbfOfferBatch)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

void BM_ExactSlidingOffer(benchmark::State& state) {
  baseline::ExactSlidingDetector exact(
      core::WindowSpec::sliding_count(1 << 16));
  run_detector(state, exact);
}
BENCHMARK(BM_ExactSlidingOffer);

/// Jumping mode with very large Q — the regime where the paper says "GBF
/// cannot process the click stream efficiently, and TBF is a better choice".
void BM_TbfOffer_JumpingLargeQ(benchmark::State& state) {
  const std::uint64_t n = 1 << 16;
  const auto q = static_cast<std::uint32_t>(state.range(0));
  core::TimingBloomFilter::Options opts;
  opts.entries = n * 16;
  opts.hash_count = 7;
  core::TimingBloomFilter tbf(core::WindowSpec::jumping_count(n, q), opts);
  run_detector(state, tbf);
}
BENCHMARK(BM_TbfOffer_JumpingLargeQ)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

// BENCHMARK_MAIN() plus --json=<path>: the Theorem 2 series lands in the
// same machine-readable trajectory as BENCH_sharded_throughput.json.
// --threads is rejected: these loops are single-threaded by design.
int main(int argc, char** argv) {
  return ppc::benchutil::gbench_main_with_json(
      argc, argv, "thm2_tbf_throughput", /*allow_threads=*/false);
}
