// Hash-substrate microbenchmarks: raw hash throughput and the cost of the
// three IndexFamily strategies. Justifies the library default (one Murmur3
// evaluation + Kirsch–Mitzenmacher double hashing) with numbers: k indices
// for the price of ~one hash, vs k full hashes for the "independent"
// strategy the FP-rate tests use as the gold standard.
#include <benchmark/benchmark.h>

#include <string>

#include <vector>

#include "hashing/fnv.hpp"
#include "hashing/index_family.hpp"
#include "hashing/murmur3.hpp"
#include "hashing/tabulation.hpp"
#include "hashing/xxhash.hpp"

namespace {

using namespace ppc::hashing;

std::string payload(std::size_t size) { return std::string(size, 'x'); }

void BM_Murmur3(benchmark::State& state) {
  const std::string data = payload(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(murmur3_x64_128(data, seed++));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Murmur3)->Arg(8)->Arg(40)->Arg(256)->Arg(4096);

void BM_Xxh64(benchmark::State& state) {
  const std::string data = payload(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xxh64(data, seed++));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Xxh64)->Arg(8)->Arg(40)->Arg(256)->Arg(4096);

void BM_Fnv1a(benchmark::State& state) {
  const std::string data = payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fnv1a64(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fnv1a)->Arg(8)->Arg(40)->Arg(256);

void BM_Tabulation(benchmark::State& state) {
  TabulationHash64 t(1);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t(key++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Tabulation);

void BM_IndexFamily(benchmark::State& state) {
  const auto strategy = static_cast<IndexStrategy>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  IndexFamily family(k, 1u << 20, strategy, 7);
  std::uint64_t key = 0;
  std::uint64_t idx[kMaxHashFunctions];
  for (auto _ : state) {
    family.indices(key++, std::span<std::uint64_t>(idx, k));
    benchmark::DoNotOptimize(idx[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexFamily)
    ->ArgsProduct({{static_cast<int>(IndexStrategy::kDoubleHashing),
                    static_cast<int>(IndexStrategy::kIndependentHashes),
                    static_cast<int>(IndexStrategy::kTabulation)},
                   {4, 10, 20}});

// The batched hash stage: what the offer_batch rings actually pay per
// key. Compare against BM_IndexFamily's double-hashing rows (per-key calls)
// to see what the multi-key loop saves.
void BM_IndicesBatch(benchmark::State& state) {
  const auto strategy = static_cast<IndexStrategy>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  IndexFamily family(k, 1u << 20, strategy, 7);
  constexpr std::size_t kKeys = 4096;
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys[i] = i * 0x9e3779b97f4a7c15ull;
  std::vector<std::uint64_t> out(kKeys * k);
  for (auto _ : state) {
    family.indices_batch(keys, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_IndicesBatch)
    ->ArgsProduct({{static_cast<int>(IndexStrategy::kDoubleHashing)}, {4, 7}});

}  // namespace

BENCHMARK_MAIN();
