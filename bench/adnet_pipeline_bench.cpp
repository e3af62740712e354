// End-to-end billing-pipeline throughput: clicks/second through the full
// BillingEngine (identifier extraction → duplicate detector → ledger) for
// each detector choice. This is the number an advertising network's
// capacity planning would care about.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "adnet/billing.hpp"
#include "adnet/detector_pool.hpp"
#include "baseline/exact_detectors.hpp"
#include "core/detector_factory.hpp"
#include "stream/generators.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace {

using namespace ppc;

constexpr std::uint64_t kWindow = 1 << 16;

adnet::BillingEngine make_engine(
    std::unique_ptr<core::DuplicateDetector> detector) {
  adnet::BillingEngine engine(adnet::BillingConfig{}, std::move(detector));
  for (std::uint32_t ad = 0; ad < 64; ++ad) {
    engine.register_advertiser({.id = ad,
                                .name = "adv",
                                .bid_per_click = adnet::from_dollars(0.25),
                                .budget = adnet::from_dollars(1e9)});
  }
  for (std::uint32_t p = 0; p < 8; ++p) {
    engine.register_publisher({.id = p, .name = "pub"});
  }
  return engine;
}

void run_pipeline(benchmark::State& state,
                  std::unique_ptr<core::DuplicateDetector> detector) {
  auto engine = make_engine(std::move(detector));
  stream::MixedTrafficOptions gopts;
  gopts.user_count = 100'000;
  gopts.ad_count = 64;
  stream::MixedTrafficStream gen(gopts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.process(gen.next()));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rejected_dups"] =
      static_cast<double>(engine.rejected_duplicates());
}

void BM_Billing_TBF(benchmark::State& state) {
  core::DetectorBudget budget;
  budget.total_memory_bits = 1ull << 24;
  run_pipeline(state,
               core::make_detector(core::WindowSpec::sliding_count(kWindow),
                                   budget));
}
BENCHMARK(BM_Billing_TBF);

void BM_Billing_GBF(benchmark::State& state) {
  core::DetectorBudget budget;
  budget.total_memory_bits = 1ull << 24;
  run_pipeline(state,
               core::make_detector(core::WindowSpec::jumping_count(kWindow, 8),
                                   budget));
}
BENCHMARK(BM_Billing_GBF);

void BM_Billing_Exact(benchmark::State& state) {
  run_pipeline(state, std::make_unique<baseline::ExactSlidingDetector>(
                          core::WindowSpec::sliding_count(kWindow)));
}
BENCHMARK(BM_Billing_Exact);

// DetectorPool::offer_batch route path: Zipf-distributed ad ids over many
// pooled per-ad detectors, batches of `state.range(0)` clicks. Dominated by
// the per-batch ad-grouping pass plus the per-ad offer_batch pipelines —
// the number the pool's grouping scratch-table optimization moves.
void BM_Pool_OfferBatch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  core::DetectorBudget budget;
  budget.total_memory_bits = 1ull << 18;
  adnet::DetectorPool pool([budget](std::uint32_t) {
    return core::make_detector(core::WindowSpec::jumping_count(1 << 12, 8),
                               budget);
  });
  stream::Rng rng(42);
  const stream::ZipfSampler zipf(512, 1.1);
  std::vector<std::uint32_t> ads(batch);
  std::vector<core::ClickId> ids(batch);
  const std::vector<std::uint64_t> times(batch, 0);  // count windows
  std::vector<char> verdicts(batch);
  std::uint64_t next_id = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < batch; ++i) {
      ads[i] = static_cast<std::uint32_t>(zipf.sample(rng));
      ids[i] = next_id++;
    }
    state.ResumeTiming();
    pool.offer_batch(ads, ids, times,
                     std::span<bool>(reinterpret_cast<bool*>(verdicts.data()),
                                     batch));
    benchmark::DoNotOptimize(verdicts.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_Pool_OfferBatch)->Arg(256)->Arg(4096)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
