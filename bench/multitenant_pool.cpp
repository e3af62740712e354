// Million-ad multi-tenancy bench: sustained Zipf traffic over ~1M distinct
// ad ids through the adaptive TieredDetectorPool inside a FIXED memory cap,
// with per-tier FPR measured against a validity oracle and the zero-FN
// tier-move guarantee checked on every injected duplicate.
//
// Arms (interleaved per repetition so drift hits both equally; 5 reps,
// tiered throughput reported as median and quartiles):
//   tiered      — TieredDetectorPool under the cap: throughput, per-tier
//                 FPR, FN count (must be 0), promotions/demotions/deferrals.
//   naive_pool  — the pre-tiering DetectorPool with the SAME cap and the
//                 same per-ad plan: records how few ads fit before the cap
//                 throws length_error, and the bits a dedicated-detector
//                 deployment would need for the full universe.
//
// Oracle construction: every non-duplicate click uses a globally fresh id,
// so any `true` verdict on it is a false positive (attributed to the tier
// the ad occupied when offered). Injected duplicates replay an original
// that is BOTH within its ad's hot window (gap <= hot_window/2 ad-clicks)
// and within the tail window (gap <= tail_window/2 global arrivals), so by
// the tier-move guarantee (DESIGN.md "Tier moves") the pool must flag every
// one of them — a miss is a false negative: the bench reports it and exits
// 1, so it doubles as a zero-FN gate.
//
//   ./multitenant_pool --paper --json=BENCH_multitenant_pool.json
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "adnet/tiered_detector_pool.hpp"
#include "analysis/sizing.hpp"
#include "bench_util.hpp"
#include "core/detector_factory.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

#include <chrono>

using namespace ppc;

namespace {

struct Sizes {
  std::uint64_t universe;    ///< distinct ad ids in the Zipf population
  std::uint64_t clicks;      ///< stream length per repetition
  std::uint64_t tail_window; ///< tiered pool tail window (global clicks)
  std::size_t cap_bits;      ///< the fixed memory budget both arms get
  std::uint64_t epoch;       ///< maintenance cadence
};

struct StreamState {
  struct Original {
    std::uint32_t ad = 0;
    std::uint64_t id = 0;
    std::uint64_t global_idx = 0;
    std::uint64_t ad_idx = 0;
  };
  stream::Rng rng;
  stream::ZipfSampler zipf;
  std::vector<std::uint64_t> ad_clicks;       // per-ad click counters
  std::vector<Original> ring;                 // recent originals, global
  std::uint64_t fresh_id = std::uint64_t{1} << 40;
  std::uint64_t global_idx = 0;
  std::uint64_t sweep = 0;  ///< round-robin cursor over the whole universe

  StreamState(std::uint64_t seed, std::uint64_t universe)
      : rng(seed), zipf(universe, 1.1), ad_clicks(universe, 0) {
    ring.reserve(1 << 16);
  }
};

struct Click {
  std::uint32_t ad;
  std::uint64_t id;
  bool is_dup;  ///< ground truth: replay of an in-window original
  StreamState::Original cand;  ///< fresh clicks: the ring candidate
};

/// Generates the next click. ~12% of clicks replay a ring original that is
/// still inside BOTH windows (the oracle's "must detect" class); the rest
/// are globally fresh ids (the oracle's "must not flag" class).
Click next_click(StreamState& st, const Sizes& sz,
                 std::uint64_t hot_window_clicks) {
  Click c{};
  if (!st.ring.empty() && st.rng.chance(0.12)) {
    // A few probes into the ring; accept the first replayable original.
    // Gaps measure from the original INSERTION: a flagged duplicate is not
    // re-stamped by the filters (paper semantics — fraud doesn't extend
    // the original's window), so replays of replays don't reset the clock.
    for (int probe = 0; probe < 4; ++probe) {
      const StreamState::Original& o = st.ring[st.rng.below(st.ring.size())];
      if (st.global_idx - o.global_idx <= sz.tail_window / 2 &&
          st.ad_clicks[o.ad] - o.ad_idx <= hot_window_clicks / 2) {
        c.ad = o.ad;
        c.id = o.id;
        c.is_dup = true;
        break;
      }
    }
  }
  if (!c.is_dup) {
    // 70% Zipf (the skewed head that earns promotion), 30% a round-robin
    // sweep of the WHOLE universe — the long tail's trickle, guaranteeing
    // every one of the million ad ids actually reaches the pool.
    if (st.rng.chance(0.3)) {
      c.ad = static_cast<std::uint32_t>(st.sweep++ % st.ad_clicks.size());
    } else {
      c.ad = static_cast<std::uint32_t>(st.zipf.sample(st.rng));
    }
    c.id = st.fresh_id++;
    c.cand = StreamState::Original{c.ad, c.id, st.global_idx,
                                   st.ad_clicks[c.ad]};
  }
  ++st.ad_clicks[c.ad];
  ++st.global_idx;
  return c;
}

/// Admits a fresh click into the replay ring — called only when its verdict
/// came back `false`: a fresh click the filter (wrongly) flagged was NOT
/// inserted, so replaying it later would manufacture a phantom FN.
void remember_original(StreamState& st, const StreamState::Original& o) {
  if (st.ring.size() < (1u << 16)) {
    st.ring.push_back(o);
  } else {
    st.ring[st.rng.below(st.ring.size())] = o;
  }
}

struct TieredResult {
  double secs = 0;
  std::uint64_t fn = 0, dup_checked = 0;
  std::uint64_t fp_hot = 0, fresh_hot = 0;
  std::uint64_t fp_tail = 0, fresh_tail = 0;
  std::uint64_t distinct_ads = 0;  ///< universe members that actually clicked
  adnet::TierStats stats;
};

TieredResult run_tiered(const Sizes& sz, const adnet::TieredPoolOptions& opts,
                        std::uint64_t seed) {
  adnet::TieredDetectorPool pool(opts);
  StreamState st(seed, sz.universe);
  TieredResult r;

  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint32_t> ads(kChunk);
  std::vector<std::uint64_t> ids(kChunk), times(kChunk);
  std::vector<char> dup(kChunk), hot(kChunk);
  std::vector<StreamState::Original> cands(kChunk);
  std::vector<char> out_raw(kChunk);
  const std::span<bool> out(reinterpret_cast<bool*>(out_raw.data()), kChunk);
  std::unordered_map<std::uint32_t, bool> hot_cache;

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t done = 0; done < sz.clicks; done += kChunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk,
                                                         sz.clicks - done));
    for (std::size_t i = 0; i < n; ++i) {
      const Click c = next_click(st, sz, opts.hot_window.length);
      ads[i] = c.ad;
      ids[i] = c.id;
      times[i] = done + i;
      dup[i] = c.is_dup ? 1 : 0;
      cands[i] = c.cand;
    }
    // Tier attribution for FPR accounting: one ad_is_hot query per distinct
    // ad per chunk (promotion mid-chunk misattributes at most one chunk's
    // worth of probes — noise, not bias, over millions of clicks).
    hot_cache.clear();
    for (std::size_t i = 0; i < n; ++i) {
      auto [it, fresh] = hot_cache.try_emplace(ads[i], false);
      if (fresh) it->second = pool.ad_is_hot(ads[i]);
      hot[i] = it->second ? 1 : 0;
    }
    pool.offer_batch(std::span<const std::uint32_t>(ads.data(), n),
                     std::span<const std::uint64_t>(ids.data(), n),
                     std::span<const std::uint64_t>(times.data(), n),
                     out.subspan(0, n));
    for (std::size_t i = 0; i < n; ++i) {
      if (dup[i] != 0) {
        ++r.dup_checked;
        if (!out[i]) ++r.fn;
      } else {
        if (hot[i] != 0) {
          ++r.fresh_hot;
          if (out[i]) ++r.fp_hot;
        } else {
          ++r.fresh_tail;
          if (out[i]) ++r.fp_tail;
        }
        if (!out[i]) remember_original(st, cands[i]);
      }
    }
  }
  r.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
  r.stats = pool.stats();
  for (const std::uint64_t c : st.ad_clicks) {
    if (c > 0) ++r.distinct_ads;
  }
  return r;
}

struct NaiveResult {
  std::uint64_t clicks_until_cap = 0;
  std::uint64_t ads_until_cap = 0;
  std::size_t per_ad_bits = 0;
  bool threw = false;
};

NaiveResult run_naive(const Sizes& sz, const adnet::TieredPoolOptions& opts,
                      std::uint64_t seed) {
  // Same per-ad plan the tiered pool gives its HOT ads, for every ad.
  const analysis::BudgetPlan plan =
      analysis::plan_budget(opts.hot_window, opts.hot_target_fpr);
  core::DetectorBudget budget;
  budget.total_memory_bits = plan.total_memory_bits;
  budget.hash_count = plan.hash_count;
  adnet::DetectorPoolOptions pool_opts;
  pool_opts.memory_cap_bits = sz.cap_bits;
  adnet::DetectorPool pool(
      [&](std::uint32_t) {
        return core::make_detector(opts.hot_window, budget);
      },
      pool_opts);

  NaiveResult r;
  r.per_ad_bits = plan.total_memory_bits;
  StreamState st(seed, sz.universe);
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint32_t> ads(kChunk);
  std::vector<std::uint64_t> ids(kChunk), times(kChunk);
  std::vector<char> dup(kChunk);
  std::vector<StreamState::Original> cands(kChunk);
  std::vector<char> out_raw(kChunk);
  const std::span<bool> out(reinterpret_cast<bool*>(out_raw.data()), kChunk);
  for (std::uint64_t done = 0; done < sz.clicks && !r.threw; done += kChunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk,
                                                         sz.clicks - done));
    for (std::size_t i = 0; i < n; ++i) {
      const Click c = next_click(st, sz, opts.hot_window.length);
      ads[i] = c.ad;
      ids[i] = c.id;
      times[i] = done + i;
      dup[i] = c.is_dup ? 1 : 0;
      cands[i] = c.cand;
    }
    try {
      pool.offer_batch(std::span<const std::uint32_t>(ads.data(), n),
                       std::span<const std::uint64_t>(ids.data(), n),
                       std::span<const std::uint64_t>(times.data(), n),
                       out.subspan(0, n));
      r.clicks_until_cap += n;
      for (std::size_t i = 0; i < n; ++i) {
        if (dup[i] == 0 && !out[i]) remember_original(st, cands[i]);
      }
    } catch (const std::length_error&) {
      r.threw = true;  // atomic rejection: none of this chunk was offered
    }
  }
  r.ads_until_cap = pool.size();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::Args::parse(argc, argv);

  Sizes sz;
  sz.universe = args.scaled(std::uint64_t{1} << 20);  // 1M ads at --paper
  sz.clicks = args.scaled(std::uint64_t{1} << 23);
  sz.tail_window = args.scaled(std::uint64_t{1} << 20);
  sz.cap_bits = static_cast<std::size_t>(
      args.scaled(std::uint64_t{1} << 29));  // 64 MiB at --paper
  sz.epoch = std::max<std::uint64_t>(4096, args.scaled(std::uint64_t{1} << 16));

  adnet::TieredPoolOptions opts;
  opts.memory_cap_bits = sz.cap_bits;
  opts.hot_window = core::WindowSpec::sliding_count(4096);
  opts.hot_target_fpr = 1e-4;
  opts.tail_window_clicks = sz.tail_window;
  opts.tail_target_fpr = 1e-3;
  opts.epoch_clicks = sz.epoch;
  opts.hh_capacity = 1024;

  benchutil::JsonSeriesWriter json("multitenant_pool", args.json);
  json.set_meta("hw_threads",
                static_cast<double>(std::thread::hardware_concurrency()));
  json.set_meta("cpu_model", benchutil::cpu_model_string());
  json.set_meta("universe", static_cast<double>(sz.universe));
  json.set_meta("clicks", static_cast<double>(sz.clicks));
  json.set_meta("memory_cap_bits", static_cast<double>(sz.cap_bits));
  json.set_meta("tail_window", static_cast<double>(sz.tail_window));
  json.set_meta("hot_window", 4096.0);
  json.set_meta("hot_target_fpr", opts.hot_target_fpr);
  json.set_meta("tail_target_fpr", opts.tail_target_fpr);

  std::printf("multitenant_pool: %llu Zipf(1.1) ads, %llu clicks/rep, cap %.1f"
              " Mbit\n\n",
              static_cast<unsigned long long>(sz.universe),
              static_cast<unsigned long long>(sz.clicks),
              static_cast<double>(sz.cap_bits) / 1e6);
  benchutil::print_header({"series", "rep", "mclicks/s", "fn", "fpr_hot",
                           "fpr_tail", "hot_ads", "mem_mbit"});

  constexpr int kReps = 5;
  json.set_meta("reps", static_cast<double>(kReps));
  std::vector<double> tiered_mcps;
  std::uint64_t total_fn = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(rep);

    const TieredResult t = run_tiered(sz, opts, seed);
    const double mcps = static_cast<double>(sz.clicks) / t.secs / 1e6;
    tiered_mcps.push_back(mcps);
    total_fn += t.fn;
    const double fpr_hot =
        t.fresh_hot > 0
            ? static_cast<double>(t.fp_hot) / static_cast<double>(t.fresh_hot)
            : 0.0;
    const double fpr_tail =
        t.fresh_tail > 0 ? static_cast<double>(t.fp_tail) /
                               static_cast<double>(t.fresh_tail)
                         : 0.0;
    std::printf("%13s ", "tiered");
    benchutil::print_row({static_cast<double>(rep), mcps,
                          static_cast<double>(t.fn), fpr_hot, fpr_tail,
                          static_cast<double>(t.stats.hot_ads),
                          static_cast<double>(t.stats.memory_bits) / 1e6});
    json.add("tiered",
             {{"rep", static_cast<double>(rep)},
              {"mclicks_per_s", mcps},
              {"distinct_ads", static_cast<double>(t.distinct_ads)},
              {"false_negatives", static_cast<double>(t.fn)},
              {"dup_checked", static_cast<double>(t.dup_checked)},
              {"fpr_hot", fpr_hot},
              {"fresh_hot", static_cast<double>(t.fresh_hot)},
              {"fpr_tail", fpr_tail},
              {"fresh_tail", static_cast<double>(t.fresh_tail)},
              {"hot_ads", static_cast<double>(t.stats.hot_ads)},
              {"memory_bits", static_cast<double>(t.stats.memory_bits)},
              {"memory_cap_bits",
               static_cast<double>(t.stats.memory_cap_bits)},
              {"promotions", static_cast<double>(t.stats.promotions)},
              {"demotions", static_cast<double>(t.stats.demotions)},
              {"deferrals",
               static_cast<double>(t.stats.promotion_deferrals)}});

    const NaiveResult nv = run_naive(sz, opts, seed);
    const double naive_bits_universe =
        static_cast<double>(nv.per_ad_bits) *
        static_cast<double>(sz.universe);
    std::printf("%13s   cap %s after %llu ads / %llu clicks; dedicated "
                "detectors for all %llu ads would need %.0f Mbit\n",
                "naive_pool", nv.threw ? "threw" : "held",
                static_cast<unsigned long long>(nv.ads_until_cap),
                static_cast<unsigned long long>(nv.clicks_until_cap),
                static_cast<unsigned long long>(sz.universe),
                naive_bits_universe / 1e6);
    json.add("naive_pool",
             {{"rep", static_cast<double>(rep)},
              {"ads_until_cap", static_cast<double>(nv.ads_until_cap)},
              {"clicks_until_cap",
               static_cast<double>(nv.clicks_until_cap)},
              {"per_ad_bits", static_cast<double>(nv.per_ad_bits)},
              {"bits_needed_universe", naive_bits_universe},
              {"hit_length_error", nv.threw ? 1.0 : 0.0}});

    if (t.fn != 0) {
      std::fprintf(stderr,
                   "FN VIOLATION: rep %d missed %llu in-window duplicates\n",
                   rep, static_cast<unsigned long long>(t.fn));
    }
  }

  const benchutil::Spread spread = benchutil::spread_of(tiered_mcps);
  std::printf("\ntiered: median %.3f Mclicks/s (IQR %.3f-%.3f) over %d reps\n",
              spread.median, spread.q1, spread.q3, kReps);
  json.add("tiered_spread", {{"mclicks_per_s", spread.median},
                             {"mclicks_per_s_q1", spread.q1},
                             {"mclicks_per_s_q3", spread.q3}});

  std::printf(
      "\n(tiered serves the whole stream inside the cap; naive_pool is the\n"
      " pre-tiering DetectorPool with the same cap and per-ad plan, which\n"
      " stops at its first over-budget first-seen ad with length_error.)\n");
  json.write();
  // A missed in-window duplicate breaks the tier-move guarantee: fail the
  // run so scripts and CI gates see it, not just the log.
  return total_fn == 0 ? 0 : 1;
}
