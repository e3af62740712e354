// The sink stack each workload's ppcd serves, built in-process with the
// same factory functions ppcd uses (server::build_detector /
// build_tiered_pool), so replays and the warm-up snapshot match the daemon
// byte for byte. The configuration here must stay in step with
// WorkloadSpec::daemon_args.
#pragma once

#include <memory>
#include <string>

#include "adnet/detector_pool.hpp"
#include "adnet/tiered_detector_pool.hpp"
#include "analysis/sizing.hpp"
#include "core/detector_factory.hpp"
#include "core/sharded_detector.hpp"
#include "enforce/reputation_ledger.hpp"
#include "server/enforcing_sink.hpp"
#include "server/ingest_server.hpp"
#include "server/server_config.hpp"
#include "tracing.hpp"
#include "workload.hpp"

namespace perfbench {

namespace server = ppc::server;
namespace core = ppc::core;
namespace adnet = ppc::adnet;

/// --window=jumping:1048576:8 with --memory-mib=2 (paper_pool) or
/// --memory-mib=4 --shards=8 (enforced_replicated).
inline server::DetectorConfig detector_config(const WorkloadSpec& w) {
  server::DetectorConfig cfg;
  cfg.window = core::WindowSpec::jumping_count(1 << 20, 8);
  cfg.hashes = 7;
  if (w.name == "enforced_replicated") {
    cfg.memory_bits = std::uint64_t{4} << 23;
    cfg.shards = 8;
  } else {
    cfg.memory_bits = std::uint64_t{2} << 23;
  }
  return cfg;
}

/// ppcd --sink=tiered defaults (memory cap 1024 MiB, hot window 4096).
inline server::TieredConfig tiered_config() {
  server::TieredConfig t;
  t.memory_cap_bits = std::uint64_t{1024} << 23;
  return t;
}

/// ppcd's ShardedDetector built like server::build_detector, with each
/// shard wrapped so the tracer sees per-shard offers.
inline std::unique_ptr<core::DuplicateDetector> traced_sharded(
    const server::DetectorConfig& cfg, Tracer& tracer, const char* leaf) {
  core::DetectorBudget budget;
  budget.hash_count = cfg.hashes;
  budget.backend = cfg.backend;
  budget.total_memory_bits = cfg.memory_bits / cfg.shards;
  core::WindowSpec shard_window = cfg.window;
  shard_window.length = std::max<std::uint64_t>(1, cfg.window.length / cfg.shards);
  core::ShardedDetector::Options opts;
  opts.threads = cfg.owners;
  opts.engine = cfg.engine;
  return std::make_unique<core::ShardedDetector>(
      cfg.shards,
      [&](std::size_t) -> std::unique_ptr<core::DuplicateDetector> {
        return std::make_unique<TracedDetector>(
            core::make_detector(shard_window, budget), tracer, leaf);
      },
      opts);
}

struct Stack {
  std::unique_ptr<core::DuplicateDetector> detector;
  std::unique_ptr<adnet::DetectorPool> pool;
  std::unique_ptr<adnet::TieredDetectorPool> tiered;
  std::unique_ptr<server::ClickSink> base;
  std::unique_ptr<TracedSink> traced_base;
  std::unique_ptr<ppc::enforce::ReputationLedger> ledger;
  std::unique_ptr<server::EnforcingSink> enforcing;
  server::ClickSink* top = nullptr;
};

/// The workload's daemon sink. With a tracer, leaf detectors and the
/// layer below enforcement record spans ("core.offer",
/// "core.sharded_offer"); the caller wraps `top` for the top layer.
inline std::unique_ptr<Stack> build_stack(const WorkloadSpec& w,
                                          Tracer* tracer,
                                          core::OpCounter* ops = nullptr) {
  auto s = std::make_unique<Stack>();
  const server::DetectorConfig cfg = detector_config(w);
  if (w.name == "paper_pool") {
    s->pool = std::make_unique<adnet::DetectorPool>(
        [cfg, tracer, ops](std::uint32_t) -> std::unique_ptr<core::DuplicateDetector> {
          auto d = server::build_detector(cfg);
          d->set_op_counter(ops);
          if (tracer == nullptr) return d;
          return std::make_unique<TracedDetector>(std::move(d), *tracer,
                                                  "core.offer");
        },
        adnet::DetectorPoolOptions{std::size_t{1024} << 23});
    s->base = std::make_unique<server::PoolSink>(*s->pool);
    s->top = s->base.get();
  } else if (w.name == "tiered_tenants") {
    s->tiered = server::build_tiered_pool(tiered_config());
    s->base = std::make_unique<server::TieredPoolSink>(*s->tiered);
    s->top = s->base.get();
  } else {
    s->detector = tracer == nullptr ? server::build_detector(cfg)
                                    : traced_sharded(cfg, *tracer, "core.offer");
    s->detector->set_op_counter(ops);
    s->base = std::make_unique<server::DetectorSink>(*s->detector);
    server::ClickSink* inner = s->base.get();
    if (tracer != nullptr) {
      s->traced_base = std::make_unique<TracedSink>(*s->base, *tracer,
                                                    "core.sharded_offer");
      inner = s->traced_base.get();
    }
    s->ledger = std::make_unique<ppc::enforce::ReputationLedger>(
        ppc::enforce::EnforcementPolicy{});
    s->enforcing = std::make_unique<server::EnforcingSink>(*inner, *s->ledger);
    s->top = s->enforcing.get();
  }
  return s;
}

/// A stand-alone replica of the tiered pool's shared tail detector (built
/// as TieredDetectorPool builds it): every click of the pool passes
/// through it, so it stands for the pool's core-layer work.
inline std::unique_ptr<core::DuplicateDetector> tiered_tail_replica() {
  const server::TieredConfig t = tiered_config();
  const auto window = core::WindowSpec::sliding_count(t.tail_window_clicks);
  const ppc::analysis::BudgetPlan plan =
      ppc::analysis::plan_budget(window, t.tail_fpr);
  core::DetectorBudget budget;
  budget.total_memory_bits = plan.total_memory_bits;
  budget.hash_count = plan.hash_count;
  return core::make_detector(window, budget);
}

/// A sink that accepts everything and keeps nothing: the child of layers
/// measured off their workload's stack, so their span is their own cost.
class NullSink final : public server::ClickSink {
 public:
  void offer(std::span<const std::uint32_t>, std::span<const core::ClickId>,
             std::span<const std::uint64_t>, std::span<bool> out) override {
    std::fill(out.begin(), out.end(), false);
  }
  std::string describe() const override { return "null"; }
};

/// A detector that calls every click fresh (DetectorPool routing child).
class NullDetector final : public core::DuplicateDetector {
 public:
  void offer_batch(std::span<const core::ClickId>, std::span<const std::uint64_t>,
                   std::span<bool> out) override {
    std::fill(out.begin(), out.end(), false);
  }
  core::WindowSpec window() const override {
    return core::WindowSpec::sliding_count(1);
  }
  std::size_t memory_bits() const override { return 0; }
  bool zero_false_negatives() const override { return false; }
  std::string name() const override { return "null"; }
  void reset() override {}

 protected:
  bool do_offer(core::ClickId, std::uint64_t) override { return false; }
};

}  // namespace perfbench
