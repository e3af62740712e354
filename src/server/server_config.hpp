// Shared detector configuration for the network ingest pair.
//
// ppcd (the daemon) and ppc_loadgen (the client) must agree on how the
// per-ad detector is built: the load generator verifies the verdict stream
// it got over the wire against an in-process ORACLE replay of the same
// clicks, which is only meaningful when the oracle detector is constructed
// exactly like the server's. Both binaries (and the e2e tests) therefore
// funnel the same flags through this one builder.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adnet/tiered_detector_pool.hpp"
#include "core/detector_factory.hpp"
#include "core/duplicate_detector.hpp"
#include "core/sharded_detector.hpp"
#include "core/window.hpp"

namespace ppc::server {

/// Everything that determines a detector's verdict stream. shards == 1
/// builds the plain paper detector (core::make_detector); shards > 1 wraps
/// it in a ShardedDetector with each shard's count window scaled to
/// window/shards (the same discipline as bench/sharded_throughput).
struct DetectorConfig {
  core::WindowSpec window = core::WindowSpec::jumping_count(1 << 20, 8);
  std::uint64_t memory_bits = std::uint64_t{1} << 24;
  std::size_t hashes = 7;
  /// Algorithm selection (kAuto = the paper's per-window dispatch). Part
  /// of the verdict-determining config: server and loadgen oracle must
  /// agree on it bit-for-bit like every other field here.
  core::DetectorBackend backend = core::DetectorBackend::kAuto;
  std::size_t shards = 1;
  std::size_t owners = 1;  ///< ShardedDetector fan-out lanes
  /// Unused; kept because perfbench/src/stacks.hpp still copies it.
  core::ShardedDetector::EngineMode engine =
      core::ShardedDetector::EngineMode::kMutex;
};

/// Parses the --backend flag grammar shared by ppcd and ppc_loadgen.
inline core::DetectorBackend parse_backend_spec(const std::string& text) {
  if (text == "auto") return core::DetectorBackend::kAuto;
  if (text == "gbf") return core::DetectorBackend::kGbf;
  if (text == "tbf") return core::DetectorBackend::kTbf;
  if (text == "apbf") return core::DetectorBackend::kApbf;
  throw std::invalid_argument(
      "unrecognized backend (want auto|gbf|tbf|apbf): " + text);
}

/// Parses "sliding:N", "jumping:N:Q", "landmark:N",
/// "sliding-time:SPAN_US:UNIT_US", "jumping-time:SPAN_US:Q:UNIT_US" — the
/// same grammar as ppcguard's --window flag.
inline core::WindowSpec parse_window_spec(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const auto colon = text.find(':', start);
    parts.push_back(text.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  auto num = [&](std::size_t i) { return std::stoull(parts.at(i)); };
  if (parts[0] == "sliding" && parts.size() == 2) {
    return core::WindowSpec::sliding_count(num(1));
  }
  if (parts[0] == "jumping" && parts.size() == 3) {
    return core::WindowSpec::jumping_count(num(1),
                                           static_cast<std::uint32_t>(num(2)));
  }
  if (parts[0] == "landmark" && parts.size() == 2) {
    return core::WindowSpec::landmark_count(num(1));
  }
  if (parts[0] == "sliding-time" && parts.size() == 3) {
    return core::WindowSpec::sliding_time(num(1), num(2));
  }
  if (parts[0] == "jumping-time" && parts.size() == 4) {
    return core::WindowSpec::jumping_time(
        num(1), static_cast<std::uint32_t>(num(2)), num(3));
  }
  throw std::invalid_argument("unrecognized window spec: " + text);
}

/// The adaptive-pool knobs ppcd's --sink=tiered flags map onto; one struct
/// so the daemon, the e2e tests, and any future loadgen oracle construct
/// the SAME adnet::TieredPoolOptions from the same numbers.
struct TieredConfig {
  std::uint64_t memory_cap_bits = std::uint64_t{1} << 33;
  core::WindowSpec hot_window = core::WindowSpec::sliding_count(1 << 12);
  double hot_fpr = 1e-4;
  std::uint64_t tail_window_clicks = std::uint64_t{1} << 20;
  double tail_fpr = 1e-3;
  std::uint64_t epoch_clicks = std::uint64_t{1} << 16;
  double promote_share = 1.0 / 512;
  double demote_share = 1.0 / 4096;
  std::size_t hh_capacity = 1024;
};

/// Builds the tiered pool for `cfg` (throws std::invalid_argument on
/// nonsense knobs, e.g. a tail that alone exceeds the cap).
inline std::unique_ptr<adnet::TieredDetectorPool> build_tiered_pool(
    const TieredConfig& cfg) {
  adnet::TieredPoolOptions opts;
  opts.memory_cap_bits = cfg.memory_cap_bits;
  opts.hot_window = cfg.hot_window;
  opts.hot_target_fpr = cfg.hot_fpr;
  opts.tail_window_clicks = cfg.tail_window_clicks;
  opts.tail_target_fpr = cfg.tail_fpr;
  opts.epoch_clicks = cfg.epoch_clicks;
  opts.promote_share = cfg.promote_share;
  opts.demote_share = cfg.demote_share;
  opts.hh_capacity = cfg.hh_capacity;
  return std::make_unique<adnet::TieredDetectorPool>(opts);
}

/// Builds one detector for one identifier population under `cfg`.
/// Deterministic: two calls with equal configs produce detectors whose
/// sequential verdict streams are bit-identical — the property the
/// load generator's oracle verification rests on.
inline std::unique_ptr<core::DuplicateDetector> build_detector(
    const DetectorConfig& cfg) {
  core::DetectorBudget budget;
  budget.hash_count = cfg.hashes;
  budget.backend = cfg.backend;
  if (cfg.shards <= 1) {
    budget.total_memory_bits = cfg.memory_bits;
    return core::make_detector(cfg.window, budget);
  }
  budget.total_memory_bits = cfg.memory_bits / cfg.shards;
  core::WindowSpec shard_window = cfg.window;
  if (shard_window.basis == core::WindowBasis::kCount) {
    shard_window.length =
        std::max<std::uint64_t>(1, shard_window.length / cfg.shards);
  }
  core::ShardedDetector::Options opts;
  opts.threads = cfg.owners;
  return std::make_unique<core::ShardedDetector>(
      cfg.shards,
      [&](std::size_t) { return core::make_detector(shard_window, budget); },
      opts);
}

}  // namespace ppc::server
