// ShardedDetector: thread-safe horizontal scaling of any DuplicateDetector.
//
// Click identifiers are partitioned across S inner detectors by a hash of
// the identifier; identical clicks always land on the same shard, so the
// zero-false-negative guarantee is preserved. Each shard has its own
// mutex: offer() takes one lock per click; offer_batch(ids, times, out)
// bucketizes a micro-batch by shard in one counting-sort pass, carrying
// each click's timestamp with its id, drains each bucket under a SINGLE
// lock acquisition through the inner pipelined offer_batch, and optionally
// fans the buckets out across an internal ThreadPool (Options::threads >
// 1). Within a shard the bucketization is stable, so verdicts are
// bit-identical to a sequential replay at every thread count and window
// basis (tests/parallel_batch_test.cpp).
//
// Window semantics under sharding:
//  * time-based windows: EXACT — expiry depends only on timestamps, which
//    sharding does not perturb.
//  * count-based windows: each shard sees ~1/S of the arrivals, so a shard
//    window of N/S approximates a global window of N. The approximation
//    error is the binomial deviation of the shard's arrival share; for
//    N/S ≫ 1 it is a few percent of the window length. Callers that need
//    exact count semantics should shard by ad or publisher instead (one
//    stream per detector) or use a time-based window.
//
// Op accounting under concurrency: set_op_counter() installs a PRIVATE
// counter in every shard, padded to its own cache line so neighbouring
// shards' lanes never false-share an increment (see
// bench/op_counter_falseshare.cpp); the caller's counter is only written
// when op_totals() folds the per-shard counters together. Read the totals
// after the offering threads quiesce.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/duplicate_detector.hpp"
#include "hashing/hash_common.hpp"
#include "runtime/thread_pool.hpp"

namespace ppc::core {

class ShardedDetector final : public DuplicateDetector {
 public:
  using Factory =
      std::function<std::unique_ptr<DuplicateDetector>(std::size_t shard)>;

  /// Vestigial: the mutex design is the only one. Kept, with its single
  /// value, because perfbench/src/stacks.hpp still assigns Options::engine.
  enum class EngineMode : std::uint8_t { kMutex };

  struct Options {
    /// Total threads driving offer_batch fan-out (1 = process the shard
    /// buckets sequentially on the calling thread; t > 1 spawns an
    /// internal pool of t-1 workers that the caller joins per batch).
    /// Must be ≥ 1.
    std::size_t threads = 1;
    EngineMode engine = EngineMode::kMutex;  ///< unused; see EngineMode
  };

  /// @param shards   number of independent shards (≥ 1).
  /// @param factory  builds the detector for each shard; for count-based
  ///                 windows the factory should size each shard's window
  ///                 at N/shards.
  ShardedDetector(std::size_t shards, const Factory& factory);
  ShardedDetector(std::size_t shards, const Factory& factory, Options opts);

  bool do_offer(ClickId id, std::uint64_t time_us) override;
  using DuplicateDetector::offer_batch;
  void offer_batch(std::span<const ClickId> ids,
                   std::span<const std::uint64_t> times,
                   std::span<bool> out) override;
  /// The AGGREGATE window the ensemble approximates, not one shard's spec:
  /// a count-based shard window of N/S scaled back up by S shards (see the
  /// header comment on count-basis approximation); time-based windows pass
  /// through unchanged since every shard expires on the same clock.
  WindowSpec window() const override;
  std::size_t memory_bits() const override;
  bool zero_false_negatives() const override {
    return shards_.front().detector->zero_false_negatives();
  }
  std::string name() const override {
    return "Sharded[" + std::to_string(shards_.size()) + "x" +
           shards_.front().detector->name() + "]";
  }
  void reset() override;
  /// A sharded snapshot is only as good as its inner detectors' formats.
  bool supports_snapshots() const noexcept override {
    return shards_.front().detector->supports_snapshots();
  }

  /// Serializes every shard's detector into one versioned, CRC-checked
  /// section (core/snapshot_io.hpp `kShardedMagic`), each under its
  /// shard's lock. Like op_totals(), concurrent offer() calls from OTHER
  /// threads must have stopped for the snapshot to be one point in time.
  void save(std::ostream& out) const override;

  /// Restores state saved by save() into THIS instance. Refuses snapshots
  /// whose shard count, aggregate window, or inner detector
  /// options differ from this instance's construction parameters (the
  /// error names the mismatched dimension). Corrupt sections (bad magic /
  /// version / length / CRC / trailing bytes) throw std::runtime_error
  /// before any shard is touched; a nested per-shard failure after that
  /// leaves the detector in an unspecified (but memory-safe) state.
  void restore(std::istream& in) override;

  /// Installs a per-shard counter in every inner detector; `ops` itself is
  /// only updated by op_totals() (see header comment).
  void set_op_counter(OpCounter* ops) noexcept override;
  /// Folds the per-shard counters (each under its shard's lock) into one
  /// total, copies it into the counter from set_op_counter if any, and
  /// returns it.
  OpCounter op_totals() const;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Fan-out lanes (workers + caller).
  std::size_t thread_count() const noexcept {
    return pool_ ? pool_->thread_count() : 1;
  }
  /// Thread-safe: per-shard mutexes serialize same-shard offers.
  bool concurrent_offers() const noexcept override { return true; }

  /// Which shard an identifier routes to (stable across calls).
  std::size_t shard_of(ClickId id) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(hashing::fmix64(id ^ 0x5a17)) *
         shards_.size()) >>
        64);
  }

 private:
  // One cache line per shard: the mutex and the detector pointer of
  // neighbouring shards must not false-share when different threads drive
  // different shards.
  struct alignas(64) Shard {
    std::unique_ptr<DuplicateDetector> detector;
    mutable std::mutex mutex;
    /// Private accounting sink (see set_op_counter), padded to its OWN
    /// cache line: fan-out lanes draining neighbouring shards bump these
    /// on every instrumented op, and sharing a line would put a coherence
    /// miss in every increment (bench/op_counter_falseshare.cpp measures
    /// the gap).
    alignas(64) OpCounter ops;
  };

  std::vector<Shard> shards_;
  std::unique_ptr<runtime::ThreadPool> pool_;  ///< threads > 1 only
};

}  // namespace ppc::core
