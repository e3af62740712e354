// Memory-operation accounting used to reproduce the running-time claims of
// Theorems 1 and 2 (word/entry reads and writes per processed element).
//
// Detectors take an optional OpCounter*; the instrumented paths stay
// branch-cheap (one predictable null check per site). Each statistic is a
// RelaxedCounter — a uint64 whose increments are relaxed std::atomic RMWs —
// so accounting is race-free under every driving pattern the library
// supports: ShardedDetector (writes serialized by the shard lock, folded
// by op_totals() under the same lock) and ad-hoc concurrent offer()
// callers sharing one detector. Relaxed ordering adds no fence; the
// cross-thread visibility op_totals() needs comes from the shard mutexes,
// not from the counters themselves.
#pragma once

#include <atomic>
#include <cstdint>

namespace ppc::core {

/// A uint64 statistic with relaxed-atomic increments and plain-value
/// copy/compare semantics (copies snapshot the value, so OpCounter keeps
/// behaving like the aggregate of five plain integers it used to be).
class RelaxedCounter {
 public:
  constexpr RelaxedCounter() noexcept = default;
  RelaxedCounter(std::uint64_t v) noexcept  // NOLINT(google-explicit-constructor)
      : v_(v) {}
  RelaxedCounter(const RelaxedCounter& o) noexcept : v_(o.value()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) noexcept {
    v_.store(o.value(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  operator std::uint64_t() const noexcept {  // NOLINT(google-explicit-constructor)
    return value();
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  RelaxedCounter& operator+=(std::uint64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator++() noexcept { return *this += 1; }

 private:
  std::atomic<std::uint64_t> v_{0};
};

struct OpCounter {
  RelaxedCounter word_reads;    ///< 64-bit word loads from filter memory.
  RelaxedCounter word_writes;   ///< 64-bit word stores to filter memory.
  RelaxedCounter entry_reads;   ///< packed-entry loads (TBF timestamps, CBF counters).
  RelaxedCounter entry_writes;  ///< packed-entry stores.
  RelaxedCounter hash_evals;    ///< full hash-function evaluations.

  std::uint64_t total() const noexcept {
    return word_reads + word_writes + entry_reads + entry_writes;
  }

  void reset() noexcept { *this = OpCounter{}; }

  OpCounter& operator+=(const OpCounter& o) noexcept {
    word_reads += o.word_reads;
    word_writes += o.word_writes;
    entry_reads += o.entry_reads;
    entry_writes += o.entry_writes;
    hash_evals += o.hash_evals;
    return *this;
  }
};

}  // namespace ppc::core
