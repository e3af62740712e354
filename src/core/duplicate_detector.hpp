// DuplicateDetector: the public interface every duplicate-click detection
// algorithm in this library implements (the paper's GBF and TBF, plus all
// related-work baselines).
//
// Semantics follow Definition 1 of the paper: offer() returns true iff an
// identical click was already accepted as *valid* inside the current
// decaying window. A click reported non-duplicate is atomically recorded as
// valid. Detectors are single-stream objects; wrap one per ad (or per
// identifier policy) and feed clicks in arrival order. A batch is the same
// stream in one call: offer_batch(ids, times, out) carries each click's
// own timestamp and is verdict-for-verdict a loop of offer().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/op_counter.hpp"
#include "core/window.hpp"

namespace ppc::core {

/// Canonical click identifier: a 64-bit fingerprint of whatever attribute
/// combination defines "identical clicks" (source IP, cookie, ad id, ...).
/// stream::click_identifier() produces these from Click records.
using ClickId = std::uint64_t;

class DuplicateDetector {
 public:
  virtual ~DuplicateDetector() = default;

  DuplicateDetector(const DuplicateDetector&) = delete;
  DuplicateDetector& operator=(const DuplicateDetector&) = delete;

  /// Processes one arrival. Returns true iff `id` duplicates a valid click
  /// in the current window; otherwise the click becomes valid.
  ///
  /// `time_us` is the click's timestamp; count-based detectors ignore it.
  /// Time-based detectors use it to advance and expire window state before
  /// classifying the click. Their clock never moves back: a stamp older
  /// than the clock (clicks of different connections interleave at a
  /// server sink) is judged at the current unit, exactly as if it carried
  /// that unit's stamp.
  bool offer(ClickId id, std::uint64_t time_us = 0) {
    return do_offer(id, time_us);
  }

  /// The batch entry point: processes a micro-batch in arrival order with
  /// PER-CLICK timestamps, writing the verdict for `ids[i]` to `out[i]`.
  /// Verdict-for-verdict identical to `offer(ids[i], times[i])` in a loop
  /// (times.size() ≥ ids.size() and out.size() ≥ ids.size(); count-based
  /// detectors ignore the times, and a stale one is judged at the current
  /// unit as in offer()). Detectors override it to pipeline hash
  /// computation and memory prefetch across elements.
  virtual void offer_batch(std::span<const ClickId> ids,
                           std::span<const std::uint64_t> times,
                           std::span<bool> out) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out[i] = offer(ids[i], times[i]);
    }
  }

  /// Convenience for callers without per-click times (count windows): the
  /// whole batch is stamped with `time_us` and handed to the timed
  /// overload in ONE call, so a sharded detector still buckets and fans
  /// out the batch as a whole. No detector overrides it; it stays virtual
  /// only so instrumenting wrappers can intercept it.
  virtual void offer_batch(std::span<const ClickId> ids, std::span<bool> out,
                           std::uint64_t time_us = 0) {
    const std::vector<std::uint64_t> times(ids.size(), time_us);
    offer_batch(ids, times, out);
  }

  /// The window model this detector implements.
  virtual WindowSpec window() const = 0;

  /// Filter memory footprint in bits, matching the paper's accounting
  /// (payload storage; excludes O(1) bookkeeping scalars).
  virtual std::size_t memory_bits() const = 0;

  /// Whether the algorithm guarantees zero false negatives (GBF/TBF: yes;
  /// Stable Bloom Filter: no).
  virtual bool zero_false_negatives() const = 0;

  /// Human-readable algorithm name for reports and benches.
  virtual std::string name() const = 0;

  /// Whether offer()/offer_batch() may be called from several threads
  /// concurrently. The paper detectors (GBF/TBF/SBF) are single-threaded
  /// filters and say no; ShardedDetector serializes internally (per-shard
  /// locks) and overrides this to yes. Callers
  /// that fan ingest across threads (the multi-loop server) consult this
  /// to decide whether offers need external serialization.
  virtual bool concurrent_offers() const noexcept { return false; }

  /// Restores the freshly-constructed state.
  virtual void reset() = 0;

  /// Whether this detector implements a snapshot format (save()/restore()
  /// below). Callers that will need checkpoints later — ppcd with
  /// --snapshot, any drain-time saver — should consult this UP FRONT and
  /// fail with a clear error at configuration time, not mid-drain after
  /// hours of ingest. Baselines without a format return false.
  virtual bool supports_snapshots() const noexcept { return false; }

  /// Serializes the complete detector state (parameters + filter payload)
  /// so a billing replica can checkpoint and resume mid-stream. Detectors
  /// without a snapshot format (supports_snapshots() == false) throw
  /// std::runtime_error naming the backend.
  virtual void save(std::ostream&) const {
    throw std::runtime_error("backend " + name() +
                             " does not support snapshots (save)");
  }

  /// Restores state saved by save() INTO THIS INSTANCE. The snapshot's
  /// window spec and construction options must match this detector's —
  /// a mismatch throws std::runtime_error and the call has no effect.
  /// Corrupt input also throws; after a mid-read failure the detector is
  /// in an unspecified (but memory-safe) state — reset() or discard it.
  virtual void restore(std::istream&) {
    throw std::runtime_error("backend " + name() +
                             " does not support snapshots (restore)");
  }

  /// Routes memory-operation accounting into `ops` (nullptr disables).
  /// Virtual so wrappers can redirect accounting (ShardedDetector keeps a
  /// counter per shard instead of racing threads on one struct).
  virtual void set_op_counter(OpCounter* ops) noexcept { ops_ = ops; }

 protected:
  DuplicateDetector() = default;

  /// Implementation hook for offer() (non-virtual interface idiom, so the
  /// defaulted-time convenience call is never hidden by overriders).
  virtual bool do_offer(ClickId id, std::uint64_t time_us) = 0;

  OpCounter* ops_ = nullptr;  ///< optional instrumentation sink.
};

}  // namespace ppc::core
