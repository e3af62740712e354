// DuplicateDetector: the public interface every duplicate-click detection
// algorithm in this library implements (the paper's GBF and TBF, plus all
// related-work baselines).
//
// Semantics follow Definition 1 of the paper: offer() returns true iff an
// identical click was already accepted as *valid* inside the current
// decaying window. A click reported non-duplicate is atomically recorded as
// valid. Detectors are single-stream objects; wrap one per ad (or per
// identifier policy) and feed clicks in arrival order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>

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
  /// `time_us` is the click's (monotone non-decreasing) timestamp; count-
  /// based detectors ignore it. Time-based detectors use it to advance and
  /// expire window state before classifying the click.
  bool offer(ClickId id, std::uint64_t time_us = 0) {
    return do_offer(id, time_us);
  }

  /// Processes a micro-batch sharing one timestamp; verdicts land in
  /// `out[i]` for `ids[i]` (out.size() ≥ ids.size()). Semantically
  /// identical to offering in a loop; detectors override it to pipeline
  /// hash computation and memory prefetch across elements.
  ///
  /// Time-based callers beware: stamping a whole micro-batch with one
  /// time_us coarsens window expiry to batch granularity. When real
  /// per-click timestamps exist, use the `times` overload below — it is
  /// the one whose verdicts match a sequential replay exactly.
  virtual void offer_batch(std::span<const ClickId> ids, std::span<bool> out,
                           std::uint64_t time_us = 0) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out[i] = offer(ids[i], time_us);
    }
  }

  /// Processes a micro-batch with PER-CLICK timestamps: verdict-for-verdict
  /// identical to `offer(ids[i], times[i])` in a loop (times.size() ≥
  /// ids.size(), monotone non-decreasing like offer()'s contract;
  /// count-based detectors ignore it). This is the batch entry point for
  /// time-based windows — the scalar-time overload above collapses a whole
  /// batch onto one timestamp, which this one does not.
  virtual void offer_batch(std::span<const ClickId> ids,
                           std::span<const std::uint64_t> times,
                           std::span<bool> out) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out[i] = offer(ids[i], times[i]);
    }
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
