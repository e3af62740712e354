// IngestServer: the click-stream service on top of EventLoop + wire.hpp.
//
// The server runs Options::loops event loops, each with its own
// SO_REUSEPORT listener on the shared port (the kernel balances accepted
// connections across them) and each with its own private decode state, so
// a loop thread never takes a lock on the frame path. CLICK_BATCH frames
// are recorded ZERO-COPY: the handler validates the frame, then remembers
// {connection, byte offset, count} — the click records stay in the
// connection's receive buffer (pinned against compaction, re-resolved by
// offset so buffer growth cannot dangle a pointer) until the flush
// deinterleaves them straight into the flat columns offer_batch consumes.
// Verdict frames are encoded into a per-loop arena and handed to the
// socket with writev (EventLoop::send_vectored), skipping the per-frame
// reply-buffer copy.
//
// The batch is flushed through a ClickSink once it reaches
// Options::flush_clicks, and at the end of every dispatch round so latency
// never exceeds one epoll iteration. With a ShardedDetector (or a
// DetectorPool of them) behind the sink, loop threads offer concurrently
// and only contend on the per-shard locks of the shards they share. Sinks
// that are NOT safe for concurrent offers
// (ClickSink::concurrent() == false) are serialized behind one mutex when
// loops > 1; single-loop servers never touch that mutex.
//
// Ordering guarantees: clicks of one connection reach the sink in exactly
// the order sent (a connection lives on one loop for its whole life,
// frames are parsed FIFO, the pending records preserve append order, and a
// frame is never split across flushes). Clicks of DIFFERENT connections
// interleave arbitrarily; clients that need replay-exact verdicts keep
// each identifier population on one connection (the load generator gives
// each connection its own ad for this reason).
//
// Shutdown is a cross-loop quiesce: stop() halts every loop, run() joins
// the loop threads, and only then does drain() flush each loop's pending
// batch, push the final reply bytes with blocking writes, and (optionally)
// write the sink snapshot — single-threaded by construction, so the
// snapshot is atomic across loops and DRAIN_ACK totals stay exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "adnet/tiered_detector_pool.hpp"
#include "core/duplicate_detector.hpp"
#include "server/event_loop.hpp"
#include "server/wire.hpp"

namespace ppc::server {

class ReplicationLog;  // server/replication.hpp

/// Where decoded clicks go. `out[i]` must be set to true iff click i is a
/// duplicate. Implementations advertise via concurrent() whether offer()
/// may be driven from several loop threads at once; when it may not, the
/// multi-loop server serializes offers externally.
class ClickSink {
 public:
  virtual ~ClickSink() = default;
  virtual void offer(std::span<const std::uint32_t> ad_ids,
                     std::span<const core::ClickId> ids,
                     std::span<const std::uint64_t> times,
                     std::span<bool> out) = 0;

  /// Source-aware variant fed by CLICK_BATCH_V2 frames: `sources[i]` is the
  /// click's origin IPv4 address, 0 when the client did not send one (every
  /// v1 frame). The default drops the column — only enforcement-aware sinks
  /// care. `out[i]` true means duplicate OR rejected by enforcement; the
  /// wire does not distinguish (both are "don't pay for this click").
  virtual void offer_with_sources(std::span<const std::uint32_t> ad_ids,
                                  std::span<const core::ClickId> ids,
                                  std::span<const std::uint64_t> times,
                                  std::span<const std::uint32_t> /*sources*/,
                                  std::span<bool> out) {
    offer(ad_ids, ids, times, out);
  }

  virtual std::string describe() const = 0;

  /// Whether offer() tolerates concurrent callers (thread-safe detectors
  /// all the way down). Defaults to no — the safe answer for the plain
  /// paper detectors.
  virtual bool concurrent() const { return false; }

  /// Whether save_state()/restore_state() are implemented all the way down
  /// to the detectors. IngestServer consults this at CONSTRUCTION time when
  /// a snapshot path is configured, so an operator pairing --snapshot with
  /// a snapshot-less backend hears about it before serving a single click —
  /// not from a drain-time throw after hours of ingest.
  virtual bool supports_snapshots() const noexcept { return false; }

  /// Serializes the sink's detector state (see save_sink_snapshot below for
  /// the file envelope + atomic-write protocol). Call only while no clicks
  /// are being offered — after run() returned and the pending batch flushed.
  virtual void save_state(std::ostream&) const {
    throw std::runtime_error("backend " + describe() +
                             " does not support snapshots (save)");
  }
  /// Restores state saved by save_state() into this sink's detectors; the
  /// sink configuration must match the saving sink's (mismatches throw).
  virtual void restore_state(std::istream&) {
    throw std::runtime_error("backend " + describe() +
                             " does not support snapshots (restore)");
  }

  /// Operational accounting behind the wire STATS frame. Sinks fill what
  /// they know (memory, tier populations); when the totals come back zero
  /// the server backfills clicks/duplicates from its own counters. Must be
  /// safe to call from any loop thread while offers run elsewhere.
  virtual wire::StatsReport stats_report() const { return {}; }
};

/// Feeds one detector shared by every ad (ad ids ignored) through the
/// timed offer_batch — the natural sink for a single (possibly sharded)
/// detector serving one identifier population.
class DetectorSink final : public ClickSink {
 public:
  explicit DetectorSink(core::DuplicateDetector& detector)
      : detector_(detector) {}
  void offer(std::span<const std::uint32_t> /*ad_ids*/,
             std::span<const core::ClickId> ids,
             std::span<const std::uint64_t> times,
             std::span<bool> out) override {
    detector_.offer_batch(ids, times, out);
  }
  std::string describe() const override { return detector_.name(); }
  bool concurrent() const override { return detector_.concurrent_offers(); }
  bool supports_snapshots() const noexcept override {
    return detector_.supports_snapshots();
  }
  void save_state(std::ostream& out) const override { detector_.save(out); }
  void restore_state(std::istream& in) override { detector_.restore(in); }
  wire::StatsReport stats_report() const override {
    wire::StatsReport r;
    r.memory_bits = detector_.memory_bits();
    return r;
  }

 private:
  core::DuplicateDetector& detector_;
};

/// Routes clicks by ad id through an adnet::DetectorPool (per-ad windows,
/// per-ad detectors) with per-click timestamps.
class PoolSink final : public ClickSink {
 public:
  /// `concurrent_detectors` asserts that the pool's factory builds
  /// individually thread-safe detectors (e.g. core::ShardedDetector): the
  /// pool's map is internally locked either way, but per-ad detectors are
  /// not, so concurrent offers for one ad are only safe when the detector
  /// itself is.
  explicit PoolSink(adnet::DetectorPool& pool,
                    runtime::ThreadPool* fanout = nullptr,
                    bool concurrent_detectors = false)
      : pool_(pool), fanout_(fanout),
        concurrent_detectors_(concurrent_detectors) {}
  void offer(std::span<const std::uint32_t> ad_ids,
             std::span<const core::ClickId> ids,
             std::span<const std::uint64_t> times,
             std::span<bool> out) override {
    pool_.offer_batch(ad_ids, ids, times, out, fanout_);
  }
  std::string describe() const override {
    return "DetectorPool[" + std::to_string(pool_.size()) + " ads]";
  }
  bool concurrent() const override {
    // A shared fan-out pool would have two loops pushing groups into the
    // same worker queue mid-batch; keep that combination serialized.
    return concurrent_detectors_ && fanout_ == nullptr;
  }
  /// The pool's sectioned format always exists; whether each per-ad
  /// detector can serialize depends on the pool's factory. Every factory
  /// the serving stack wires up (server_config build_detector backends)
  /// is snapshot-capable, so advertise support here; a factory that
  /// builds a snapshot-less baseline still fails loudly inside save().
  bool supports_snapshots() const noexcept override { return true; }
  void save_state(std::ostream& out) const override { pool_.save(out); }
  void restore_state(std::istream& in) override { pool_.restore(in); }
  wire::StatsReport stats_report() const override {
    wire::StatsReport r;
    r.memory_bits = pool_.memory_bits();
    r.memory_cap_bits = pool_.memory_cap_bits();
    r.hot_ads = pool_.size();  // every pooled ad is a dedicated detector
    r.hot_memory_bits = r.memory_bits;
    return r;
  }

 private:
  adnet::DetectorPool& pool_;
  runtime::ThreadPool* fanout_;
  bool concurrent_detectors_;
};

/// Routes clicks through an adnet::TieredDetectorPool — the open-admission
/// hot/tail pool. Offers are serialized by the pool's internal mutex, so
/// the sink reports concurrent() == false and lets the multi-loop server's
/// external mutex stand down to just one layer of locking.
class TieredPoolSink final : public ClickSink {
 public:
  explicit TieredPoolSink(adnet::TieredDetectorPool& pool) : pool_(pool) {}
  void offer(std::span<const std::uint32_t> ad_ids,
             std::span<const core::ClickId> ids,
             std::span<const std::uint64_t> times,
             std::span<bool> out) override {
    pool_.offer_batch(ad_ids, ids, times, out);
  }
  std::string describe() const override {
    return "TieredDetectorPool[" + std::to_string(pool_.stats().hot_ads) +
           " hot ads + shared tail]";
  }
  bool supports_snapshots() const noexcept override { return true; }
  void save_state(std::ostream& out) const override { pool_.save(out); }
  void restore_state(std::istream& in) override { pool_.restore(in); }
  wire::StatsReport stats_report() const override {
    const adnet::TierStats s = pool_.stats();
    wire::StatsReport r;
    r.clicks = s.clicks;
    r.duplicates = s.duplicates;
    r.memory_bits = s.memory_bits;
    r.memory_cap_bits = s.memory_cap_bits;
    r.hot_ads = s.hot_ads;
    r.hot_memory_bits = s.hot_memory_bits;
    r.hot_clicks = s.hot_clicks;
    r.hot_duplicates = s.hot_duplicates;
    r.tail_memory_bits = s.tail_memory_bits;
    r.tail_clicks = s.tail_clicks;
    r.tail_duplicates = s.tail_duplicates;
    r.promotions = s.promotions;
    r.demotions = s.demotions;
    r.promotion_deferrals = s.promotion_deferrals;
    r.hot_target_fpr = s.hot_target_fpr;
    r.tail_target_fpr = s.tail_target_fpr;
    return r;
  }

 private:
  adnet::TieredDetectorPool& pool_;
};

class IngestServer final {
 public:
  struct Options {
    /// Flush the coalesced pending batch once it holds this many clicks
    /// (it also flushes at the end of every dispatch round regardless).
    std::size_t flush_clicks = 16384;
    /// Event loops, each with its own SO_REUSEPORT listener and thread.
    /// 1 keeps the classic single-threaded server (no SO_REUSEPORT, no
    /// sink mutex). Loops > 1 require run() to be the only driver.
    std::size_t loops = 1;
    /// When non-empty, drain() writes the sink's detector state here
    /// (atomically: temp file + fsync + rename) after the final flush —
    /// the SIGTERM snapshot-on-drain path. A failed write throws out of
    /// drain() AFTER all verdicts were delivered.
    std::string snapshot_path;
    /// When set, every flushed batch is appended to this ring (in sink
    /// order) for streaming to warm-standby followers. Replication forces
    /// offers onto the sink mutex even for concurrent sinks: the ring
    /// needs the one total click order the followers will replay, and
    /// replication_snapshot() needs a lock that quiesces offers. Requires
    /// a snapshot-capable sink (ring rotation falls back to snapshots).
    ReplicationLog* replication = nullptr;
    EventLoop::Options loop;
  };

  struct Stats {
    std::uint64_t clicks = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t click_frames = 0;
    std::uint64_t flushes = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t pings = 0;
    std::uint64_t drains = 0;
  };

  explicit IngestServer(ClickSink& sink) : IngestServer(sink, Options{}) {}
  IngestServer(ClickSink& sink, Options opts);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds every loop's listener; returns the bound port (0 in →
  /// ephemeral out; the remaining loops then bind the resolved port with
  /// SO_REUSEPORT).
  std::uint16_t listen(const std::string& host, std::uint16_t port);

  /// Serves until stop(). Runs loop 0 on the calling thread and spawns one
  /// thread per additional loop; returns once every loop has stopped and
  /// its thread joined (rethrowing the first loop failure, if any).
  void run();

  /// Async-signal-safe shutdown request (one eventfd write per loop).
  void stop() noexcept;

  /// After run() returns: flush every loop's pending batch so each
  /// accepted click has a verdict, push remaining reply bytes out with
  /// blocking writes, write the sink snapshot if Options::snapshot_path is
  /// set, and return the final totals — the SIGTERM graceful-drain path.
  /// Single-threaded: every loop thread has already joined, which is the
  /// cross-loop quiesce barrier that makes the snapshot atomic.
  Stats drain(int flush_timeout_ms = 2000);

  /// Writes `sink`'s state to `path` atomically: the payload is wrapped in
  /// a versioned CRC-checked file envelope (core/snapshot_io.hpp
  /// `kServerSnapshotMagic`), written to `path + ".tmp"`, fsync'd, and
  /// renamed over `path` — a crash mid-write leaves the previous snapshot
  /// intact. Throws std::runtime_error (with errno text) on any failure.
  static void save_sink_snapshot(const ClickSink& sink,
                                 const std::string& path);

  /// Loads a snapshot written by save_sink_snapshot into `sink`, validating
  /// the file envelope (magic/version/length/CRC, no trailing bytes) before
  /// any detector state is touched. Mismatched sink configuration or a
  /// corrupt file throws std::runtime_error.
  static void restore_sink_snapshot(ClickSink& sink, const std::string& path);
  /// Stream variant of restore_sink_snapshot (tests; `what` names the
  /// source in errors).
  static void restore_sink_snapshot(ClickSink& sink, std::istream& in);

  /// Captures the sink's state as snapshot-file bytes at a quiesced cut:
  /// offers are frozen (sink mutex — see Options::replication) while the
  /// state is serialized and `base_seq` reads the ring's next sequence, so
  /// the returned snapshot equals exactly batches [1, base_seq) applied.
  /// Only valid when Options::replication is set; safe to call from a
  /// ReplicationSource session thread while the server runs.
  std::string replication_snapshot(std::uint64_t& base_seq);

  Stats stats() const noexcept {
    return {clicks_.load(std::memory_order_relaxed),
            duplicates_.load(std::memory_order_relaxed),
            click_frames_.load(std::memory_order_relaxed),
            flushes_.load(std::memory_order_relaxed),
            protocol_errors_.load(std::memory_order_relaxed),
            pings_.load(std::memory_order_relaxed),
            drains_.load(std::memory_order_relaxed)};
  }
  /// Aggregated socket-level stats, summed across loops.
  EventLoop::Stats loop_stats() const noexcept;
  /// Socket-level stats of one loop (0 <= loop < loops()).
  EventLoop::Stats loop_stats(std::size_t loop) const noexcept;
  std::size_t loops() const noexcept;
  std::uint16_t port() const noexcept;

 private:
  class LoopWorker;

  void offer_to_sink(std::span<const std::uint32_t> ad_ids,
                     std::span<const core::ClickId> ids,
                     std::span<const std::uint64_t> times,
                     std::span<bool> out);
  void offer_to_sink(std::span<const std::uint32_t> ad_ids,
                     std::span<const core::ClickId> ids,
                     std::span<const std::uint64_t> times,
                     std::span<const std::uint32_t> sources,
                     std::span<bool> out);

  ClickSink& sink_;
  Options opts_;
  bool serialize_offers_ = false;  ///< loops > 1 and sink not concurrent
  std::mutex sink_mu_;             ///< guards offers when serialize_offers_
  std::vector<std::unique_ptr<LoopWorker>> workers_;

  std::atomic<std::uint64_t> clicks_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> click_frames_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> pings_{0};
  std::atomic<std::uint64_t> drains_{0};
};

}  // namespace ppc::server
