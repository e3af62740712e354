// Warm-standby replication over the framed wire (protocol version 3).
//
// The primary retains every click batch its sink accepted in a bounded,
// sequence-numbered ring (ReplicationLog) and streams the entries to
// followers as REPL_BATCH frames (ReplicationSource). A follower replays
// them through an identical deterministic sink (ReplicationApplier driven
// by ReplicationFollower), so its detector state is bit-identical to the
// primary's BY CONSTRUCTION: every backend is a pure function of the
// arrival stream, and the ring preserves the exact order the primary's
// sink saw (appends happen under the same mutex as the offers).
//
// Catch-up handshake: the follower presents the first sequence it still
// needs (REPL_HELLO). If the ring still holds it, the primary replays from
// the ring; if the ring has rotated past it, the primary captures a sink
// snapshot at a quiesced cut (IngestServer::replication_snapshot) and
// ships it as chunked REPL_SNAPSHOT frames — the snapshot's state equals
// batches [1, base_seq) applied, so the follower restores it and resumes
// from base_seq. Every fault (killed connection, truncated frame, stalled
// link) heals through this same handshake on reconnect; the fault-injection
// suite in tests/replication_test.cpp proves drain snapshots stay
// byte-identical across all of them.
//
// Offer boundaries are part of the stream: EnforcingSink decides a whole
// batch before it observes any of its verdicts, so its state depends on
// how the clicks were chunked into sink calls, not only on their order.
// The ring therefore keeps them: the primary offers in the same
// <= kMaxClicksPerBatch chunks it appends (IngestServer), one ring entry
// is one primary offer call, and the applier replays each entry as one
// sink call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/ingest_server.hpp"
#include "server/wire.hpp"

namespace ppc::server {

/// Bounded sequence-numbered ring of accepted click batches. Appends come
/// from the ingest flush path (already serialized by IngestServer's sink
/// mutex); reads come from ReplicationSource session threads. Entries are
/// packed wire-format ClickRecordV2 records (24 bytes/click, source_ip 0
/// for v1-ingested clicks) so the source streams them without
/// re-interleaving. Sequences start at `start_seq` (1 for a fresh primary)
/// and never reuse; when a bound is exceeded the OLDEST entries are
/// evicted — a follower that still needs them falls back to the snapshot
/// catch-up path.
class ReplicationLog {
 public:
  struct Options {
    std::size_t max_batches = 4096;
    std::size_t max_bytes = std::size_t{256} * 1024 * 1024;
    /// Sequence the first append receives. A primary that restored a
    /// baseline snapshot before listening must start at 2: the baseline
    /// stands in for sequence 1, already evicted, so a fresh follower's
    /// cursor (1) falls below first_seq() and takes the snapshot
    /// catch-up path — ring replay alone could never deliver the
    /// restored state.
    std::uint64_t start_seq = 1;
  };

  struct Batch {
    std::uint64_t seq = 0;
    std::uint32_t count = 0;
    std::vector<std::uint8_t> records;  ///< count * kClickRecordV2Bytes
  };

  ReplicationLog() : ReplicationLog(Options{}) {}
  explicit ReplicationLog(Options opts);

  ReplicationLog(const ReplicationLog&) = delete;
  ReplicationLog& operator=(const ReplicationLog&) = delete;

  /// Appends `ids.size()` clicks in sink-offer order, splitting into ring
  /// entries of at most wire::kMaxClicksPerBatch clicks. `sources` may be
  /// empty (v1-only callers): the packed records then carry source_ip 0,
  /// exactly what the primary's own sink saw. Caller must serialize
  /// appends (IngestServer holds its sink mutex across offer + append, so
  /// ring order == sink order).
  void append(std::span<const std::uint32_t> ad_ids,
              std::span<const std::uint64_t> ids,
              std::span<const std::uint64_t> times,
              std::span<const std::uint32_t> sources);

  /// Oldest sequence still in the ring (== next_seq() when empty).
  std::uint64_t first_seq() const;
  /// Sequence the next append will receive; batch s exists iff
  /// first_seq() <= s < next_seq().
  std::uint64_t next_seq() const;

  /// Copies batch `seq` into `out`. False when the ring no longer (or does
  /// not yet) hold it — distinguish via first_seq()/next_seq().
  bool get(std::uint64_t seq, Batch& out) const;

  /// Blocks until batch `seq` exists (next_seq() > seq), the log is
  /// closed, or `timeout_ms` elapses. Returns whether the batch exists.
  bool wait_for(std::uint64_t seq, int timeout_ms) const;

  /// Wakes every waiter permanently (shutdown).
  void close();
  bool closed() const;

  std::uint64_t appended_clicks() const;
  std::uint64_t evicted_batches() const;
  std::size_t bytes() const;

 private:
  void evict_locked();

  Options opts_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::deque<Batch> batches_;
  std::uint64_t next_seq_;  ///< set from Options::start_seq
  std::uint64_t appended_clicks_ = 0;
  std::uint64_t evicted_batches_ = 0;
  std::size_t bytes_ = 0;
  bool closed_ = false;
};

/// The primary's replication listener: accepts follower connections on a
/// dedicated port and streams ring entries to each, serving the catch-up
/// handshake (ring replay or chunked snapshot) per session. One thread per
/// follower; blocking sends give natural backpressure per follower without
/// touching the ingest path.
class ReplicationSource {
 public:
  /// `snapshot_fn` captures a sink snapshot at a quiesced cut and returns
  /// its file-envelope bytes, setting `base_seq` to the first sequence NOT
  /// contained in it (wire IngestServer::replication_snapshot here).
  using SnapshotFn = std::function<std::string(std::uint64_t& base_seq)>;

  ReplicationSource(ReplicationLog& log, SnapshotFn snapshot_fn);
  ~ReplicationSource();

  ReplicationSource(const ReplicationSource&) = delete;
  ReplicationSource& operator=(const ReplicationSource&) = delete;

  /// Binds the replication listener; 0 resolves an ephemeral port.
  std::uint16_t listen(const std::string& host, std::uint16_t port);
  /// Starts the accept thread (listen() first).
  void start();
  /// Stops accepting, tears down every session, joins all threads.
  /// Idempotent.
  void stop();

  std::uint16_t port() const noexcept { return port_; }

  /// Blocks until every live follower session has acknowledged `seq`, or
  /// `timeout_ms` elapses. Vacuously true when no follower is connected —
  /// the primary's graceful drain must not hang on an absent standby.
  bool wait_followers_caught_up(std::uint64_t seq, int timeout_ms) const;

  std::size_t sessions_accepted() const {
    return sessions_accepted_.load(std::memory_order_relaxed);
  }

  /// Sessions whose thread/fd are still held (live followers plus any
  /// finished session the accept loop has not reaped yet). Bounded: the
  /// accept loop reaps finished sessions every poll round, so a flapping
  /// follower cannot accumulate fds or zombie threads.
  std::size_t sessions_live() const;

  /// Handshakes refused because the follower's cursor was ahead of the
  /// ring (a standby re-pointed at a restarted or wrong primary).
  std::uint64_t future_cursor_refusals() const {
    return future_cursor_refusals_.load(std::memory_order_relaxed);
  }

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
    std::atomic<std::uint64_t> acked{0};
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_session(Session& s);
  void reap_finished_sessions();

  ReplicationLog& log_;
  SnapshotFn snapshot_fn_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;
  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<std::size_t> sessions_accepted_{0};
  std::atomic<std::uint64_t> future_cursor_refusals_{0};
};

/// Pure replication state machine on the follower side: feeds REPL_BATCH
/// clicks into the sink in order (strict sequence check) and reassembles /
/// restores REPL_SNAPSHOT chunks. No sockets — ReplicationFollower pumps
/// it from the wire, and the fuzz suite drives it directly with forged
/// frames to pin down the named-field refusals.
class ReplicationApplier {
 public:
  explicit ReplicationApplier(ClickSink& sink) : sink_(sink) {}

  ReplicationApplier(const ReplicationApplier&) = delete;
  ReplicationApplier& operator=(const ReplicationApplier&) = delete;

  /// Applies one decoded replication frame. False = protocol violation
  /// (`error` names the field); the connection must be dropped and the
  /// handshake restarted — the applier itself stays at its last
  /// consistent cursor.
  bool on_frame(wire::FrameType type, std::span<const std::uint8_t> payload,
                std::string& error);

  // The applier itself runs single-threaded (the follower's pump thread),
  // but its counters are read from OTHER threads — ppcd's standby loop
  // prints them on promote/drain and the fault-injection tests poll them
  // for convergence — so they are relaxed atomics.

  /// First sequence not yet applied (what REPL_HELLO presents).
  std::uint64_t next_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  std::uint64_t clicks_applied() const {
    return clicks_applied_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches_applied() const {
    return batches_applied_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshots_applied() const {
    return snapshots_applied_.load(std::memory_order_relaxed);
  }
  bool in_snapshot() const {
    return in_snapshot_.load(std::memory_order_relaxed);
  }

  /// Forgets a half-received snapshot (connection dropped mid-transfer);
  /// the cursor stays at the last consistent sequence.
  void reset_transfer();

 private:
  bool on_batch(std::span<const std::uint8_t> payload, std::string& error);
  bool on_snapshot(std::span<const std::uint8_t> payload, std::string& error);

  ClickSink& sink_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> clicks_applied_{0};
  std::atomic<std::uint64_t> batches_applied_{0};
  std::atomic<std::uint64_t> snapshots_applied_{0};

  std::atomic<bool> in_snapshot_{false};
  std::uint64_t snap_base_seq_ = 0;
  std::uint32_t snap_next_chunk_ = 0;
  std::uint32_t snap_chunk_count_ = 0;
  std::string snap_bytes_;

  // Deinterleave scratch, reused across batches.
  std::vector<std::uint32_t> ads_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::uint64_t> times_;
  std::vector<std::uint32_t> sources_;
  std::vector<char> verdicts_;  ///< recomputed locally, then discarded
};

/// The follower's wire pump: connects to the primary's replication
/// listener, performs the HELLO(v3) + REPL_HELLO handshake, and feeds
/// every frame to the applier, acknowledging applied sequences. Any
/// failure — connection refused, mid-frame truncation, CRC damage, an
/// applier refusal — drops the connection and retries the handshake from
/// the applier's cursor, which is exactly the catch-up path; a follower
/// therefore converges through arbitrary link faults. Reconnects back off
/// exponentially (20 ms doubling to 1 s) while no frame applies, and the
/// delay resets as soon as one does, so a dead or refusing primary is not
/// hammered but recovery after a transient fault stays fast.
class ReplicationFollower {
 public:
  ReplicationFollower(std::string host, std::uint16_t port,
                      ReplicationApplier& applier);
  ~ReplicationFollower();

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  void start();
  /// Stops the pump (wakes any blocking recv) and joins. Idempotent.
  void stop();

  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Last applier refusal or socket error (for diagnostics / tests).
  std::string last_error() const;

 private:
  void run();

  std::string host_;
  std::uint16_t port_;
  ReplicationApplier& applier_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread thread_;
  mutable std::mutex mu_;  ///< guards client_ connect/close vs stop()
  BlockingClient client_;
  std::atomic<std::uint64_t> reconnects_{0};
  mutable std::mutex err_mu_;
  std::string last_error_;
};

}  // namespace ppc::server
