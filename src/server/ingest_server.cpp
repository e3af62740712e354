#include "server/ingest_server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/snapshot_io.hpp"
#include "server/replication.hpp"

namespace ppc::server {

// ---------------------------------------------------------------------------
// LoopWorker: one event loop plus the decode/flush state private to it.
// Every member below is touched only by the loop's thread while run() is
// live, and only by the drain caller afterwards (the thread join in run()
// is the happens-before edge between the two).

class IngestServer::LoopWorker final : public ConnectionHandler {
 public:
  LoopWorker(IngestServer& srv, std::uint32_t loop_id)
      : srv_(srv), loop_id_(loop_id), loop_(*this, srv.opts_.loop) {}

  EventLoop& loop() noexcept { return loop_; }
  const EventLoop& loop() const noexcept { return loop_; }

  // ConnectionHandler (loop thread only):
  bool on_data(Connection& conn, std::string& why) override;
  void on_close(Connection& conn, const std::string& reason) override;
  void on_round_end() override { flush_pending(); }

  /// Offers the pending clicks, scatters verdict/drain-ack frames back per
  /// connection (writev), and releases the pinned receive buffers. Runs on
  /// the loop thread during service and on the drain caller afterwards.
  void flush_pending();

 private:
  /// One frame awaiting a reply, in FIFO arrival order across the loop's
  /// connections. A CLICK_BATCH entry records `count` click records
  /// starting `rbuf_offset` bytes into connection `conn_id`'s receive
  /// buffer (the buffer is held, so the offset stays valid until the
  /// flush). A DRAIN entry (drain_ack == true, count == 0) marks where the
  /// DRAIN_ACK belongs relative to the verdicts around it.
  struct PendingReply {
    std::uint64_t conn_id;
    std::uint64_t seq;
    std::uint32_t count;
    std::size_t rbuf_offset;
    std::size_t flat_offset;  ///< assigned during flush pass 1
    bool drain_ack;
    bool v2;  ///< records are 24-byte ClickRecordV2 (carry source IPs)
  };

  /// One encoded reply frame in arena_, owed to conn_id. Offsets, not
  /// pointers: the arena reallocates while frames are appended.
  struct Segment {
    std::uint64_t conn_id;
    std::size_t off;
    std::size_t len;
  };

  bool handle_frame(Connection& conn, const wire::FrameView& frame,
                    std::string& why);

  IngestServer& srv_;
  std::uint32_t loop_id_;
  EventLoop loop_;

  std::vector<PendingReply> pending_replies_;
  std::size_t pending_clicks_ = 0;
  bool flush_requested_ = false;  ///< a DRAIN wants its ack this round
  std::vector<std::uint64_t> held_conns_;  ///< conns with pinned rbufs

  // Flush scratch, reused across flushes to stay allocation-free at
  // steady state.
  std::vector<std::uint32_t> ads_;
  std::vector<core::ClickId> ids_;
  std::vector<std::uint64_t> times_;
  std::vector<std::uint32_t> sources_;  ///< 0 for v1 spans
  std::vector<char> verdicts_;            ///< bool-compatible storage
  std::vector<std::uint8_t> arena_;       ///< encoded reply frames
  std::vector<Segment> segments_;
  std::vector<std::uint64_t> conn_order_;
  std::vector<OutSlice> slices_;
  std::vector<std::uint8_t> reply_scratch_;  ///< HELLO_ACK/PONG encoding
};

bool IngestServer::LoopWorker::on_data(Connection& conn, std::string& why) {
  while (true) {
    wire::FrameView frame;
    std::size_t consumed = 0;
    const wire::DecodeStatus status =
        wire::decode_frame(conn.readable(), frame, consumed, why);
    if (status == wire::DecodeStatus::kNeedMore) return true;
    if (status == wire::DecodeStatus::kError) {
      srv_.protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!handle_frame(conn, frame, why)) {
      srv_.protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    conn.consume(consumed);
    // A frame-level flush keeps the pending batch micro-batch sized even
    // when one read() delivers many frames at once; a DRAIN flushes
    // immediately so its ack follows the verdicts it owes.
    if (flush_requested_ || pending_clicks_ >= srv_.opts_.flush_clicks) {
      flush_pending();
    }
  }
}

bool IngestServer::LoopWorker::handle_frame(Connection& conn,
                                            const wire::FrameView& frame,
                                            std::string& why) {
  if (!conn.hello_done && frame.type != wire::FrameType::kHello) {
    why = std::string("expected HELLO, got ") + frame_type_name(frame.type);
    return false;
  }
  switch (frame.type) {
    case wire::FrameType::kHello: {
      std::uint32_t version = 0;
      if (!wire::parse_version(frame.payload, version, why)) return false;
      if (version != wire::kProtocolVersion &&
          version != wire::kProtocolVersionV2 &&
          version != wire::kProtocolVersionV3) {
        why = "unsupported protocol version " + std::to_string(version);
        return false;
      }
      if (conn.hello_done) {
        why = "duplicate HELLO";
        return false;
      }
      conn.hello_done = true;
      conn.wire_version = version;
      reply_scratch_.clear();
      // Echo the offered version: a v1 client keeps the v1 contract, a v2
      // client unlocks CLICK_BATCH_V2 on this connection.
      wire::append_hello_ack(reply_scratch_, version, loop_id_);
      conn.send(reply_scratch_);
      return true;
    }
    case wire::FrameType::kClickBatch: {
      wire::ClickBatchView batch;
      if (!wire::parse_click_batch(frame.payload, batch, why)) return false;
      srv_.click_frames_.fetch_add(1, std::memory_order_relaxed);
      // Zero-copy enqueue: pin the receive buffer and remember where the
      // records sit in it. consume() below only moves the cursor while the
      // buffer is held, and growth reallocations keep prefixes intact, so
      // the offset — unlike a pointer — survives until the flush.
      if (batch.count > 0) {
        if (std::find(held_conns_.begin(), held_conns_.end(), conn.id()) ==
            held_conns_.end()) {
          conn.hold_read_buffer();
          held_conns_.push_back(conn.id());
        }
        pending_clicks_ += batch.count;
      }
      pending_replies_.push_back(
          {conn.id(), batch.seq, batch.count,
           static_cast<std::size_t>(batch.records - conn.buffer_base()),
           /*flat_offset=*/0, /*drain_ack=*/false, /*v2=*/false});
      return true;
    }
    case wire::FrameType::kClickBatchV2: {
      if (conn.wire_version < wire::kProtocolVersionV2) {
        why = "CLICK_BATCH_V2 on a version-1 connection";
        return false;
      }
      wire::ClickBatchV2View batch;
      if (!wire::parse_click_batch_v2(frame.payload, batch, why)) return false;
      srv_.click_frames_.fetch_add(1, std::memory_order_relaxed);
      if (batch.count > 0) {
        if (std::find(held_conns_.begin(), held_conns_.end(), conn.id()) ==
            held_conns_.end()) {
          conn.hold_read_buffer();
          held_conns_.push_back(conn.id());
        }
        pending_clicks_ += batch.count;
      }
      pending_replies_.push_back(
          {conn.id(), batch.seq, batch.count,
           static_cast<std::size_t>(batch.records - conn.buffer_base()),
           /*flat_offset=*/0, /*drain_ack=*/false, /*v2=*/true});
      return true;
    }
    case wire::FrameType::kPing: {
      std::uint64_t token = 0;
      if (!wire::parse_token(frame.payload, token, why)) return false;
      srv_.pings_.fetch_add(1, std::memory_order_relaxed);
      reply_scratch_.clear();
      wire::append_pong(reply_scratch_, token);
      conn.send(reply_scratch_);
      return true;
    }
    case wire::FrameType::kDrain: {
      if (!wire::parse_drain(frame.payload, why)) return false;
      srv_.drains_.fetch_add(1, std::memory_order_relaxed);
      // The ack must follow the verdicts of every click this connection
      // sent before the DRAIN. Enqueueing it as a pending entry keeps that
      // FIFO order through the flush; the flush itself runs right after
      // this frame is consumed (flush_requested_), not here — flushing
      // mid-frame would release buffers the caller's consume() accounting
      // still depends on.
      pending_replies_.push_back(
          {conn.id(), 0, 0, 0, 0, /*drain_ack=*/true, /*v2=*/false});
      flush_requested_ = true;
      return true;
    }
    case wire::FrameType::kStats: {
      if (!wire::parse_stats(frame.payload, why)) return false;
      // Answered immediately like PING (no flush barrier): the report
      // reflects flushed clicks, which is what a sampling dashboard wants.
      wire::StatsReport report = srv_.sink_.stats_report();
      if (report.clicks == 0 && report.duplicates == 0) {
        report.clicks = srv_.clicks_.load(std::memory_order_relaxed);
        report.duplicates = srv_.duplicates_.load(std::memory_order_relaxed);
      }
      reply_scratch_.clear();
      wire::append_stats_ack(reply_scratch_, report);
      conn.send(reply_scratch_);
      return true;
    }
    case wire::FrameType::kHelloAck:
    case wire::FrameType::kVerdictBatch:
    case wire::FrameType::kPong:
    case wire::FrameType::kDrainAck:
    case wire::FrameType::kStatsAck:
      why = std::string("client sent server-only frame ") +
            frame_type_name(frame.type);
      return false;
    case wire::FrameType::kReplHello:
    case wire::FrameType::kReplBatch:
    case wire::FrameType::kReplAck:
    case wire::FrameType::kReplSnapshot:
      // Replication speaks on its own listener (ReplicationSource); the
      // ingest port never mixes the two roles.
      why = std::string("replication frame ") + frame_type_name(frame.type) +
            " on an ingest connection";
      return false;
  }
  why = "unreachable frame type";
  return false;
}

void IngestServer::LoopWorker::on_close(Connection& conn,
                                        const std::string& /*reason*/) {
  // A connection about to be reaped may still back pending spans (it died
  // after queueing clicks but before a flush). Flush now, while its
  // receive buffer is alive: the clicks were accepted into the window, so
  // they must reach the sink; the verdicts owed to the dead connection are
  // computed and dropped (find() no longer returns it).
  for (const PendingReply& r : pending_replies_) {
    if (r.conn_id == conn.id()) {
      flush_pending();
      return;
    }
  }
}

void IngestServer::LoopWorker::flush_pending() {
  flush_requested_ = false;
  if (pending_replies_.empty()) return;
  const std::size_t total = pending_clicks_;
  if (ads_.size() < total) {
    ads_.resize(total);
    ids_.resize(total);
    times_.resize(total);
    sources_.resize(total);
  }
  if (verdicts_.size() < total) verdicts_.resize(total);

  // Pass 1: deinterleave every pending span straight out of its
  // connection's receive buffer into the flat columns. find_any: a
  // connection marked dead this round still owns its buffer until reaped.
  std::size_t n = 0;
  for (PendingReply& r : pending_replies_) {
    r.flat_offset = n;
    if (r.count == 0) continue;
    Connection* conn = loop_.find_any(r.conn_id);
    if (conn == nullptr) {
      // Unreachable in the loop's lifecycle (on_close flushes before the
      // buffer dies); tolerate it by dropping the span rather than reading
      // freed memory.
      r.count = 0;
      continue;
    }
    if (r.v2) {
      wire::deinterleave_clicks_v2(conn->buffer_base() + r.rbuf_offset,
                                   r.count, ads_.data() + n, ids_.data() + n,
                                   times_.data() + n, sources_.data() + n);
    } else {
      wire::deinterleave_clicks(conn->buffer_base() + r.rbuf_offset, r.count,
                                ads_.data() + n, ids_.data() + n,
                                times_.data() + n);
      // v1 records carry no attribution; 0 is the "no source" sentinel an
      // enforcement sink must pass through unexamined.
      std::fill_n(sources_.data() + n, r.count, std::uint32_t{0});
    }
    n += r.count;
  }

  if (n > 0) {
    std::fill_n(verdicts_.data(), n, char{0});
    const std::span<bool> out(reinterpret_cast<bool*>(verdicts_.data()), n);
    srv_.offer_to_sink({ads_.data(), n}, {ids_.data(), n}, {times_.data(), n},
                       {sources_.data(), n}, out);
    srv_.flushes_.fetch_add(1, std::memory_order_relaxed);
  }

  // Pass 2: encode replies into the arena in FIFO order, recording one
  // segment per frame. DRAIN_ACK totals are exact at the drain's position
  // in the stream because earlier entries updated conn->clicks first.
  arena_.clear();
  segments_.clear();
  const bool* out = reinterpret_cast<const bool*>(verdicts_.data());
  std::uint64_t batch_dups = 0;
  for (const PendingReply& r : pending_replies_) {
    Connection* conn = loop_.find(r.conn_id);
    if (r.drain_ack) {
      if (conn == nullptr) continue;
      const std::size_t off = arena_.size();
      wire::append_drain_ack(arena_, conn->clicks, conn->duplicates);
      segments_.push_back({r.conn_id, off, arena_.size() - off});
      continue;
    }
    std::uint64_t frame_dups = 0;
    for (std::uint32_t i = 0; i < r.count; ++i) {
      frame_dups += out[r.flat_offset + i] ? 1 : 0;
    }
    batch_dups += frame_dups;
    if (conn == nullptr) continue;  // verdicts with nowhere to go
    conn->clicks += r.count;
    conn->duplicates += frame_dups;
    const std::size_t off = arena_.size();
    wire::append_verdict_batch(
        arena_, r.seq, std::span<const bool>(out + r.flat_offset, r.count));
    segments_.push_back({r.conn_id, off, arena_.size() - off});
  }
  srv_.clicks_.fetch_add(n, std::memory_order_relaxed);
  srv_.duplicates_.fetch_add(batch_dups, std::memory_order_relaxed);

  // Pass 3: one vectored send per connection, its segments in FIFO order.
  conn_order_.clear();
  for (const Segment& s : segments_) {
    if (std::find(conn_order_.begin(), conn_order_.end(), s.conn_id) ==
        conn_order_.end()) {
      conn_order_.push_back(s.conn_id);
    }
  }
  for (const std::uint64_t cid : conn_order_) {
    slices_.clear();
    for (const Segment& s : segments_) {
      if (s.conn_id == cid) {
        slices_.push_back({arena_.data() + s.off, s.len});
      }
    }
    Connection* conn = loop_.find(cid);
    if (conn != nullptr) loop_.send_vectored(*conn, slices_);
  }

  // Pass 4: unpin the receive buffers (their spans are consumed) so the
  // deferred compaction/reset can reclaim them.
  for (const std::uint64_t cid : held_conns_) {
    Connection* conn = loop_.find_any(cid);
    if (conn != nullptr) conn->release_read_buffer();
  }
  held_conns_.clear();
  pending_replies_.clear();
  pending_clicks_ = 0;
}

// ---------------------------------------------------------------------------
// IngestServer

IngestServer::IngestServer(ClickSink& sink, Options opts)
    : sink_(sink), opts_(opts) {
  if (opts_.flush_clicks == 0) {
    throw std::invalid_argument("IngestServer: flush_clicks must be >= 1");
  }
  if (opts_.loops == 0) {
    throw std::invalid_argument("IngestServer: loops must be >= 1");
  }
  if (!opts_.snapshot_path.empty() && !sink_.supports_snapshots()) {
    // Fail at configuration time, not at drain time: a snapshot-less sink
    // would otherwise serve for hours and then throw exactly when the
    // operator asked for durability.
    throw std::invalid_argument(
        "IngestServer: snapshot_path is set but backend " + sink_.describe() +
        " does not support snapshots");
  }
  if (opts_.replication != nullptr && !sink_.supports_snapshots()) {
    throw std::invalid_argument(
        "IngestServer: replication is configured but backend " +
        sink_.describe() +
        " does not support snapshots (ring-rotation catch-up needs them)");
  }
  // Replication forces the mutex even for concurrent sinks and single
  // loops: ring appends must interleave with offers in ONE total order
  // (the order followers replay), and replication_snapshot() quiesces
  // offers by holding the same mutex.
  serialize_offers_ = (opts_.loops > 1 && !sink_.concurrent()) ||
                      opts_.replication != nullptr;
  workers_.reserve(opts_.loops);
  for (std::size_t i = 0; i < opts_.loops; ++i) {
    workers_.push_back(
        std::make_unique<LoopWorker>(*this, static_cast<std::uint32_t>(i)));
  }
}

IngestServer::~IngestServer() = default;

std::uint16_t IngestServer::listen(const std::string& host,
                                   std::uint16_t port) {
  const bool reuseport = workers_.size() > 1;
  // Loop 0 resolves an ephemeral port; the rest bind the resolved port.
  // SO_REUSEPORT is set on every listener (the first included) — the
  // kernel requires all sharers to have asked for it.
  const std::uint16_t bound = workers_[0]->loop().listen(host, port, reuseport);
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    workers_[i]->loop().listen(host, bound, true);
  }
  return bound;
}

void IngestServer::run() {
  std::mutex err_mu;
  std::exception_ptr err;
  auto drive = [&](std::size_t i) {
    try {
      workers_[i]->loop().run();
    } catch (...) {
      {
        const std::lock_guard<std::mutex> g(err_mu);
        if (!err) err = std::current_exception();
      }
      stop();  // one failed loop takes the whole server down
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers_.size() - 1);
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    threads.emplace_back(drive, i);
  }
  drive(0);
  stop();  // loop 0 returning stops the rest (idempotent)
  for (std::thread& t : threads) t.join();
  if (err) std::rethrow_exception(err);
}

void IngestServer::stop() noexcept {
  for (auto& w : workers_) w->loop().stop();
}

void IngestServer::offer_to_sink(std::span<const std::uint32_t> ad_ids,
                                 std::span<const core::ClickId> ids,
                                 std::span<const std::uint64_t> times,
                                 std::span<const std::uint32_t> sources,
                                 std::span<bool> out) {
  if (serialize_offers_) {
    const std::lock_guard<std::mutex> g(sink_mu_);
    // Appending under the same mutex hold makes ring order identical to
    // sink order — the invariant the followers' bit-identity rests on.
    // Ring entries are capped at kMaxClicksPerBatch, so offer in the same
    // chunks that get appended: followers replay one ring entry per sink
    // call, and offer boundaries are semantic for batch-scoped sinks
    // (EnforcingSink decides a whole batch before observing it).
    if (opts_.replication != nullptr) {
      const std::size_t n = ids.size();
      for (std::size_t off = 0; off < n; off += wire::kMaxClicksPerBatch) {
        const std::size_t m =
            std::min<std::size_t>(n - off, wire::kMaxClicksPerBatch);
        sink_.offer_with_sources(ad_ids.subspan(off, m),
                                 ids.subspan(off, m), times.subspan(off, m),
                                 sources.subspan(off, m),
                                 out.subspan(off, m));
        opts_.replication->append(ad_ids.subspan(off, m),
                                  ids.subspan(off, m),
                                  times.subspan(off, m),
                                  sources.subspan(off, m));
      }
    } else {
      sink_.offer_with_sources(ad_ids, ids, times, sources, out);
    }
  } else {
    sink_.offer_with_sources(ad_ids, ids, times, sources, out);
  }
}

EventLoop::Stats IngestServer::loop_stats() const noexcept {
  EventLoop::Stats sum;
  for (const auto& w : workers_) {
    const EventLoop::Stats s = w->loop().stats();
    sum.accepted += s.accepted;
    sum.closed += s.closed;
    sum.backpressure_pauses += s.backpressure_pauses;
    sum.bytes_in += s.bytes_in;
    sum.bytes_out += s.bytes_out;
  }
  return sum;
}

EventLoop::Stats IngestServer::loop_stats(std::size_t loop) const noexcept {
  return workers_[loop]->loop().stats();
}

std::size_t IngestServer::loops() const noexcept { return workers_.size(); }

std::uint16_t IngestServer::port() const noexcept {
  return workers_[0]->loop().port();
}

IngestServer::Stats IngestServer::drain(int flush_timeout_ms) {
  // Cross-loop quiesce: run() has returned, so every loop thread is
  // joined and this caller is the only thread touching worker state.
  for (auto& w : workers_) w->flush_pending();
  for (auto& w : workers_) w->loop().flush_all_blocking(flush_timeout_ms);
  // Snapshot LAST: every accepted click has its verdict delivered and is
  // inside the saved window state, so a restore resumes exactly where the
  // verdict stream stopped.
  if (!opts_.snapshot_path.empty()) {
    save_sink_snapshot(sink_, opts_.snapshot_path);
  }
  return stats();
}

namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

/// The snapshot-file byte image (envelope + sink state) — what
/// save_sink_snapshot writes to disk and replication_snapshot ships over
/// the wire, byte for byte the same.
std::string encode_sink_snapshot(const ClickSink& sink) {
  std::ostringstream file(std::ios::binary);
  core::detail::write_section(file, core::detail::kServerSnapshotMagic,
                              [&](std::ostream& ps) { sink.save_state(ps); });
  return std::move(file).str();
}

}  // namespace

std::string IngestServer::replication_snapshot(std::uint64_t& base_seq) {
  if (opts_.replication == nullptr) {
    throw std::logic_error(
        "IngestServer: replication_snapshot without a replication log");
  }
  // Every offer path holds sink_mu_ when replication is configured
  // (serialize_offers_), so holding it here freezes the sink AND the ring
  // at one consistent cut: the state below equals exactly the ring
  // sequences [1, base_seq) applied.
  const std::lock_guard<std::mutex> g(sink_mu_);
  base_seq = opts_.replication->next_seq();
  return encode_sink_snapshot(sink_);
}

void IngestServer::save_sink_snapshot(const ClickSink& sink,
                                      const std::string& path) {
  const std::string bytes = encode_sink_snapshot(sink);

  // Atomic publish: write + fsync a sibling temp file, then rename() it
  // over the target — readers see either the old snapshot or the complete
  // new one, never a torn write.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("snapshot: cannot create", tmp);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_errno("snapshot: write failed to", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_errno("snapshot: fsync failed for", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("snapshot: close failed for", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("snapshot: rename failed to", path);
  }
  // Best-effort directory fsync so the rename itself is durable; ignore
  // failure (some filesystems refuse O_RDONLY directory fsync).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void IngestServer::restore_sink_snapshot(ClickSink& sink,
                                         const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("snapshot: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  restore_sink_snapshot(sink, in);
}

void IngestServer::restore_sink_snapshot(ClickSink& sink, std::istream& in) {
  core::detail::read_section(
      in, core::detail::kServerSnapshotMagic, "server snapshot",
      [&](std::istream& ps) {
        // `in` is already past the section: refuse a file with anything
        // after it before the sink is touched.
        if (in.peek() != std::istream::traits_type::eof()) {
          throw std::runtime_error(
              "snapshot: trailing bytes after server snapshot section");
        }
        sink.restore_state(ps);
      });
}

}  // namespace ppc::server
