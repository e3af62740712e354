#include "server/replication.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace ppc::server {

// ---------------------------------------------------------------------------
// ReplicationLog

ReplicationLog::ReplicationLog(Options opts)
    : opts_(opts), next_seq_(opts.start_seq) {
  if (opts_.max_batches == 0) {
    throw std::invalid_argument("ReplicationLog: max_batches must be >= 1");
  }
  if (opts_.max_bytes == 0) {
    throw std::invalid_argument("ReplicationLog: max_bytes must be >= 1");
  }
  if (opts_.start_seq == 0) {
    throw std::invalid_argument("ReplicationLog: start_seq must be >= 1");
  }
}

void ReplicationLog::append(std::span<const std::uint32_t> ad_ids,
                            std::span<const std::uint64_t> ids,
                            std::span<const std::uint64_t> times,
                            std::span<const std::uint32_t> sources) {
  const std::size_t total = ids.size();
  if (total == 0) return;
  const std::lock_guard<std::mutex> g(mu_);
  std::size_t off = 0;
  while (off < total) {
    const std::uint32_t count = static_cast<std::uint32_t>(
        std::min<std::size_t>(total - off, wire::kMaxClicksPerBatch));
    Batch b;
    b.seq = next_seq_++;
    b.count = count;
    b.records.resize(static_cast<std::size_t>(count) *
                     wire::kClickRecordV2Bytes);
    std::uint8_t* p = b.records.data();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t j = off + i;
      wire::set_u32(p, ad_ids[j]);
      wire::set_u64(p + 4, ids[j]);
      wire::set_u64(p + 12, times[j]);
      wire::set_u32(p + 20, sources.empty() ? 0u : sources[j]);
      p += wire::kClickRecordV2Bytes;
    }
    bytes_ += b.records.size();
    batches_.push_back(std::move(b));
    off += count;
  }
  appended_clicks_ += total;
  evict_locked();
  cv_.notify_all();
}

void ReplicationLog::evict_locked() {
  while (batches_.size() > opts_.max_batches || bytes_ > opts_.max_bytes) {
    // Never evict the only entry: a ring that cannot hold one batch could
    // not replay anything and every follower would loop on snapshots.
    if (batches_.size() <= 1) break;
    bytes_ -= batches_.front().records.size();
    batches_.pop_front();
    ++evicted_batches_;
  }
}

std::uint64_t ReplicationLog::first_seq() const {
  const std::lock_guard<std::mutex> g(mu_);
  return batches_.empty() ? next_seq_ : batches_.front().seq;
}

std::uint64_t ReplicationLog::next_seq() const {
  const std::lock_guard<std::mutex> g(mu_);
  return next_seq_;
}

bool ReplicationLog::get(std::uint64_t seq, Batch& out) const {
  const std::lock_guard<std::mutex> g(mu_);
  if (batches_.empty()) return false;
  const std::uint64_t first = batches_.front().seq;
  if (seq < first || seq >= next_seq_) return false;
  out = batches_[static_cast<std::size_t>(seq - first)];
  return true;
}

bool ReplicationLog::wait_for(std::uint64_t seq, int timeout_ms) const {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
               [&] { return closed_ || next_seq_ > seq; });
  return next_seq_ > seq;
}

void ReplicationLog::close() {
  const std::lock_guard<std::mutex> g(mu_);
  closed_ = true;
  cv_.notify_all();
}

bool ReplicationLog::closed() const {
  const std::lock_guard<std::mutex> g(mu_);
  return closed_;
}

std::uint64_t ReplicationLog::appended_clicks() const {
  const std::lock_guard<std::mutex> g(mu_);
  return appended_clicks_;
}

std::uint64_t ReplicationLog::evicted_batches() const {
  const std::lock_guard<std::mutex> g(mu_);
  return evicted_batches_;
}

std::size_t ReplicationLog::bytes() const {
  const std::lock_guard<std::mutex> g(mu_);
  return bytes_;
}

// ---------------------------------------------------------------------------
// ReplicationSource

namespace {

/// Blocking send of the whole buffer; false on any socket error (the
/// session ends — the follower reconnects and catches up).
bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Per-session frame reader over a raw fd, using the production decoder.
/// read_blocking() waits for one frame; drain_nonblocking() consumes
/// whatever already arrived (the ACK stream) without blocking.
class FdFrameReader {
 public:
  explicit FdFrameReader(int fd) : fd_(fd) {}

  enum class Result { kFrame, kWouldBlock, kClosed, kError };

  Result next(bool blocking, wire::FrameView& frame, std::string& error) {
    drop_consumed();
    while (true) {
      std::size_t consumed = 0;
      const wire::DecodeStatus status = wire::decode_frame(
          {buf_.data() + pos_, len_ - pos_}, frame, consumed, error);
      if (status == wire::DecodeStatus::kFrame) {
        last_consumed_ = consumed;
        return Result::kFrame;
      }
      if (status == wire::DecodeStatus::kError) return Result::kError;
      constexpr std::size_t kChunk = 64 * 1024;
      if (buf_.size() < len_ + kChunk) buf_.resize(len_ + kChunk);
      const ssize_t n = ::recv(fd_, buf_.data() + len_, kChunk,
                               blocking ? 0 : MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          return Result::kWouldBlock;
        }
        error = std::strerror(errno);
        return Result::kError;
      }
      if (n == 0) {
        if (len_ > pos_) {
          error = "connection closed mid-frame";
          return Result::kError;
        }
        return Result::kClosed;
      }
      len_ += static_cast<std::size_t>(n);
    }
  }

 private:
  void drop_consumed() {
    pos_ += last_consumed_;
    last_consumed_ = 0;
    if (pos_ >= len_) {
      pos_ = 0;
      len_ = 0;
    } else if (pos_ > len_ / 2 && pos_ > 4096) {
      std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
      len_ -= pos_;
      pos_ = 0;
    }
  }

  int fd_;
  std::vector<std::uint8_t> buf_;
  std::size_t len_ = 0;
  std::size_t pos_ = 0;
  std::size_t last_consumed_ = 0;
};

}  // namespace

ReplicationSource::ReplicationSource(ReplicationLog& log,
                                     SnapshotFn snapshot_fn)
    : log_(log), snapshot_fn_(std::move(snapshot_fn)) {
  if (!snapshot_fn_) {
    throw std::invalid_argument(
        "ReplicationSource: a snapshot function is required (ring rotation "
        "falls back to snapshot catch-up)");
  }
}

ReplicationSource::~ReplicationSource() { stop(); }

std::uint16_t ReplicationSource::listen(const std::string& host,
                                        std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("replication: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("replication: bad listen address " + host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw std::runtime_error("replication: bind " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 16) < 0) {
    throw std::runtime_error(std::string("replication: listen: ") +
                             std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) <
      0) {
    throw std::runtime_error(std::string("replication: getsockname: ") +
                             std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return port_;
}

void ReplicationSource::start() {
  if (listen_fd_ < 0) {
    throw std::logic_error("ReplicationSource: start() before listen()");
  }
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ReplicationSource::stop() {
  if (stop_.exchange(true)) {
    // Second call: everything below already ran (or is running on the
    // first caller's thread).
    return;
  }
  log_.close();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (started_ && accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The accept thread is joined: sessions_ is stable from here.
  for (auto& s : sessions_) {
    if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
  }
  for (auto& s : sessions_) {
    if (s->thread.joinable()) s->thread.join();
    if (s->fd >= 0) {
      ::close(s->fd);
      s->fd = -1;
    }
  }
}

void ReplicationSource::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    reap_finished_sessions();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (pr <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    {
      const std::lock_guard<std::mutex> g(sessions_mu_);
      sessions_.push_back(std::move(session));
    }
    sessions_accepted_.fetch_add(1, std::memory_order_relaxed);
    raw->thread = std::thread([this, raw] {
      serve_session(*raw);
      // The session ended (handshake refused, protocol violation, peer
      // vanished): half-close NOW so the peer sees EOF immediately and
      // can rerun the catch-up handshake, instead of blocking on a
      // half-open socket until stop(). The fd itself stays owned by
      // stop(), which joins this thread before closing it.
      ::shutdown(raw->fd, SHUT_RDWR);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void ReplicationSource::reap_finished_sessions() {
  // Dead sessions must not accumulate: a flapping follower reconnects
  // every backoff interval, and each attempt costs an fd plus a thread
  // until reaped. Runs on the accept thread only — stop() joins that
  // thread before its own (lock-free) sweep, so the two never interleave.
  std::vector<std::unique_ptr<Session>> dead;
  {
    const std::lock_guard<std::mutex> g(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        dead.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join/close outside the lock: `done` is the session thread's last
  // store, so these joins finish immediately.
  for (auto& s : dead) {
    if (s->thread.joinable()) s->thread.join();
    if (s->fd >= 0) {
      ::close(s->fd);
      s->fd = -1;
    }
  }
}

std::size_t ReplicationSource::sessions_live() const {
  const std::lock_guard<std::mutex> g(sessions_mu_);
  return sessions_.size();
}

void ReplicationSource::serve_session(Session& s) {
  FdFrameReader reader(s.fd);
  std::vector<std::uint8_t> out;
  wire::FrameView frame;
  std::string err;

  // Handshake: HELLO(v3) -> HELLO_ACK(v3), then REPL_HELLO with the
  // follower's cursor. Anything else ends the session.
  if (reader.next(true, frame, err) != FdFrameReader::Result::kFrame ||
      frame.type != wire::FrameType::kHello) {
    return;
  }
  std::uint32_t version = 0;
  if (!wire::parse_version(frame.payload, version, err) ||
      version != wire::kProtocolVersionV3) {
    return;
  }
  out.clear();
  wire::append_hello_ack(out, version, 0);
  if (!send_all(s.fd, out)) return;
  if (reader.next(true, frame, err) != FdFrameReader::Result::kFrame ||
      frame.type != wire::FrameType::kReplHello) {
    return;
  }
  std::uint64_t next = 0;
  if (!wire::parse_repl_hello(frame.payload, next, err)) return;
  if (next > log_.next_seq()) {
    // A cursor from some other primary's future (sequences only grow, so
    // one check suffices) — a standby re-pointed at a restarted or wrong
    // primary. Nothing sane to replay: count it, say so once per attempt
    // (the follower's backoff bounds the rate), and drop the session.
    future_cursor_refusals_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "replication: refusing follower cursor %llu ahead of log "
                 "next_seq %llu — is the follower from a different primary "
                 "incarnation?\n",
                 static_cast<unsigned long long>(next),
                 static_cast<unsigned long long>(log_.next_seq()));
    return;
  }

  ReplicationLog::Batch batch;
  while (!stop_.load(std::memory_order_relaxed)) {
    // Drain whatever ACKs already arrived (non-blocking). EOF or damage
    // ends the session; the follower reconnects with a fresh cursor.
    while (true) {
      const FdFrameReader::Result r = reader.next(false, frame, err);
      if (r == FdFrameReader::Result::kWouldBlock) break;
      if (r != FdFrameReader::Result::kFrame) return;
      if (frame.type != wire::FrameType::kReplAck) return;
      std::uint64_t acked = 0;
      if (!wire::parse_repl_ack(frame.payload, acked, err)) return;
      s.acked.store(acked, std::memory_order_relaxed);
    }

    if (log_.get(next, batch)) {
      out.clear();
      wire::append_repl_batch(out, batch.seq, batch.count,
                              batch.records.data());
      if (!send_all(s.fd, out)) return;
      ++next;
      continue;
    }
    if (next < log_.first_seq()) {
      // The ring rotated past this follower: ship a snapshot captured at a
      // quiesced cut and resume from its base. Repeated rotation while the
      // transfer runs simply triggers another snapshot next iteration.
      std::uint64_t base_seq = 0;
      const std::string snap = snapshot_fn_(base_seq);
      const std::size_t chunk_cap = wire::kMaxReplSnapshotChunkBytes;
      const std::uint32_t chunks = static_cast<std::uint32_t>(
          std::max<std::size_t>(1, (snap.size() + chunk_cap - 1) / chunk_cap));
      if (chunks > wire::kMaxReplSnapshotChunks) return;  // > 2 GiB state
      for (std::uint32_t c = 0; c < chunks; ++c) {
        const std::size_t off = static_cast<std::size_t>(c) * chunk_cap;
        const std::size_t len = std::min(chunk_cap, snap.size() - off);
        out.clear();
        wire::append_repl_snapshot(
            out, base_seq, c, chunks,
            {reinterpret_cast<const std::uint8_t*>(snap.data()) + off, len});
        if (!send_all(s.fd, out)) return;
      }
      next = base_seq;
      continue;
    }
    // Caught up: wait (bounded, so stop() is noticed) for the next append.
    log_.wait_for(next, 100);
  }
}

bool ReplicationSource::wait_followers_caught_up(std::uint64_t seq,
                                                int timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    bool all_caught_up = true;
    {
      const std::lock_guard<std::mutex> g(sessions_mu_);
      for (const auto& s : sessions_) {
        if (s->done.load(std::memory_order_acquire)) continue;
        if (s->acked.load(std::memory_order_relaxed) < seq) {
          all_caught_up = false;
          break;
        }
      }
    }
    if (all_caught_up) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ---------------------------------------------------------------------------
// ReplicationApplier

bool ReplicationApplier::on_frame(wire::FrameType type,
                                  std::span<const std::uint8_t> payload,
                                  std::string& error) {
  switch (type) {
    case wire::FrameType::kReplBatch: return on_batch(payload, error);
    case wire::FrameType::kReplSnapshot: return on_snapshot(payload, error);
    default:
      error = std::string("unexpected frame ") + wire::frame_type_name(type) +
              " on a replication connection";
      return false;
  }
}

void ReplicationApplier::reset_transfer() {
  in_snapshot_ = false;
  snap_base_seq_ = 0;
  snap_next_chunk_ = 0;
  snap_chunk_count_ = 0;
  snap_bytes_.clear();
}

bool ReplicationApplier::on_batch(std::span<const std::uint8_t> payload,
                                  std::string& error) {
  wire::ReplBatchView view;
  if (!wire::parse_repl_batch(payload, view, error)) return false;
  if (in_snapshot_) {
    error = "REPL_BATCH during a snapshot transfer (chunk " +
            std::to_string(snap_next_chunk_) + " of " +
            std::to_string(snap_chunk_count_) + " expected)";
    return false;
  }
  if (view.seq != next_seq_) {
    error = "REPL_BATCH seq " + std::to_string(view.seq) + ", expected " +
            std::to_string(next_seq_);
    return false;
  }
  const std::size_t n = view.count;
  if (ads_.size() < n) {
    ads_.resize(n);
    ids_.resize(n);
    times_.resize(n);
    sources_.resize(n);
    verdicts_.resize(n);
  }
  wire::deinterleave_clicks_v2(view.records, view.count, ads_.data(),
                               ids_.data(), times_.data(), sources_.data());
  std::fill_n(verdicts_.data(), n, char{0});
  // Verdicts are recomputed bit-identically from the same deterministic
  // sink — nothing to compare them against here, so they are dropped.
  sink_.offer_with_sources({ads_.data(), n}, {ids_.data(), n},
                           {times_.data(), n}, {sources_.data(), n},
                           {reinterpret_cast<bool*>(verdicts_.data()), n});
  ++next_seq_;
  ++batches_applied_;
  clicks_applied_ += n;
  return true;
}

bool ReplicationApplier::on_snapshot(std::span<const std::uint8_t> payload,
                                     std::string& error) {
  wire::ReplSnapshotView view;
  if (!wire::parse_repl_snapshot(payload, view, error)) return false;
  if (!in_snapshot_) {
    if (view.chunk_index != 0) {
      error = "REPL_SNAPSHOT begins at chunk " +
              std::to_string(view.chunk_index) + ", expected 0";
      return false;
    }
    if (view.base_seq < next_seq_) {
      // Restoring an older cut would rewind state the sink already holds.
      error = "REPL_SNAPSHOT base_seq " + std::to_string(view.base_seq) +
              " behind applier cursor " + std::to_string(next_seq_);
      return false;
    }
    in_snapshot_ = true;
    snap_base_seq_ = view.base_seq;
    snap_chunk_count_ = view.chunk_count;
    snap_next_chunk_ = 0;
    snap_bytes_.clear();
  } else {
    if (view.base_seq != snap_base_seq_ ||
        view.chunk_count != snap_chunk_count_) {
      error = "REPL_SNAPSHOT header changed mid-transfer (base_seq " +
              std::to_string(view.base_seq) + "/" +
              std::to_string(snap_base_seq_) + ", chunk_count " +
              std::to_string(view.chunk_count) + "/" +
              std::to_string(snap_chunk_count_) + ")";
      reset_transfer();
      return false;
    }
    if (view.chunk_index != snap_next_chunk_) {
      error = "REPL_SNAPSHOT chunk_index " +
              std::to_string(view.chunk_index) + ", expected " +
              std::to_string(snap_next_chunk_);
      reset_transfer();
      return false;
    }
  }
  snap_bytes_.append(reinterpret_cast<const char*>(view.chunk.data()),
                     view.chunk.size());
  ++snap_next_chunk_;
  if (snap_next_chunk_ < snap_chunk_count_) return true;

  // Final chunk: validate + restore through the same envelope reader the
  // snapshot files use. A damaged transfer throws; the cursor does not
  // move and the follower re-handshakes.
  std::istringstream in(std::move(snap_bytes_), std::ios::binary);
  const std::uint64_t base = snap_base_seq_;
  reset_transfer();
  try {
    IngestServer::restore_sink_snapshot(sink_, in);
  } catch (const std::exception& e) {
    error = std::string("REPL_SNAPSHOT restore failed: ") + e.what();
    return false;
  }
  next_seq_ = base;
  ++snapshots_applied_;
  return true;
}

// ---------------------------------------------------------------------------
// ReplicationFollower

ReplicationFollower::ReplicationFollower(std::string host, std::uint16_t port,
                                         ReplicationApplier& applier)
    : host_(std::move(host)), port_(port), applier_(applier) {}

ReplicationFollower::~ReplicationFollower() { stop(); }

void ReplicationFollower::start() {
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void ReplicationFollower::stop() {
  {
    const std::lock_guard<std::mutex> g(mu_);
    stop_.store(true, std::memory_order_relaxed);
    // Wake a blocking recv/send; the fd stays owned by the pump thread,
    // so this never races a close-and-reuse.
    client_.shutdown_now();
  }
  if (started_ && thread_.joinable()) thread_.join();
  started_ = false;
}

std::string ReplicationFollower::last_error() const {
  const std::lock_guard<std::mutex> g(err_mu_);
  return last_error_;
}

void ReplicationFollower::run() {
  // Reconnect delay: doubles while connections die without applying a
  // single frame (dead primary, future-cursor refusal), so the retry loop
  // never hammers a peer that keeps turning us away; resets to the floor
  // the moment a frame applies, so recovery from a transient fault is as
  // fast as the fixed delay ever was.
  constexpr int kBackoffFloorMs = 20;
  constexpr int kBackoffCapMs = 1000;
  int backoff_ms = kBackoffFloorMs;
  bool first_attempt = true;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!first_attempt) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      // Sleep in slices so stop() is honored promptly even at the cap.
      for (int slept = 0;
           slept < backoff_ms && !stop_.load(std::memory_order_relaxed);
           slept += 10) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      backoff_ms = std::min(backoff_ms * 2, kBackoffCapMs);
    }
    first_attempt = false;
    // A connection that died mid-snapshot leaves a partial transfer; the
    // re-handshake starts clean from the applier's cursor.
    applier_.reset_transfer();
    try {
      {
        const std::lock_guard<std::mutex> g(mu_);
        if (stop_.load(std::memory_order_relaxed)) break;
        client_.close();
        client_.connect(host_, port_);
      }
      client_.handshake(wire::kProtocolVersionV3);
      client_.send_repl_hello(applier_.next_seq());
      wire::FrameView frame;
      while (client_.read_frame(frame)) {
        std::string err;
        const std::uint64_t before = applier_.next_seq();
        if (!applier_.on_frame(frame.type, frame.payload, err)) {
          const std::lock_guard<std::mutex> g(err_mu_);
          last_error_ = err;
          break;
        }
        if (applier_.next_seq() != before) {
          client_.send_repl_ack(applier_.next_seq() - 1);
        }
        backoff_ms = kBackoffFloorMs;  // link is productive again
      }
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> g(err_mu_);
      last_error_ = e.what();
    }
  }
  const std::lock_guard<std::mutex> g(mu_);
  client_.close();
}

}  // namespace ppc::server
