// One load-generator connection to ppcd: a non-blocking socket driven by
// one thread, sending click frames either on an open-loop schedule or
// closed-loop with a fixed number of frames in flight, and recording every
// frame's schedule, send and verdict times plus the verdict bits.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/wire.hpp"
#include "tracing.hpp"
#include "workload.hpp"

namespace perfbench {

namespace wire = ppc::server::wire;

struct FrameRec {
  std::uint64_t first = 0;  ///< stream index of the frame's first click
  std::uint32_t count = 0;
  std::int64_t sched_ns = 0;  ///< open loop: when it was due
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = -1;  ///< -1: no verdict yet
};

/// A click frame ready to send: its clicks as columns.
struct FrameCols {
  std::vector<std::uint32_t> ads, sources;
  std::vector<std::uint64_t> ids, times;
  void fill(ClickStream& s, std::uint32_t n, std::uint64_t* dups) {
    ads.resize(n);
    sources.resize(n);
    ids.resize(n);
    times.resize(n);
    Click c;
    for (std::uint32_t i = 0; i < n; ++i) {
      s.next(c);
      ads[i] = c.ad;
      ids[i] = c.id;
      times[i] = c.time;
      sources[i] = c.source;
      if (dups != nullptr && c.dup) ++*dups;
    }
  }
  void encode(std::vector<std::uint8_t>& out, std::uint64_t seq,
              bool v2) const {
    const auto n = static_cast<std::uint32_t>(ids.size());
    if (v2) {
      wire::append_click_batch_v2_cols(out, seq, n, ads.data(), ids.data(),
                                       times.data(), sources.data());
    } else {
      wire::append_click_batch_cols(out, seq, n, ads.data(), ids.data(),
                                    times.data());
    }
  }
};

class Connection {
 public:
  Connection(const WorkloadSpec& spec, std::uint64_t seed, unsigned conn)
      : spec_(spec), stream_(spec, seed, conn) {}
  ~Connection() { close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  ClickStream& stream() { return stream_; }
  std::uint64_t stream_index() const { return stream_.index(); }
  /// Stream index one past the last click sent (the streams run one
  /// pre-generated frame ahead).
  std::uint64_t sent_end() const {
    return frames_.empty() ? stream_.index()
                           : frames_.back().first + frames_.back().count;
  }

  /// Advances the stream past `n` clicks that are not sent (the warm-up
  /// prefix the daemon restores from a snapshot).
  void skip(std::uint64_t n) {
    Click c;
    for (std::uint64_t i = 0; i < n; ++i) stream_.next(c);
  }

  void connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) fail("socket");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      fail("connect");
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }

  /// HELLO / HELLO_ACK; returns when the ack arrived.
  void handshake(int timeout_ms) {
    wire::append_hello(out_, spec_.v2 ? wire::kProtocolVersionV2
                                      : wire::kProtocolVersion);
    const std::int64_t deadline = now_ns() + timeout_ms * 1'000'000LL;
    while (!hello_acked_) {
      if (now_ns() > deadline) throw std::runtime_error("no HELLO_ACK");
      pump(1'000'000);
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Open loop: `frames` frames of `batch` clicks, frame k due at
  /// t0 + k * interval_ns. Returns after every verdict arrived or
  /// `grace_ns` after the last frame was due.
  void run_open(std::int64_t t0, std::int64_t interval_ns,
                std::uint32_t frames, std::uint32_t batch,
                std::int64_t grace_ns) {
    FrameCols next;
    next.fill(stream_, batch, nullptr);
    std::uint32_t k = 0;
    const std::int64_t last_due = t0 + interval_ns * (frames - 1);
    while (true) {
      const std::int64_t now = now_ns();
      if (k < frames && now >= t0 + interval_ns * k) {
        send_frame(next, t0 + interval_ns * k, now);
        ++k;
        if (k < frames) next.fill(stream_, batch, nullptr);
        continue;
      }
      if (k == frames && outstanding_ == 0) break;
      if (k == frames && now > last_due + grace_ns) break;
      // Busy-poll between sends: a verdict is read the moment it lands,
      // so the figure does not include this thread's own wake-up.
      pump(0);
    }
  }

  /// Closed loop: keeps `inflight` frames of `batch` clicks outstanding
  /// until `end_ns`, then waits (up to `grace_ns`) for the last verdicts.
  void run_closed(std::int64_t end_ns, std::uint32_t batch,
                  std::uint32_t inflight, std::int64_t grace_ns) {
    FrameCols next;
    closed_first_frame_ = frames_.size();
    next.fill(stream_, batch, nullptr);
    while (now_ns() < end_ns) {
      if (outstanding_ < inflight) {
        const std::int64_t now = now_ns();
        send_frame(next, now, now);
        next.fill(stream_, batch, nullptr);
        continue;
      }
      pump(1'000'000);
    }
    const std::int64_t deadline = now_ns() + grace_ns;
    while (outstanding_ > 0 && now_ns() < deadline) pump(1'000'000);
  }

  /// DRAIN / DRAIN_ACK; false on timeout.
  bool drain(int timeout_ms) {
    wire::append_drain(out_);
    const std::int64_t deadline = now_ns() + timeout_ms * 1'000'000LL;
    while (!drain_acked_ && now_ns() < deadline) pump(1'000'000);
    return drain_acked_;
  }

  const std::vector<FrameRec>& frames() const { return frames_; }
  std::size_t closed_first_frame() const { return closed_first_frame_; }
  std::uint64_t clicks_sent() const { return clicks_sent_; }
  std::uint64_t dups_received() const { return dups_received_; }
  std::uint64_t ack_clicks() const { return ack_clicks_; }
  std::uint64_t ack_dups() const { return ack_dups_; }

  /// Verdict of the click at stream index `i` (sent on this connection).
  bool verdict(std::uint64_t i) const {
    return (bits_[i / 64] >> (i % 64)) & 1u;
  }
  /// Records verdicts computed in-process for clicks [first, first + n)
  /// (the warm-up the daemon restores from a snapshot).
  void record_local(std::uint64_t first, const bool* out, std::size_t n) {
    const std::uint64_t end = first + n;
    if (bits_.size() * 64 < end) bits_.resize(end / 64 + 1024, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i]) bits_[(first + i) / 64] |= std::uint64_t{1} << ((first + i) % 64);
    }
  }

 private:
  [[noreturn]] static void fail(const char* what) {
    throw std::runtime_error(std::string("load generator: ") + what + ": " +
                             std::strerror(errno));
  }

  void send_frame(const FrameCols& f, std::int64_t sched, std::int64_t now) {
    const auto seq = static_cast<std::uint64_t>(frames_.size());
    const auto n = static_cast<std::uint32_t>(f.ids.size());
    frames_.push_back({stream_.index() - n, n, sched, now, -1});
    f.encode(out_, seq, spec_.v2);
    clicks_sent_ += n;
    ++outstanding_;
    const std::uint64_t end = stream_.index();
    if (bits_.size() * 64 < end) bits_.resize(end / 64 + 1024, 0);
    flush();
  }

  void flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_,
                               out_.size() - out_off_,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        fail("send");
      }
      out_off_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    out_off_ = 0;
  }

  /// Waits up to `wait_ns` for the socket, then sends what is pending and
  /// decodes every complete frame received.
  void pump(std::int64_t wait_ns) {
    if (wait_ns < 0) wait_ns = 0;
    pollfd p{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)),
             0};
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int r = ::ppoll(&p, 1, &ts, nullptr);
    if (r < 0 && errno != EINTR) fail("ppoll");
    if (!out_.empty()) flush();
    if (r <= 0 || !(p.revents & (POLLIN | POLLHUP | POLLERR))) return;
    while (true) {
      if (rbuf_.size() < rlen_ + 65536) rbuf_.resize(rlen_ + 65536);
      const ssize_t n = ::recv(fd_, rbuf_.data() + rlen_, 65536, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        fail("recv");
      }
      if (n == 0) throw std::runtime_error("ppcd closed the connection");
      rlen_ += static_cast<std::size_t>(n);
    }
    const std::int64_t t = now_ns();
    std::size_t pos = 0;
    while (true) {
      wire::FrameView frame;
      std::size_t consumed = 0;
      const auto st = wire::decode_frame({rbuf_.data() + pos, rlen_ - pos},
                                         frame, consumed, error_);
      if (st == wire::DecodeStatus::kNeedMore) break;
      if (st == wire::DecodeStatus::kError) {
        throw std::runtime_error("bad frame from ppcd: " + error_);
      }
      on_frame(frame, t);
      pos += consumed;
    }
    std::memmove(rbuf_.data(), rbuf_.data() + pos, rlen_ - pos);
    rlen_ -= pos;
  }

  void on_frame(const wire::FrameView& frame, std::int64_t t) {
    switch (frame.type) {
      case wire::FrameType::kHelloAck:
        hello_acked_ = true;
        return;
      case wire::FrameType::kVerdictBatch: {
        wire::VerdictBatchView v;
        if (!wire::parse_verdict_batch(frame.payload, v, error_) ||
            v.seq >= frames_.size() || frames_[v.seq].recv_ns >= 0 ||
            v.count != frames_[v.seq].count) {
          throw std::runtime_error("unexpected VERDICT_BATCH");
        }
        FrameRec& f = frames_[v.seq];
        f.recv_ns = t;
        for (std::uint32_t i = 0; i < v.count; ++i) {
          if (v.duplicate(i)) {
            const std::uint64_t idx = f.first + i;
            bits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
            ++dups_received_;
          }
        }
        --outstanding_;
        return;
      }
      case wire::FrameType::kDrainAck:
        if (!wire::parse_drain_ack(frame.payload, ack_clicks_, ack_dups_,
                                   error_)) {
          throw std::runtime_error("bad DRAIN_ACK: " + error_);
        }
        drain_acked_ = true;
        return;
      default:
        throw std::runtime_error(std::string("unexpected frame ") +
                                 wire::frame_type_name(frame.type));
    }
  }

  const WorkloadSpec& spec_;
  ClickStream stream_;
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::vector<std::uint8_t> rbuf_;
  std::size_t rlen_ = 0;
  bool hello_acked_ = false;
  bool drain_acked_ = false;
  std::vector<FrameRec> frames_;
  std::size_t closed_first_frame_ = 0;
  std::vector<std::uint64_t> bits_;
  std::uint32_t outstanding_ = 0;
  std::uint64_t clicks_sent_ = 0;
  std::uint64_t dups_received_ = 0;
  std::uint64_t ack_clicks_ = 0;
  std::uint64_t ack_dups_ = 0;
  std::string error_;
};

}  // namespace perfbench
