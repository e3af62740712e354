// End-to-end tests of the network ingest path over real loopback sockets:
// an IngestServer on an ephemeral port with its event loop on a dedicated
// thread, driven by BlockingClient — the same two implementations ppcd and
// ppc_loadgen ship. The core assertion everywhere: the verdict stream that
// comes back over the wire is BIT-IDENTICAL to a sequential in-process
// replay of the same clicks through an identically configured detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "chaos_proxy.hpp"
#include "core/sharded_detector.hpp"
#include "server/client.hpp"
#include "server/ingest_server.hpp"
#include "server/server_config.hpp"
#include "stream/click.hpp"
#include "stream/generators.hpp"

namespace ppc::server {
namespace {

/// Server fixture: a sink over `cfg`, an IngestServer bound to an
/// ephemeral loopback port, and the event loop running on its own thread
/// until the fixture is destroyed (or drain() is called explicitly).
class LoopbackServer {
 public:
  explicit LoopbackServer(const DetectorConfig& cfg,
                          IngestServer::Options opts = {})
      : cfg_(cfg),
        pool_([cfg](std::uint32_t) { return build_detector(cfg); }),
        // Sharded per-ad detectors are individually thread-safe, so a
        // multi-loop server may offer concurrently (mirrors ppcd).
        sink_(pool_, nullptr, /*concurrent_detectors=*/cfg.shards > 1),
        server_(sink_, opts) {
    port_ = server_.listen("127.0.0.1", 0);
    thread_ = std::thread([this] { server_.run(); });
  }

  ~LoopbackServer() { shutdown(); }

  /// Stops the loop and drains; idempotent. Returns the final stats.
  IngestServer::Stats shutdown() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
      drained_ = server_.drain();
    }
    return drained_;
  }

  std::uint16_t port() const { return port_; }
  IngestServer& server() { return server_; }

 private:
  DetectorConfig cfg_;
  adnet::DetectorPool pool_;
  PoolSink sink_;
  IngestServer server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  IngestServer::Stats drained_{};
};

std::vector<wire::ClickRecord> make_clicks(std::uint32_t ad_id,
                                           std::size_t count,
                                           std::uint64_t seed) {
  stream::MixedTrafficStream::Options opts;
  opts.seed = seed;
  opts.user_count = 500;  // small population → plenty of duplicates
  stream::MixedTrafficStream gen(opts);
  std::vector<wire::ClickRecord> clicks(count);
  for (auto& rec : clicks) {
    stream::Click c = gen.next();
    c.ad_id = ad_id;  // pin the population to one ad (one pool detector)
    rec = {c.ad_id, stream::click_identifier(c), c.time_us};
  }
  return clicks;
}

/// Sequential oracle: replay `clicks` through a fresh detector built from
/// the same config the server used.
std::vector<bool> oracle_verdicts(const DetectorConfig& cfg,
                                  std::span<const wire::ClickRecord> clicks) {
  auto detector = build_detector(cfg);
  std::vector<bool> verdicts(clicks.size());
  for (std::size_t i = 0; i < clicks.size(); ++i) {
    verdicts[i] = detector->offer(clicks[i].click_id, clicks[i].t_us);
  }
  return verdicts;
}

/// Sends all clicks in `batch`-sized frames (lock-step: one in flight),
/// collects verdict bits in order into `out`, checking seq numbering.
void send_and_collect(BlockingClient& client,
                      std::span<const wire::ClickRecord> clicks,
                      std::size_t batch, std::vector<bool>& out) {
  out.clear();
  out.reserve(clicks.size());
  std::uint64_t seq = 0;
  std::size_t sent = 0;
  while (sent < clicks.size()) {
    const std::size_t n = std::min(batch, clicks.size() - sent);
    client.send_click_batch(seq, clicks.subspan(sent, n));
    sent += n;
    wire::FrameView frame;
    ASSERT_TRUE(client.read_frame(frame));
    ASSERT_EQ(frame.type, wire::FrameType::kVerdictBatch);
    wire::VerdictBatchView view;
    std::string err;
    ASSERT_TRUE(wire::parse_verdict_batch(frame.payload, view, err)) << err;
    ASSERT_EQ(view.seq, seq);
    ASSERT_EQ(view.count, n);
    for (std::uint32_t i = 0; i < view.count; ++i) {
      out.push_back(view.duplicate(i));
    }
    ++seq;
  }
}

DetectorConfig gbf_config() {
  DetectorConfig cfg;
  cfg.window = core::WindowSpec::jumping_count(4096, 8);  // → GBF
  cfg.memory_bits = std::uint64_t{1} << 18;
  return cfg;
}

DetectorConfig tbf_time_config() {
  DetectorConfig cfg;
  // Sliding time window → TBF; spans a few thousand generated clicks.
  cfg.window = core::WindowSpec::sliding_time(2'000'000, 10'000);
  cfg.memory_bits = std::uint64_t{1} << 18;
  return cfg;
}

TEST(ServerE2E, GbfCountWindowVerdictsMatchSequentialReplay) {
  const DetectorConfig cfg = gbf_config();
  LoopbackServer server(cfg);
  const auto clicks = make_clicks(1, 20'000, 11);

  BlockingClient client;
  client.connect("127.0.0.1", server.port());
  client.handshake();
  std::vector<bool> wire_verdicts;
  send_and_collect(client, clicks, 1024, wire_verdicts);
  ASSERT_EQ(wire_verdicts.size(), clicks.size());

  const auto expected = oracle_verdicts(cfg, clicks);
  for (std::size_t i = 0; i < clicks.size(); ++i) {
    ASSERT_EQ(wire_verdicts[i], expected[i]) << "diverged at click " << i;
  }
}

TEST(ServerE2E, TbfTimeWindowVerdictsMatchSequentialReplay) {
  const DetectorConfig cfg = tbf_time_config();
  LoopbackServer server(cfg);
  const auto clicks = make_clicks(1, 20'000, 12);

  BlockingClient client;
  client.connect("127.0.0.1", server.port());
  client.handshake();
  // Deliberately odd batch size: frames never align with sub-windows.
  std::vector<bool> wire_verdicts;
  send_and_collect(client, clicks, 777, wire_verdicts);
  ASSERT_EQ(wire_verdicts.size(), clicks.size());

  const auto expected = oracle_verdicts(cfg, clicks);
  for (std::size_t i = 0; i < clicks.size(); ++i) {
    ASSERT_EQ(wire_verdicts[i], expected[i]) << "diverged at click " << i;
  }
}

// A sharded per-ad detector with batch fan-out behind the wire.
TEST(ServerE2E, ShardedVerdictsMatchSequentialReplay) {
  DetectorConfig cfg = gbf_config();
  cfg.shards = 4;
  cfg.owners = 2;
  LoopbackServer server(cfg);
  const auto clicks = make_clicks(1, 20'000, 13);

  BlockingClient client;
  client.connect("127.0.0.1", server.port());
  client.handshake();
  std::vector<bool> wire_verdicts;
  send_and_collect(client, clicks, 1024, wire_verdicts);
  ASSERT_EQ(wire_verdicts.size(), clicks.size());

  const auto expected = oracle_verdicts(cfg, clicks);
  for (std::size_t i = 0; i < clicks.size(); ++i) {
    ASSERT_EQ(wire_verdicts[i], expected[i]) << "diverged at click " << i;
  }
}

// Four concurrent connections, each with its own ad (its own pool
// detector). Whatever interleaving the server sees, every connection's
// verdict stream must match ITS OWN sequential replay — the per-ad
// isolation contract the load generator's verification rests on.
TEST(ServerE2E, MultiConnectionInterleaveIsPerAdExact) {
  const DetectorConfig cfg = gbf_config();
  LoopbackServer server(cfg);
  constexpr int kConns = 4;
  constexpr std::size_t kClicksPerConn = 8'000;

  std::vector<std::vector<wire::ClickRecord>> clicks(kConns);
  std::vector<std::vector<bool>> got(kConns);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    clicks[c] = make_clicks(static_cast<std::uint32_t>(c + 1), kClicksPerConn,
                            100 + c);
    threads.emplace_back([&, c] {
      BlockingClient client;
      client.connect("127.0.0.1", server.port());
      client.handshake();
      // Different batch sizes → maximally ragged interleave.
      send_and_collect(client, clicks[c], 256 + 128 * c, got[c]);
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kConns; ++c) {
    ASSERT_EQ(got[c].size(), clicks[c].size()) << "connection " << c;
    const auto expected = oracle_verdicts(cfg, clicks[c]);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[c][i], expected[i])
          << "connection " << c << " diverged at click " << i;
    }
  }
}

// Backpressure: tiny kernel send buffer on the server side, a client that
// does not read until everything is sent, watermarks small enough that the
// reply backlog crosses them. The server must pause reads rather than
// buffer without bound — and still deliver every verdict once the client
// finally drains.
TEST(ServerE2E, BackpressurePausesReadsAndLosesNothing) {
  const DetectorConfig cfg = gbf_config();
  IngestServer::Options opts;
  opts.loop.sndbuf_bytes = 4096;     // replies jam in a 4 KiB kernel buffer
  // Bound the input side too, but at 64 KiB: a loopback TCP segment can
  // carry up to ~64 KiB, and a receive buffer smaller than one segment
  // makes the kernel DROP segments outright — the connection then crawls
  // through exponential retransmission backoff (observed: rto 13 s,
  // cwnd 1) instead of flowing, and the sender eventually dies with
  // ETIMEDOUT. 64 KiB is ≥ one segment yet ≪ the input stream, which is
  // all the determinism below needs.
  opts.loop.rcvbuf_bytes = 64 * 1024;
  opts.loop.high_watermark = 16384;  // ...then in a 16 KiB userspace buffer
  opts.loop.low_watermark = 4096;
  LoopbackServer server(cfg, opts);

  // Verdicts are one BIT per click, so backlog needs per-frame overhead to
  // build: tiny 8-click frames make the reply stream ~22 bytes per frame,
  // ~165 KiB total — far past the 16 KiB watermark while the client is
  // not reading.
  const auto clicks = make_clicks(1, 60'000, 21);
  BlockingClient client;
  client.set_rcvbuf(4096);  // the client side jams quickly too
  // Bounded client SO_SNDBUF + bounded server SO_RCVBUF: at most ~256 KiB
  // of the ~1.35 MiB input stream can hide in kernel buffers, so the
  // sender can only finish after the server consumed ≥ 1 MiB — by which
  // point the generated replies (~130 KiB) dwarf the ~48 KiB of kernel +
  // watermark headroom and the pause has provably fired. Without these
  // bounds the sender could outrun the server into auto-tuned multi-MiB
  // buffers and finish with zero pauses (a real flake on a 1-core host).
  client.set_sndbuf(64 * 1024);
  client.connect("127.0.0.1", server.port());
  client.handshake();

  // A sender thread fires every batch while the main thread refuses to
  // read a single reply until the server has actually paused reads (or the
  // sender finished) — so the reply backlog provably crossed the
  // watermark, and draining afterwards releases the paused sender instead
  // of deadlocking with it.
  constexpr std::size_t kBatch = 8;
  std::atomic<bool> sender_done{false};
  std::jthread sender([&] {  // jthread: joins even if an ASSERT bails out

    std::uint64_t seq = 0;
    for (std::size_t sent = 0; sent < clicks.size(); sent += kBatch) {
      const std::size_t n = std::min(kBatch, clicks.size() - sent);
      client.send_click_batch(
          seq++, std::span<const wire::ClickRecord>(clicks).subspan(sent, n));
    }
    sender_done.store(true);
  });
  while (!sender_done.load() &&
         server.server().loop_stats().backpressure_pauses == 0) {
    std::this_thread::yield();
  }

  // Now drain all verdicts.
  std::vector<bool> verdicts;
  std::uint64_t expect_seq = 0;
  while (verdicts.size() < clicks.size()) {
    wire::FrameView frame;
    ASSERT_TRUE(client.read_frame(frame));
    ASSERT_EQ(frame.type, wire::FrameType::kVerdictBatch);
    wire::VerdictBatchView view;
    std::string err;
    ASSERT_TRUE(wire::parse_verdict_batch(frame.payload, view, err)) << err;
    ASSERT_EQ(view.seq, expect_seq++);
    for (std::uint32_t i = 0; i < view.count; ++i) {
      verdicts.push_back(view.duplicate(i));
    }
  }
  sender.join();
  ASSERT_EQ(verdicts.size(), clicks.size());

  const auto expected = oracle_verdicts(cfg, clicks);
  for (std::size_t i = 0; i < clicks.size(); ++i) {
    ASSERT_EQ(verdicts[i], expected[i]) << "diverged at click " << i;
  }
  EXPECT_GE(server.server().loop_stats().backpressure_pauses, 1u)
      << "the test never actually exercised the backpressure path";
}

// Malformed input closes THAT connection; the server survives and keeps
// serving fresh ones.
TEST(ServerE2E, MalformedFrameClosesConnectionServerSurvives) {
  const DetectorConfig cfg = gbf_config();
  LoopbackServer server(cfg);

  struct Case {
    const char* name;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Case> cases;
  {  // bad CRC
    std::vector<std::uint8_t> f;
    wire::append_ping(f, 1);
    f.back() ^= 0xff;
    cases.push_back({"bad crc", f});
  }
  {  // oversized length prefix
    std::vector<std::uint8_t> f;
    wire::put_u32(f, static_cast<std::uint32_t>(wire::kMaxFrameBody + 1));
    cases.push_back({"oversized length", f});
  }
  {  // wrong protocol version in HELLO
    std::vector<std::uint8_t> f;
    wire::append_hello(f, wire::kProtocolVersion + 7);
    cases.push_back({"bad version", f});
  }
  {  // server-only frame from a client
    std::vector<std::uint8_t> f;
    wire::append_hello(f);
    wire::append_verdict_batch(f, 0, {});
    cases.push_back({"client sent VERDICT_BATCH", f});
  }
  {  // clicks before HELLO
    std::vector<std::uint8_t> f;
    const wire::ClickRecord rec{1, 2, 3};
    wire::append_click_batch(f, 0, {&rec, 1});
    cases.push_back({"clicks before HELLO", f});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BlockingClient bad;
    bad.connect("127.0.0.1", server.port());
    bad.send_raw(c.bytes);
    // The server must close on us: read until EOF (it may send a
    // HELLO_ACK first for the cases that start with a valid HELLO).
    try {
      wire::FrameView frame;
      while (bad.read_frame(frame)) {
      }
    } catch (const std::runtime_error&) {
      // Mid-frame close / reset is an acceptable rejection too.
    }
  }

  // The server is still alive and correct for a well-behaved client.
  const auto clicks = make_clicks(1, 4'000, 31);
  BlockingClient good;
  good.connect("127.0.0.1", server.port());
  good.handshake();
  std::vector<bool> wire_verdicts;
  send_and_collect(good, clicks, 512, wire_verdicts);
  ASSERT_EQ(wire_verdicts.size(), clicks.size());
  const auto expected = oracle_verdicts(cfg, clicks);
  for (std::size_t i = 0; i < clicks.size(); ++i) {
    ASSERT_EQ(wire_verdicts[i], expected[i]) << "diverged at click " << i;
  }
  EXPECT_GE(server.server().stats().protocol_errors, cases.size());
}

// Chaos arm: ingest clients arrive through a fault-injecting proxy whose
// schedule resets connections mid-frame, truncates a CLICK_BATCH half-way
// through its payload, and stalls a stream mid-click. Every faulted
// connection just dies from the server's perspective; the server must
// survive them all and serve a fresh, direct connection bit-exactly.
TEST(ServerE2E, ChaosFaultedClientsNeverCorruptTheServer) {
  const DetectorConfig cfg = gbf_config();
  LoopbackServer server(cfg);
  ChaosProxy proxy("127.0.0.1", server.port());
  const std::uint16_t proxy_port = proxy.listen();

  using FK = ChaosProxy::FaultKind;
  using Dir = ChaosProxy::Direction;
  const std::vector<ChaosProxy::Fault> schedule = {
      {FK::kKill, Dir::kClientToServer, 7, 0},       // reset mid-HELLO
      {FK::kTruncate, Dir::kClientToServer, 40, 0},  // EOF mid-batch header
      {FK::kTruncate, Dir::kClientToServer, 333, 0}, // EOF mid-payload
      {FK::kKill, Dir::kServerToClient, 20, 0},      // reset mid-verdicts
      {FK::kStall, Dir::kClientToServer, 100, 120},  // stall, then finish
  };
  for (const auto& f : schedule) proxy.push_fault(f);

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    SCOPED_TRACE("fault " + std::to_string(i));
    const auto clicks = make_clicks(1, 200, 900 + i);
    BlockingClient victim;
    victim.connect("127.0.0.1", proxy_port);
    try {
      victim.handshake();
      std::uint64_t seq = 0;
      for (std::size_t sent = 0; sent < clicks.size(); sent += 64) {
        const std::size_t n = std::min<std::size_t>(64, clicks.size() - sent);
        victim.send_click_batch(
            seq++,
            std::span<const wire::ClickRecord>(clicks).subspan(sent, n));
      }
      // Read back at most one verdict frame per batch sent — the stalled
      // connection completes normally and must not leave us blocked on a
      // link nobody will ever close.
      wire::FrameView frame;
      for (std::uint64_t got = 0; got < seq && victim.read_frame(frame);) {
        if (frame.type == wire::FrameType::kVerdictBatch) ++got;
      }
    } catch (const std::runtime_error&) {
      // Reset / mid-frame close is the expected fate of a faulted link.
    }
  }
  proxy.stop();
  EXPECT_EQ(proxy.faults_fired(), schedule.size());

  // The server took every fault in stride: a fresh DIRECT connection gets
  // verdicts bit-identical to a sequential replay. (The faulted clients'
  // partially-delivered clicks did reach the detector — per-ad isolation
  // keeps ad 2 unaffected, which is exactly what the oracle checks.)
  const auto clicks = make_clicks(2, 6'000, 77);
  BlockingClient good;
  good.connect("127.0.0.1", server.port());
  good.handshake();
  std::vector<bool> wire_verdicts;
  send_and_collect(good, clicks, 512, wire_verdicts);
  ASSERT_EQ(wire_verdicts.size(), clicks.size());
  const auto expected = oracle_verdicts(cfg, clicks);
  for (std::size_t i = 0; i < clicks.size(); ++i) {
    ASSERT_EQ(wire_verdicts[i], expected[i]) << "diverged at click " << i;
  }
}

// DRAIN flushes every pending click and acks with exact connection totals.
TEST(ServerE2E, DrainAckReportsExactTotals) {
  const DetectorConfig cfg = gbf_config();
  LoopbackServer server(cfg);
  const auto clicks = make_clicks(1, 10'000, 41);

  BlockingClient client;
  client.connect("127.0.0.1", server.port());
  client.handshake();
  std::vector<bool> wire_verdicts;
  send_and_collect(client, clicks, 1000, wire_verdicts);
  ASSERT_EQ(wire_verdicts.size(), clicks.size());

  client.send_drain();
  wire::FrameView frame;
  ASSERT_TRUE(client.read_frame(frame));
  ASSERT_EQ(frame.type, wire::FrameType::kDrainAck);
  std::uint64_t total = 0, dups = 0;
  std::string err;
  ASSERT_TRUE(wire::parse_drain_ack(frame.payload, total, dups, err)) << err;
  EXPECT_EQ(total, clicks.size());
  const auto expected = oracle_verdicts(cfg, clicks);
  const auto expected_dups = static_cast<std::uint64_t>(
      std::count(expected.begin(), expected.end(), true));
  EXPECT_EQ(dups, expected_dups);
}

// Graceful shutdown mid-stream: stop() + drain() must deliver a verdict
// for every click the server accepted before the stop.
TEST(ServerE2E, GracefulDrainDeliversAllPendingVerdicts) {
  const DetectorConfig cfg = gbf_config();
  auto server = std::make_unique<LoopbackServer>(cfg);
  const auto clicks = make_clicks(1, 20'000, 51);

  BlockingClient client;
  client.connect("127.0.0.1", server->port());
  client.handshake();

  // Send everything without consuming replies, then stop the server.
  constexpr std::size_t kBatch = 4096;
  std::uint64_t seq = 0;
  for (std::size_t sent = 0; sent < clicks.size(); sent += kBatch) {
    const std::size_t n = std::min(kBatch, clicks.size() - sent);
    client.send_click_batch(
        seq++, std::span<const wire::ClickRecord>(clicks).subspan(sent, n));
  }
  client.send_ping(0xabc);  // round-trip: the server has READ everything...
  wire::FrameView frame;
  std::size_t verdict_count = 0;
  while (client.read_frame(frame)) {
    if (frame.type == wire::FrameType::kPong) break;
    ASSERT_EQ(frame.type, wire::FrameType::kVerdictBatch);
    wire::VerdictBatchView view;
    std::string err;
    ASSERT_TRUE(wire::parse_verdict_batch(frame.payload, view, err)) << err;
    verdict_count += view.count;
  }

  // ...now stop it and drain; the remaining verdicts arrive before EOF.
  const IngestServer::Stats final_stats = server->shutdown();
  EXPECT_EQ(final_stats.clicks, clicks.size());
  while (client.read_frame(frame)) {
    if (frame.type != wire::FrameType::kVerdictBatch) continue;
    wire::VerdictBatchView view;
    std::string err;
    ASSERT_TRUE(wire::parse_verdict_batch(frame.payload, view, err)) << err;
    verdict_count += view.count;
  }
  EXPECT_EQ(verdict_count, clicks.size())
      << "graceful drain dropped verdicts";
}

// Multi-loop server (2 SO_REUSEPORT loops), six connections each with its
// own ad, over a sharded pool with batch fan-out. Whatever loop the kernel
// hands each connection to, its verdict stream must match ITS OWN
// sequential replay, and its DRAIN_ACK totals must be exact at the drain's
// stream position.
TEST(ServerE2E, MultiLoopVerdictsPerAdExactWithExactDrainTotals) {
  DetectorConfig cfg = gbf_config();
  cfg.shards = 4;
  cfg.owners = 2;
  IngestServer::Options opts;
  opts.loops = 2;
  LoopbackServer server(cfg, opts);
  constexpr int kConns = 6;
  constexpr std::size_t kClicksPerConn = 6'000;

  std::vector<std::vector<wire::ClickRecord>> clicks(kConns);
  std::vector<std::vector<bool>> got(kConns);
  std::vector<std::uint32_t> loop_ids(kConns, 0xffffffffu);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    clicks[c] = make_clicks(static_cast<std::uint32_t>(c + 1), kClicksPerConn,
                            200 + c);
    threads.emplace_back([&, c] {
      BlockingClient client;
      client.connect("127.0.0.1", server.port());
      client.handshake();
      loop_ids[c] = client.loop_id();
      send_and_collect(client, clicks[c], 300 + 100 * c, got[c]);
      // DRAIN mid-stream of the connection: totals must be exact HERE.
      client.send_drain();
      wire::FrameView frame;
      ASSERT_TRUE(client.read_frame(frame));
      ASSERT_EQ(frame.type, wire::FrameType::kDrainAck);
      std::uint64_t total = 0, dups = 0;
      std::string err;
      ASSERT_TRUE(wire::parse_drain_ack(frame.payload, total, dups, err))
          << err;
      EXPECT_EQ(total, clicks[c].size()) << "connection " << c;
      EXPECT_EQ(dups, static_cast<std::uint64_t>(std::count(
                          got[c].begin(), got[c].end(), true)))
          << "connection " << c;
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kConns; ++c) {
    // Every HELLO_ACK names a real loop. (Which loop the kernel picks is
    // its business — ppc_loadgen --loops asserts the spread on multi-core
    // hosts; here we only require a valid id.)
    EXPECT_LT(loop_ids[c], opts.loops) << "connection " << c;
    ASSERT_EQ(got[c].size(), clicks[c].size()) << "connection " << c;
    const auto expected = oracle_verdicts(cfg, clicks[c]);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[c][i], expected[i])
          << "connection " << c << " diverged at click " << i;
    }
  }
}

// Multi-loop malformed-frame isolation: a connection feeding garbage is
// closed by ITS loop; connections already established (possibly on the
// other loop) keep streaming verdicts undisturbed.
TEST(ServerE2E, MultiLoopMalformedFrameClosesOnlyItsConnection) {
  const DetectorConfig cfg = gbf_config();
  IngestServer::Options opts;
  opts.loops = 2;
  LoopbackServer server(cfg, opts);

  // Two well-behaved connections, established first.
  BlockingClient good_a, good_b;
  good_a.connect("127.0.0.1", server.port());
  good_a.handshake();
  good_b.connect("127.0.0.1", server.port());
  good_b.handshake();

  // A third connection turns hostile after a valid handshake.
  {
    BlockingClient bad;
    bad.connect("127.0.0.1", server.port());
    bad.handshake();
    std::vector<std::uint8_t> garbage;
    wire::append_ping(garbage, 7);
    garbage[garbage.size() - 1] ^= 0xff;  // CRC breaks → protocol error
    bad.send_raw(garbage);
    try {
      wire::FrameView frame;
      while (bad.read_frame(frame)) {
      }
    } catch (const std::runtime_error&) {
      // reset / mid-frame close is an acceptable rejection
    }
  }

  // Both pre-existing connections still serve bit-exact verdicts.
  const auto clicks_a = make_clicks(1, 4'000, 61);
  const auto clicks_b = make_clicks(2, 4'000, 62);
  std::vector<bool> got_a, got_b;
  send_and_collect(good_a, clicks_a, 512, got_a);
  send_and_collect(good_b, clicks_b, 512, got_b);
  ASSERT_EQ(got_a.size(), clicks_a.size());
  ASSERT_EQ(got_b.size(), clicks_b.size());
  const auto exp_a = oracle_verdicts(cfg, clicks_a);
  const auto exp_b = oracle_verdicts(cfg, clicks_b);
  for (std::size_t i = 0; i < exp_a.size(); ++i) {
    ASSERT_EQ(got_a[i], exp_a[i]) << "conn A diverged at click " << i;
  }
  for (std::size_t i = 0; i < exp_b.size(); ++i) {
    ASSERT_EQ(got_b[i], exp_b[i]) << "conn B diverged at click " << i;
  }
  EXPECT_GE(server.server().stats().protocol_errors, 1u);
}

// Multi-loop graceful shutdown: two connections (possibly on different
// loops) send everything without reading; the cross-loop quiesce +
// per-loop drain must deliver every owed verdict on both connections.
TEST(ServerE2E, MultiLoopGracefulDrainDeliversAllPendingVerdicts) {
  const DetectorConfig cfg = gbf_config();
  IngestServer::Options opts;
  opts.loops = 2;
  auto server = std::make_unique<LoopbackServer>(cfg, opts);
  constexpr int kConns = 2;
  constexpr std::size_t kClicksPerConn = 10'000;
  constexpr std::size_t kBatch = 2048;

  std::vector<std::vector<wire::ClickRecord>> clicks(kConns);
  std::vector<std::unique_ptr<BlockingClient>> clients(kConns);
  std::vector<std::size_t> verdict_count(kConns, 0);
  auto count_verdict = [&](int c, const wire::FrameView& frame) {
    if (frame.type != wire::FrameType::kVerdictBatch) return;
    wire::VerdictBatchView view;
    std::string err;
    ASSERT_TRUE(wire::parse_verdict_batch(frame.payload, view, err)) << err;
    verdict_count[c] += view.count;
  };
  for (int c = 0; c < kConns; ++c) {
    clicks[c] = make_clicks(static_cast<std::uint32_t>(c + 1), kClicksPerConn,
                            70 + c);
    clients[c] = std::make_unique<BlockingClient>();
    clients[c]->connect("127.0.0.1", server->port());
    clients[c]->handshake();
    std::uint64_t seq = 0;
    for (std::size_t sent = 0; sent < clicks[c].size(); sent += kBatch) {
      const std::size_t n = std::min(kBatch, clicks[c].size() - sent);
      clients[c]->send_click_batch(
          seq++,
          std::span<const wire::ClickRecord>(clicks[c]).subspan(sent, n));
    }
    clients[c]->send_ping(0xabc);  // round-trip: this loop READ everything
    wire::FrameView frame;
    while (clients[c]->read_frame(frame)) {
      if (frame.type == wire::FrameType::kPong) break;
      count_verdict(c, frame);
    }
  }

  const IngestServer::Stats final_stats = server->shutdown();
  EXPECT_EQ(final_stats.clicks, kConns * kClicksPerConn);
  for (int c = 0; c < kConns; ++c) {
    // The remaining verdicts must all arrive before EOF — the cross-loop
    // quiesce may not strand a single owed frame on either connection.
    wire::FrameView frame;
    while (clients[c]->read_frame(frame)) {
      count_verdict(c, frame);
    }
    EXPECT_EQ(verdict_count[c], clicks[c].size())
        << "connection " << c << ": graceful drain dropped verdicts";
  }
}

// STATS round trip against a plain pool sink: the sink reports what it
// knows (memory, population) and the server backfills click/duplicate
// totals from its own counters.
TEST(ServerE2E, StatsRoundTripOnPoolSinkBackfillsTotals) {
  const DetectorConfig cfg = gbf_config();
  LoopbackServer server(cfg);
  const auto clicks = make_clicks(1, 10'000, 61);

  BlockingClient ingest;
  ingest.connect("127.0.0.1", server.port());
  ingest.handshake();
  std::vector<bool> wire_verdicts;
  send_and_collect(ingest, clicks, 1000, wire_verdicts);
  ASSERT_EQ(wire_verdicts.size(), clicks.size());
  const auto dups = static_cast<std::uint64_t>(
      std::count(wire_verdicts.begin(), wire_verdicts.end(), true));

  // Query from a dedicated connection — the ppcd --stats-interval pattern.
  BlockingClient stats;
  stats.connect("127.0.0.1", server.port());
  stats.handshake();
  const wire::StatsReport report = stats.request_stats();
  EXPECT_EQ(report.clicks, clicks.size());
  EXPECT_EQ(report.duplicates, dups);
  EXPECT_GT(report.memory_bits, 0u);
  EXPECT_GT(report.memory_cap_bits, 0u);
  EXPECT_EQ(report.hot_ads, 1u);  // one ad → one pooled detector
  // No tiering on this sink: the tier-specific fields stay zero.
  EXPECT_EQ(report.tail_memory_bits, 0u);
  EXPECT_EQ(report.promotions, 0u);
  EXPECT_EQ(report.hot_target_fpr, 0.0);
}

// STATS round trip against the tiered sink: per-tier accounting arrives
// over the wire exactly as the pool's own stats() reports it.
TEST(ServerE2E, StatsRoundTripOnTieredSinkReportsTiers) {
  TieredConfig tcfg;
  tcfg.memory_cap_bits = std::size_t{1} << 27;
  tcfg.hot_window = core::WindowSpec::sliding_count(256);
  tcfg.tail_window_clicks = 1 << 16;
  tcfg.epoch_clicks = 1 << 10;
  auto pool = build_tiered_pool(tcfg);
  TieredPoolSink sink(*pool);
  IngestServer srv(sink, {});
  const std::uint16_t port = srv.listen("127.0.0.1", 0);
  std::thread loop([&srv] { srv.run(); });

  BlockingClient ingest;
  ingest.connect("127.0.0.1", port);
  ingest.handshake();
  // Hammer one ad hard enough to promote it; repeat ids for duplicates.
  constexpr std::size_t kClicks = 8'192;
  std::vector<wire::ClickRecord> clicks(kClicks);
  for (std::size_t i = 0; i < kClicks; ++i) {
    clicks[i] = {7, static_cast<std::uint64_t>(i / 2), i};
  }
  std::vector<bool> wire_verdicts;
  send_and_collect(ingest, clicks, 1024, wire_verdicts);
  ASSERT_EQ(wire_verdicts.size(), kClicks);
  const auto dups = static_cast<std::uint64_t>(
      std::count(wire_verdicts.begin(), wire_verdicts.end(), true));
  EXPECT_GE(dups, kClicks / 2 - 1);  // every second id is a repeat

  BlockingClient stats;
  stats.connect("127.0.0.1", port);
  stats.handshake();
  const wire::StatsReport report = stats.request_stats();
  EXPECT_EQ(report.clicks, kClicks);
  EXPECT_EQ(report.duplicates, dups);
  EXPECT_EQ(report.hot_clicks + report.tail_clicks, report.clicks);
  EXPECT_EQ(report.hot_ads, 1u) << "ad 7 should have been promoted";
  EXPECT_GE(report.promotions, 1u);
  EXPECT_GT(report.hot_memory_bits, 0u);
  EXPECT_GT(report.tail_memory_bits, 0u);
  EXPECT_EQ(report.memory_bits,
            report.hot_memory_bits + report.tail_memory_bits);
  EXPECT_EQ(report.memory_cap_bits, tcfg.memory_cap_bits);
  EXPECT_EQ(report.hot_target_fpr, tcfg.hot_fpr);
  EXPECT_EQ(report.tail_target_fpr, tcfg.tail_fpr);
  // The wire report agrees field-for-field with the in-process stats.
  const adnet::TierStats direct = pool->stats();
  EXPECT_EQ(report.clicks, direct.clicks);
  EXPECT_EQ(report.memory_bits, direct.memory_bits);
  EXPECT_EQ(report.promotions, direct.promotions);

  srv.stop();
  loop.join();
  (void)srv.drain();
}

}  // namespace
}  // namespace ppc::server
