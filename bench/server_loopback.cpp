// End-to-end network ingest throughput vs the in-process ceiling.
//
// Three arms over the same pair of Zipf click streams (two connections,
// each stamping its own ad id → its own per-ad detector, so duplicate
// totals are interleave-independent) and the same DetectorConfig:
//   * inproc      — clicks go straight into PoolSink::offer in
//     micro-batches: the throughput ceiling with zero serialization,
//     zero syscalls;
//   * wire(1 loop) — the same batches framed as CLICK_BATCH, two loopback
//     TCP connections into an IngestServer running one epoll loop, each
//     client pipelining `inflight` frames and consuming every
//     VERDICT_BATCH;
//   * wire(2 loop) — identical clients against a 2-loop SO_REUSEPORT
//     server (each loop an independent producer into the shared sink).
// The gap between inproc and the wire arms is the cost of the network
// ingest subsystem itself (framing + CRC + syscalls + loop scheduling);
// every wire row records it directly as `wire_over_inproc` =
// wire Mclicks/s ÷ inproc Mclicks/s, the number this bench tracks across
// PRs. Batch size is swept because it is the dominant amortizer: at 16 K
// clicks per frame the wire arm should sit within a small factor of
// inproc; at 256 it is syscall-bound.
//
// BENCH_server_loopback.json is this bench's committed output
// (--json=<path>), following the same JsonSeriesWriter + meta conventions
// as BENCH_sharded_throughput.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "bench_util.hpp"
#include "server/client.hpp"
#include "server/ingest_server.hpp"
#include "server/server_config.hpp"
#include "stream/click.hpp"
#include "stream/generators.hpp"

namespace {

using namespace ppc;

constexpr std::size_t kConnections = 2;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<server::wire::ClickRecord> make_clicks(std::uint32_t ad,
                                                   std::size_t count) {
  stream::MixedTrafficStream::Options opts;
  opts.seed = 99 + ad;
  stream::MixedTrafficStream gen(opts);
  std::vector<server::wire::ClickRecord> clicks(count);
  for (auto& rec : clicks) {
    stream::Click c = gen.next();
    c.ad_id = ad;  // one ad per connection → one detector per connection
    rec = {c.ad_id, stream::click_identifier(c), c.time_us};
  }
  return clicks;
}

/// In-process ceiling: the same sink the server would drive, fed directly.
/// Streams run back to back; since each stream owns its ad (hence its
/// detector), the duplicate total matches any wire interleaving exactly.
double run_inproc(
    const server::DetectorConfig& cfg,
    const std::vector<std::vector<server::wire::ClickRecord>>& streams,
    std::size_t batch, std::uint64_t& dups_out) {
  adnet::DetectorPool pool(
      [cfg](std::uint32_t) { return server::build_detector(cfg); });
  server::PoolSink sink(pool);
  std::vector<std::uint32_t> ads(batch);
  std::vector<core::ClickId> ids(batch);
  std::vector<std::uint64_t> times(batch);
  std::vector<char> verdicts(batch);
  std::uint64_t dups = 0;
  const double t0 = now_s();
  for (const auto& clicks : streams) {
    for (std::size_t off = 0; off < clicks.size(); off += batch) {
      const std::size_t n = std::min(batch, clicks.size() - off);
      for (std::size_t i = 0; i < n; ++i) {
        ads[i] = clicks[off + i].ad_id;
        ids[i] = clicks[off + i].click_id;
        times[i] = clicks[off + i].t_us;
      }
      const std::span<bool> out(reinterpret_cast<bool*>(verdicts.data()), n);
      sink.offer({ads.data(), n}, {ids.data(), n}, {times.data(), n}, out);
      for (std::size_t i = 0; i < n; ++i) dups += out[i] ? 1 : 0;
    }
  }
  const double dt = now_s() - t0;
  dups_out = dups;
  return dt;
}

/// One client connection: pump the stream with `inflight` CLICK_BATCH
/// frames outstanding, count every verdict bit. Throws on any protocol
/// surprise (the bench's correctness cross-check catches the rest).
void pump_connection(const std::string& host, std::uint16_t port,
                     const std::vector<server::wire::ClickRecord>& clicks,
                     std::size_t batch, std::size_t inflight,
                     std::uint64_t& dups_out) {
  server::BlockingClient client;
  client.connect(host, port);
  client.handshake();
  std::uint64_t dups = 0;
  std::size_t sent_frames = 0, recv_frames = 0;
  std::uint64_t seq = 0;
  std::size_t off = 0;
  auto recv_one = [&] {
    server::wire::FrameView frame;
    if (!client.read_frame(frame) ||
        frame.type != server::wire::FrameType::kVerdictBatch) {
      throw std::runtime_error("server_loopback: expected VERDICT_BATCH");
    }
    server::wire::VerdictBatchView view;
    std::string err;
    if (!server::wire::parse_verdict_batch(frame.payload, view, err)) {
      throw std::runtime_error("server_loopback: " + err);
    }
    for (std::uint32_t i = 0; i < view.count; ++i) {
      dups += view.duplicate(i) ? 1 : 0;
    }
    ++recv_frames;
  };
  while (off < clicks.size()) {
    const std::size_t n = std::min(batch, clicks.size() - off);
    client.send_click_batch(seq++, {clicks.data() + off, n});
    off += n;
    ++sent_frames;
    if (sent_frames - recv_frames >= inflight) recv_one();
  }
  while (recv_frames < sent_frames) recv_one();
  client.close();
  dups_out = dups;
}

/// Wire arm: kConnections loopback clients against an IngestServer running
/// `loops` SO_REUSEPORT event loops.
double run_wire(
    const server::DetectorConfig& cfg,
    const std::vector<std::vector<server::wire::ClickRecord>>& streams,
    std::size_t batch, std::size_t inflight, std::size_t loops,
    std::uint64_t& dups_out) {
  adnet::DetectorPool pool(
      [cfg](std::uint32_t) { return server::build_detector(cfg); });
  server::PoolSink sink(pool, /*concurrent_detectors=*/cfg.shards > 1);
  server::IngestServer::Options opts;
  opts.loops = loops;
  server::IngestServer ingest(sink, opts);
  const std::uint16_t port = ingest.listen("127.0.0.1", 0);
  std::thread loop([&] { ingest.run(); });

  std::vector<std::uint64_t> dups(streams.size(), 0);
  const double t0 = now_s();
  {
    std::vector<std::thread> clients;
    clients.reserve(streams.size());
    for (std::size_t c = 0; c < streams.size(); ++c) {
      clients.emplace_back(pump_connection, "127.0.0.1", port,
                           std::cref(streams[c]), batch, inflight,
                           std::ref(dups[c]));
    }
    for (auto& t : clients) t.join();
  }
  const double dt = now_s() - t0;

  ingest.stop();
  loop.join();
  ingest.drain();
  dups_out = 0;
  for (const std::uint64_t d : dups) dups_out += d;
  return dt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::Args::parse(argc, argv);
  const std::size_t total = static_cast<std::size_t>(
      args.scaled(std::uint64_t{1} << 23));  // paper run: 8 M clicks

  server::DetectorConfig cfg;
  cfg.window = core::WindowSpec::jumping_count(args.scaled(1 << 22), 8);
  cfg.memory_bits = args.scaled(std::uint64_t{1} << 25);

  std::vector<std::vector<server::wire::ClickRecord>> streams(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    streams[c] = make_clicks(static_cast<std::uint32_t>(c + 1),
                             total / kConnections);
  }
  std::printf("server_loopback: %zu clicks over %zu connection(s), "
              "window %llu\n",
              total, kConnections,
              static_cast<unsigned long long>(cfg.window.length));

  benchutil::JsonSeriesWriter json("server_loopback", args.json);
  json.set_meta("hw_threads",
                static_cast<double>(std::thread::hardware_concurrency()));
  json.set_meta("cpu_model", benchutil::cpu_model_string());
  json.set_meta("clicks", static_cast<double>(total));
  json.set_meta("connections", static_cast<double>(kConnections));
  json.set_meta("loops", 2.0);  // the multi-loop arm's loop count

  benchutil::print_header(
      {"batch", "arm", "Mclicks/s", "wire/inproc", "dups"});
  constexpr std::size_t kInflight = 4;
  for (const std::size_t batch : {std::size_t{256}, std::size_t{1024},
                                  std::size_t{4096}, std::size_t{16384}}) {
    std::uint64_t dups_inproc = 0, dups_wire1 = 0, dups_wire2 = 0;
    const double dt_in = run_inproc(cfg, streams, batch, dups_inproc);
    const double dt_w1 = run_wire(cfg, streams, batch, kInflight, 1,
                                  dups_wire1);
    const double dt_w2 = run_wire(cfg, streams, batch, kInflight, 2,
                                  dups_wire2);
    const double m_in = static_cast<double>(total) / dt_in / 1e6;
    const double m_w1 = static_cast<double>(total) / dt_w1 / 1e6;
    const double m_w2 = static_cast<double>(total) / dt_w2 / 1e6;
    std::printf("%13zu %13s ", batch, "inproc");
    benchutil::print_row({m_in, 1.0, static_cast<double>(dups_inproc)});
    std::printf("%13zu %13s ", batch, "wire-1loop");
    benchutil::print_row({m_w1, m_w1 / m_in, static_cast<double>(dups_wire1)});
    std::printf("%13zu %13s ", batch, "wire-2loop");
    benchutil::print_row({m_w2, m_w2 / m_in, static_cast<double>(dups_wire2)});
    // Identical configs replaying the identical streams must agree exactly;
    // a mismatch means the wire path corrupted or reordered clicks.
    if (dups_inproc != dups_wire1 || dups_inproc != dups_wire2) {
      std::fprintf(stderr,
                   "FAIL: duplicate totals diverge (inproc %llu, "
                   "wire-1loop %llu, wire-2loop %llu)\n",
                   static_cast<unsigned long long>(dups_inproc),
                   static_cast<unsigned long long>(dups_wire1),
                   static_cast<unsigned long long>(dups_wire2));
      return 1;
    }
    json.add("inproc", {{"batch", static_cast<double>(batch)},
                        {"mclicks_per_s", m_in},
                        {"duplicates", static_cast<double>(dups_inproc)}});
    json.add("wire", {{"batch", static_cast<double>(batch)},
                      {"loops", 1.0},
                      {"mclicks_per_s", m_w1},
                      {"inflight", static_cast<double>(kInflight)},
                      {"wire_over_inproc", m_w1 / m_in},
                      {"duplicates", static_cast<double>(dups_wire1)}});
    json.add("wire", {{"batch", static_cast<double>(batch)},
                      {"loops", 2.0},
                      {"mclicks_per_s", m_w2},
                      {"inflight", static_cast<double>(kInflight)},
                      {"wire_over_inproc", m_w2 / m_in},
                      {"duplicates", static_cast<double>(dups_wire2)}});
  }
  json.write();
  return 0;
}
