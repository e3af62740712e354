// ppc_loadgen — load generator and correctness checker for ppcd.
//
//   ppc_loadgen --connect=127.0.0.1:4817 --connections=4 --clicks=1000000
//               --batch=1024 [--inflight=4] [--seed=1] [--verify=on|off]
//               [--window=... --memory-mib=... --hashes=... --backend=...
//                --shards=... --owners=...]
//               (mirror of the ppcd flags; unknown flags exit 2)
//
// Each connection runs on its own thread: a deterministic Zipf click
// stream (stream::MixedTrafficStream, seed = --seed + connection index,
// every click stamped with the connection's OWN ad id so its identifier
// population maps to its own per-ad detector on a --sink=pool server),
// batched into CLICK_BATCH frames with up to --inflight outstanding, with
// per-batch round-trip latency recorded from send to verdict receipt.
//
// With --verify=on (default) the verdict bits received over the wire are
// compared BIT-FOR-BIT against an in-process oracle: the identical click
// stream replayed through a detector built by the same
// server::build_detector config the daemon uses. Because each connection
// owns its ad (hence its detector) the comparison is exact regardless of
// how connections interleave on the server. The DRAIN_ACK totals are
// cross-checked too. Any mismatch exits nonzero.
//
// --v2=on switches to the source-attributed wire: a v2 handshake and
// CLICK_BATCH_V2 frames carrying deterministic per-click source IPs (a
// fifth of each connection's clicks come from 3 "attacker" sources with a
// tiny duplicate-heavy identifier pool; sources are disjoint across
// connections). --verify-enforce=SPEC (implies --v2) additionally wraps
// the oracle in the same EnforcingSink + ReputationLedger ppcd builds for
// --enforce=SPEC, covering the wire-rejection path end to end. It requires
// --connections=1 (the ledger's Space-Saving offender sketch is GLOBAL —
// its count−error evidence bounds depend on every source the daemon has
// seen, so a per-connection replay of a shared ledger is not bit-exact
// once connections interleave) and --inflight=1 (EnforcingSink decides a
// whole offer batch before observing any of it, so verdicts depend on
// offer boundaries; lock-step pins the daemon to one wire frame per
// offer, matching the oracle's chunking).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "enforce/reputation_ledger.hpp"
#include "server/client.hpp"
#include "server/enforcing_sink.hpp"
#include "server/ingest_server.hpp"
#include "server/server_config.hpp"
#include "stream/click.hpp"
#include "stream/generators.hpp"

#include "cli_flags.hpp"

using namespace ppc;
using cli::flag;
using cli::flag_u64;
namespace wire = ppc::server::wire;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--key=value ...]\n"
      "  --connect=HOST:PORT  server address (default 127.0.0.1:4817)\n"
      "  --connections=N      parallel client connections (default 4)\n"
      "  --clicks=N           total clicks across connections (default 1M)\n"
      "  --batch=B            clicks per CLICK_BATCH frame (default 1024)\n"
      "  --inflight=W         outstanding batches per connection (default 4)\n"
      "  --seed=S             stream seed (default 1)\n"
      "  --verify=on|off      oracle verification (default on)\n"
      "  --sndbuf=BYTES       shrink the client sockets' SO_SNDBUF and\n"
      "                       SO_RCVBUF symmetrically (backpressure tests)\n"
      "  --loops=N            acceptance mode: assert the server spread our\n"
      "                       connections across N SO_REUSEPORT loops and\n"
      "                       report per-connection RTT skew (warns instead\n"
      "                       of failing on 1-core hosts)\n"
      "  --v2=on|off          source-attributed CLICK_BATCH_V2 wire\n"
      "                       (default off)\n"
      "  --verify-enforce=SPEC verify against an enforcement oracle built\n"
      "                       from the same spec as ppcd --enforce=SPEC\n"
      "                       (implies --v2=on; requires --connections=1\n"
      "                       and --inflight=1, the defaults in this mode;\n"
      "                       point it at a daemon running the same spec)\n"
      "  --window=SPEC --memory-mib=M --hashes=K --backend=B --shards=S\n"
      "  --owners=T\n"
      "                       mirror of the ppcd detector flags (oracle)\n",
      argv0);
  std::exit(2);
}

/// The deterministic click stream for one connection: Zipf users clicking
/// the connection's own ad. Both the wire path and the oracle replay call
/// this, so they see byte-identical (id, t_us) sequences.
std::vector<wire::ClickRecord> make_clicks(std::uint32_t connection,
                                           std::size_t count,
                                           std::uint64_t seed) {
  stream::MixedTrafficStream::Options opts;
  opts.seed = seed + connection;
  stream::MixedTrafficStream gen(opts);
  std::vector<wire::ClickRecord> clicks(count);
  for (auto& rec : clicks) {
    stream::Click c = gen.next();
    c.ad_id = connection;  // one ad per connection → one detector per conn
    rec = {c.ad_id, stream::click_identifier(c), c.time_us};
  }
  return clicks;
}

/// The v2 stream: same (ad, id, t) base as make_clicks, plus a
/// deterministic source column. Every 5th click comes from one of 3
/// attacker sources and draws its identifier from a 16-id pool — a
/// duplicate rate no honest Zipf source approaches, so an aggressive
/// --enforce spec escalates exactly those sources. Source values embed the
/// connection index, keeping every connection's sources disjoint (which is
/// what makes the per-connection enforcement oracle exact).
std::vector<wire::ClickRecordV2> make_clicks_v2(std::uint32_t connection,
                                                std::size_t count,
                                                std::uint64_t seed) {
  stream::MixedTrafficStream::Options opts;
  opts.seed = seed + connection;
  stream::MixedTrafficStream gen(opts);
  std::vector<wire::ClickRecordV2> clicks(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream::Click c = gen.next();
    c.ad_id = connection;
    wire::ClickRecordV2& rec = clicks[i];
    rec = {c.ad_id, stream::click_identifier(c), c.time_us, 0};
    if (i % 5 == 0) {
      rec.source_ip = 0x0a00'0000u | (connection << 8) | (i % 3);
      rec.click_id = 0xbad0'0000'0000'0000ull | (connection << 8) | (i % 16);
    } else {
      rec.source_ip = 0x6400'0000u | (connection << 8) | (i % 32);
    }
  }
  return clicks;
}

struct ConnResult {
  std::uint64_t clicks = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t server_clicks = 0;      ///< from DRAIN_ACK
  std::uint64_t server_duplicates = 0;  ///< from DRAIN_ACK
  std::uint32_t loop_id = 0;            ///< accepting loop, from HELLO_ACK
  std::vector<double> rtt_us;           ///< one sample per batch
  std::vector<char> verdicts;           ///< wire verdict bits, in order
  std::string error;                    ///< nonempty = connection failed
};

void run_connection(std::uint32_t index, const std::string& host,
                    std::uint16_t port, const std::vector<wire::ClickRecord>& clicks,
                    const std::vector<wire::ClickRecordV2>* clicks_v2,
                    std::size_t batch, std::size_t inflight, int sndbuf,
                    ConnResult& out) {
  try {
    server::BlockingClient client;
    if (sndbuf > 0) {
      // Symmetric kernel budget: --sndbuf throttles both directions of
      // the client socket, not just the outbound half.
      client.set_sndbuf(sndbuf);
      client.set_rcvbuf(sndbuf);
    }
    client.connect(host, port);
    client.handshake(clicks_v2 != nullptr ? wire::kProtocolVersionV2
                                          : wire::kProtocolVersion);
    out.loop_id = client.loop_id();

    const std::size_t total =
        clicks_v2 != nullptr ? clicks_v2->size() : clicks.size();
    const std::size_t total_batches = (total + batch - 1) / batch;
    out.rtt_us.reserve(total_batches);
    out.verdicts.reserve(total);
    std::vector<std::chrono::steady_clock::time_point> sent_at(total_batches);
    std::uint64_t next_send = 0;
    std::uint64_t next_recv = 0;

    auto recv_one = [&]() {
      wire::FrameView frame;
      if (!client.read_frame(frame)) {
        throw std::runtime_error("server closed before all verdicts");
      }
      if (frame.type != wire::FrameType::kVerdictBatch) {
        throw std::runtime_error(std::string("unexpected frame ") +
                                 wire::frame_type_name(frame.type));
      }
      wire::VerdictBatchView view;
      std::string err;
      if (!wire::parse_verdict_batch(frame.payload, view, err)) {
        throw std::runtime_error(err);
      }
      if (view.seq != next_recv) {
        throw std::runtime_error("verdict batches out of order");
      }
      out.rtt_us.push_back(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - sent_at[view.seq])
              .count());
      for (std::uint32_t i = 0; i < view.count; ++i) {
        out.verdicts.push_back(view.duplicate(i) ? 1 : 0);
        out.duplicates += view.duplicate(i) ? 1 : 0;
      }
      out.clicks += view.count;
      ++next_recv;
    };

    while (next_send < total_batches) {
      while (next_send - next_recv >= inflight) recv_one();
      const std::size_t off = next_send * batch;
      const std::size_t n = std::min(batch, total - off);
      sent_at[next_send] = std::chrono::steady_clock::now();
      if (clicks_v2 != nullptr) {
        client.send_click_batch_v2(
            next_send,
            std::span<const wire::ClickRecordV2>(&(*clicks_v2)[off], n));
      } else {
        client.send_click_batch(
            next_send, std::span<const wire::ClickRecord>(&clicks[off], n));
      }
      ++next_send;
    }
    while (next_recv < total_batches) recv_one();

    client.send_drain();
    wire::FrameView frame;
    if (!client.read_frame(frame) ||
        frame.type != wire::FrameType::kDrainAck) {
      throw std::runtime_error("no DRAIN_ACK");
    }
    std::string err;
    if (!wire::parse_drain_ack(frame.payload, out.server_clicks,
                               out.server_duplicates, err)) {
      throw std::runtime_error(err);
    }
  } catch (const std::exception& e) {
    out.error = "connection " + std::to_string(index) + ": " + e.what();
  }
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = cli::parse_flags(
      argc, argv,
      {"connect", "connections", "clicks", "batch", "inflight", "seed",
       "verify", "sndbuf", "loops", "v2", "verify-enforce", "window",
       "memory-mib", "hashes", "backend", "shards", "owners"},
      usage);
  try {
    const auto [host, port] =
        *cli::flag_hostport(flags, "connect", "127.0.0.1:4817");

    const auto connections =
        static_cast<std::uint32_t>(flag_u64(flags, "connections", 4));
    const std::uint64_t total_clicks = flag_u64(flags, "clicks", 1'000'000);
    const std::size_t batch = flag_u64(flags, "batch", 1024);
    // --verify-enforce defaults inflight to 1 (and rejects more below):
    // enforcement verdicts are batch-scoped, see the check after parsing.
    const std::string enforce_spec = flag(flags, "verify-enforce", "");
    const std::size_t inflight = std::max<std::uint64_t>(
        1, flag_u64(flags, "inflight", enforce_spec.empty() ? 4 : 1));
    const enforce::EnforcementPolicy policy =
        enforce_spec.empty()
            ? enforce::EnforcementPolicy{}
            : server::parse_enforce_spec(enforce_spec, "--verify-enforce");
    const std::uint64_t seed = flag_u64(flags, "seed", 1);
    const bool verify = flag(flags, "verify", "on") == "on";
    const bool v2 = flag(flags, "v2", "off") == "on" || !enforce_spec.empty();
    const int sndbuf = static_cast<int>(flag_u64(flags, "sndbuf", 0));
    const std::uint64_t expected_loops = flag_u64(flags, "loops", 0);
    if (connections == 0 || batch == 0 ||
        batch > wire::kMaxClicksPerBatch) {
      usage(argv[0]);
    }
    if (!enforce_spec.empty() && (connections != 1 || inflight != 1)) {
      // Two exactness preconditions. Connections: the ledger's
      // Space-Saving offender sketch is global, so its evidence bounds
      // couple every source the daemon sees — only a single connection
      // replays a shared ledger bit-exactly. Inflight: EnforcingSink
      // decides a whole offer batch before observing any of it, so
      // verdicts depend on offer boundaries — lock-step keeps the daemon
      // at exactly one wire frame per offer, matching the oracle's.
      std::fprintf(stderr,
                   "ppc_loadgen: --verify-enforce requires --connections=1 "
                   "and --inflight=1\n");
      return 2;
    }

    server::DetectorConfig cfg;
    cfg.window = server::parse_window_spec(
        flag(flags, "window", "jumping:1048576:8"));
    cfg.memory_bits = flag_u64(flags, "memory-mib", 16) << 23;
    cfg.hashes = flag_u64(flags, "hashes", 7);
    cfg.backend = server::parse_backend_spec(flag(flags, "backend", "auto"));
    cfg.shards = flag_u64(flags, "shards", 1);
    cfg.owners = flag_u64(flags, "owners", 1);

    // Pre-generate every connection's stream so generation cost is outside
    // the timed window.
    const std::uint64_t per_conn = total_clicks / connections;
    std::printf("ppc_loadgen: %u connection(s) x %llu clicks, batch=%zu, "
                "inflight=%zu, seed=%llu → %s:%u\n",
                connections, static_cast<unsigned long long>(per_conn), batch,
                inflight, static_cast<unsigned long long>(seed), host.c_str(),
                port);
    std::vector<std::vector<wire::ClickRecord>> streams(connections);
    std::vector<std::vector<wire::ClickRecordV2>> streams_v2(connections);
    for (std::uint32_t c = 0; c < connections; ++c) {
      if (v2) {
        streams_v2[c] = make_clicks_v2(c, per_conn, seed);
      } else {
        streams[c] = make_clicks(c, per_conn, seed);
      }
    }

    std::vector<ConnResult> results(connections);
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> threads;
      threads.reserve(connections);
      for (std::uint32_t c = 0; c < connections; ++c) {
        threads.emplace_back(run_connection, c, host, port,
                             std::cref(streams[c]),
                             v2 ? &streams_v2[c] : nullptr, batch, inflight,
                             sndbuf, std::ref(results[c]));
      }
      for (auto& t : threads) t.join();
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::uint64_t clicks = 0, dups = 0;
    std::vector<double> rtts;
    for (const ConnResult& r : results) {
      if (!r.error.empty()) {
        std::fprintf(stderr, "ppc_loadgen: %s\n", r.error.c_str());
        return 1;
      }
      clicks += r.clicks;
      dups += r.duplicates;
      rtts.insert(rtts.end(), r.rtt_us.begin(), r.rtt_us.end());
    }
    std::sort(rtts.begin(), rtts.end());
    std::printf("ppc_loadgen: %llu clicks in %.2f s = %.3f Mclicks/s; "
                "%llu duplicates (%.2f%%)\n",
                static_cast<unsigned long long>(clicks), secs,
                secs > 0 ? static_cast<double>(clicks) / secs / 1e6 : 0.0,
                static_cast<unsigned long long>(dups),
                clicks > 0 ? 100.0 * static_cast<double>(dups) /
                                 static_cast<double>(clicks)
                           : 0.0);
    std::printf("ppc_loadgen: batch round-trip p50=%.0f us p99=%.0f us "
                "(%zu batches)\n",
                percentile(rtts, 0.50), percentile(rtts, 0.99), rtts.size());

    int exit_code = 0;

    if (expected_loops > 0) {
      // Acceptance mode: per-connection RTT skew plus the kernel's
      // SO_REUSEPORT accept spread across the server's loops.
      std::vector<std::uint64_t> per_loop(expected_loops, 0);
      double p50_min = 0.0, p50_max = 0.0;
      bool first = true;
      for (std::uint32_t c = 0; c < connections; ++c) {
        ConnResult& r = results[c];
        std::sort(r.rtt_us.begin(), r.rtt_us.end());
        const double p50 = percentile(r.rtt_us, 0.50);
        std::printf("ppc_loadgen:   conn %u → loop %u: rtt p50=%.0f us "
                    "p99=%.0f us\n",
                    c, r.loop_id, p50, percentile(r.rtt_us, 0.99));
        if (first || p50 < p50_min) p50_min = p50;
        if (first || p50 > p50_max) p50_max = p50;
        first = false;
        if (r.loop_id < expected_loops) {
          ++per_loop[r.loop_id];
        } else {
          std::fprintf(stderr,
                       "ppc_loadgen: conn %u reports loop %u, beyond the "
                       "expected %llu loops\n",
                       c, r.loop_id,
                       static_cast<unsigned long long>(expected_loops));
          exit_code = 1;
        }
      }
      std::printf("ppc_loadgen: rtt skew across connections: p50 max/min = "
                  "%.2fx\n",
                  p50_min > 0 ? p50_max / p50_min : 0.0);
      std::uint64_t empty_loops = 0;
      for (std::uint64_t l = 0; l < expected_loops; ++l) {
        std::printf("ppc_loadgen:   loop %llu accepted %llu connection(s)\n",
                    static_cast<unsigned long long>(l),
                    static_cast<unsigned long long>(per_loop[l]));
        if (per_loop[l] == 0) ++empty_loops;
      }
      if (connections >= expected_loops && empty_loops > 0) {
        // SO_REUSEPORT hashes the 4-tuple, so a small connection count can
        // legitimately collide onto fewer loops; on 1-core hosts the
        // kernel may also favor the loop that is runnable. Warn there,
        // fail only when real parallelism was available.
        if (std::thread::hardware_concurrency() <= 1) {
          std::printf("ppc_loadgen: WARNING: %llu of %llu loops accepted no "
                      "connection (1-core host: accept balancing is "
                      "best-effort)\n",
                      static_cast<unsigned long long>(empty_loops),
                      static_cast<unsigned long long>(expected_loops));
        } else {
          std::fprintf(stderr,
                       "ppc_loadgen: accept balancing FAILED: %llu of %llu "
                       "loops accepted no connection\n",
                       static_cast<unsigned long long>(empty_loops),
                       static_cast<unsigned long long>(expected_loops));
          exit_code = 1;
        }
      }
    }
    for (std::uint32_t c = 0; c < connections; ++c) {
      const ConnResult& r = results[c];
      if (r.server_clicks != r.clicks || r.server_duplicates != r.duplicates) {
        std::fprintf(stderr,
                     "ppc_loadgen: connection %u DRAIN_ACK mismatch: server "
                     "says %llu clicks / %llu dups, client saw %llu / %llu\n",
                     c, static_cast<unsigned long long>(r.server_clicks),
                     static_cast<unsigned long long>(r.server_duplicates),
                     static_cast<unsigned long long>(r.clicks),
                     static_cast<unsigned long long>(r.duplicates));
        exit_code = 1;
      }
    }

    if (verify) {
      std::uint64_t mismatches = 0;
      std::uint64_t oracle_rejected = 0;
      for (std::uint32_t c = 0; c < connections; ++c) {
        const auto& got = results[c].verdicts;
        if (!enforce_spec.empty()) {
          // Enforcement oracle: the exact sink stack ppcd builds for
          // --enforce=SPEC (single-connection mode, so this replay sees
          // the identical click order the daemon's shared ledger saw).
          const auto detector = server::build_detector(cfg);
          server::DetectorSink base(*detector);
          enforce::ReputationLedger ledger(policy);
          server::EnforcingSink oracle_sink(base, ledger);
          const auto& stream = streams_v2[c];
          std::vector<std::uint32_t> ads(batch), sources(batch);
          std::vector<core::ClickId> ids(batch);
          std::vector<std::uint64_t> times(batch);
          std::vector<char> expected(batch);
          for (std::size_t off = 0; off < stream.size(); off += batch) {
            const std::size_t n = std::min(batch, stream.size() - off);
            for (std::size_t i = 0; i < n; ++i) {
              const wire::ClickRecordV2& rec = stream[off + i];
              ads[i] = rec.ad_id;
              ids[i] = rec.click_id;
              times[i] = rec.t_us;
              sources[i] = rec.source_ip;
            }
            oracle_sink.offer_with_sources(
                {ads.data(), n}, {ids.data(), n}, {times.data(), n},
                {sources.data(), n},
                {reinterpret_cast<bool*>(expected.data()), n});
            for (std::size_t i = 0; i < n; ++i) {
              const std::size_t pos = off + i;
              if (pos < got.size() && (got[pos] != 0) != (expected[i] != 0)) {
                if (mismatches < 5) {
                  std::fprintf(
                      stderr,
                      "ppc_loadgen: verdict mismatch conn %u click %zu: "
                      "wire=%d enforce-oracle=%d\n",
                      c, pos, got[pos], expected[i] != 0 ? 1 : 0);
                }
                ++mismatches;
              }
            }
          }
          oracle_rejected += oracle_sink.rejected();
        } else {
          const auto oracle = server::build_detector(cfg);
          const std::size_t count =
              v2 ? streams_v2[c].size() : streams[c].size();
          for (std::size_t i = 0; i < count; ++i) {
            // A non-enforcing daemon ignores the v2 source column, so the
            // plain detector oracle covers both wire dialects.
            const auto [id, t] =
                v2 ? std::pair{streams_v2[c][i].click_id,
                               streams_v2[c][i].t_us}
                   : std::pair{streams[c][i].click_id, streams[c][i].t_us};
            const bool expected = oracle->offer(id, t);
            if (i < got.size() && (got[i] != 0) != expected) {
              if (mismatches < 5) {
                std::fprintf(stderr,
                             "ppc_loadgen: verdict mismatch conn %u click %zu: "
                             "wire=%d oracle=%d\n",
                             c, i, got[i], expected ? 1 : 0);
              }
              ++mismatches;
            }
          }
        }
      }
      if (!enforce_spec.empty()) {
        std::printf("ppc_loadgen: enforce oracle rejected %llu click(s) at "
                    "the wire\n",
                    static_cast<unsigned long long>(oracle_rejected));
      }
      if (mismatches != 0) {
        std::fprintf(stderr,
                     "ppc_loadgen: oracle verification FAILED "
                     "(%llu mismatches)\n",
                     static_cast<unsigned long long>(mismatches));
        exit_code = 1;
      } else {
        std::printf("ppc_loadgen: oracle verification OK — wire verdicts "
                    "bit-identical to in-process replay\n");
      }
    }
    return exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppc_loadgen: %s\n", e.what());
    return 1;
  }
}
