// ppcd — the click-stream ingest daemon.
//
//   ppcd --listen=127.0.0.1:4817 --window=jumping:1048576:8 [--memory-mib=16]
//        [--hashes=7] [--sink=pool|sharded|tiered] [--shards=8] [--owners=2]
//        [--flush=16384] [--loops=N] [--sndbuf=BYTES]
//        [--snapshot=PATH] [--restore=PATH] [--stats-interval=SECS]
//
// Serves the wire protocol of src/server/wire.hpp on --loops epoll threads,
// each with its own SO_REUSEPORT listener (kernel-balanced accepts).
// --sink=pool (default) routes clicks by ad id through an
// adnet::DetectorPool, creating one detector per ad on first sight;
// --sink=sharded feeds every click into a single core::ShardedDetector
// (--shards/--owners: per-shard mutexes let every epoll thread offer
// concurrently, and --owners>1 fans each batch out across shards);
// --sink=tiered serves an OPEN tenant population through an
// adnet::TieredDetectorPool — dedicated right-sized detectors for the ads
// SpaceSaving flags hot, one shared tail filter for the long tail, all
// inside --memory-cap-mib with promotion deferral instead of length_error.
// With a sink that is not safe for concurrent offers (plain GBF/TBF, an
// unsharded pool, the tiered pool), multi-loop ingest serializes offers
// behind one mutex — correct, but the filter stops scaling; pair
// --loops>1 with --shards>1.
// --stats-interval=SECS starts a reporter thread that queries the server
// over its own wire connection (STATS/STATS_ACK round trip — the same
// frames an external dashboard would use) and prints per-tier memory and
// duplicate accounting every SECS seconds.
// SIGINT/SIGTERM triggers a graceful drain: every loop is quiesced, each
// loop's pending batch is flushed through the detector, every owed verdict
// frame is pushed out with blocking writes, and an op-count summary is
// printed before exit. Any flag not listed in usage is refused (exit 2).
//
// Durability: --snapshot=PATH writes the sink's complete window state at
// drain time (atomically: PATH.tmp + fsync + rename), and --restore=PATH
// seeds the freshly built sink from such a file before listening — a
// restart resumes its decaying windows instead of forgetting the last N
// clicks. A restore whose window spec, shard count, or detector kind does
// not match the command line is refused with a clear error.
//
// Enforcement: --enforce=on wraps the sink in a server::EnforcingSink with
// the default enforce::EnforcementPolicy; --enforce=k=v,... overrides
// individual thresholds (see usage). Clicks on CLICK_BATCH_V2 connections
// from sources the reputation ledger currently blocks are rejected at the
// wire. --blocklist-export=PATH writes the CSV blocklist to PATH and an
// nft-loadable set to PATH.nft at drain; --journal=PATH appends one line
// per tier transition as it happens. With --enforce, --snapshot/--restore
// carry the ledger alongside the window state (composed format — a
// snapshot written without --enforce is refused on restore with it).
//
// Replication: --replicate-listen=HOST:PORT makes this daemon a primary —
// every accepted click batch is retained in a bounded sequence-numbered
// ring and streamed to followers over the framed protocol (REPL_* frames,
// version 3); a follower that falls behind the ring receives a chunked
// snapshot instead. --follow=HOST:PORT makes this daemon a warm standby:
// it builds the SAME sink configuration, replays the primary's stream
// through it (state bit-identical by construction), and holds its ingest
// listener in standby until SIGUSR1 promotes it to serve client traffic;
// SIGTERM during standby drains gracefully (writing --snapshot if set).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "adnet/detector_pool.hpp"
#include "enforce/blocklist_export.hpp"
#include "enforce/reputation_ledger.hpp"
#include "server/client.hpp"
#include "server/enforcing_sink.hpp"
#include "server/ingest_server.hpp"
#include "server/replication.hpp"
#include "server/server_config.hpp"

#include "cli_flags.hpp"

using namespace ppc;
using cli::flag;
using cli::flag_double;
using cli::flag_u64;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--key=value ...]\n"
      "  --listen=HOST:PORT   bind address (default 127.0.0.1:4817)\n"
      "  --window=SPEC        sliding:N | jumping:N:Q | landmark:N |\n"
      "                       sliding-time:SPAN_US:UNIT_US |\n"
      "                       jumping-time:SPAN_US:Q:UNIT_US\n"
      "  --memory-mib=M       filter memory per detector (default 16)\n"
      "  --hashes=K           hash functions (default 7)\n"
      "  --backend=B          auto|gbf|tbf|apbf (default auto = the paper's\n"
      "                       per-window choice)\n"
      "  --sink=pool|sharded|tiered\n"
      "                       pool: per-ad DetectorPool (throws at the cap)\n"
      "                       sharded: one ShardedDetector for every ad\n"
      "                       tiered: adaptive hot/tail TieredDetectorPool\n"
      "                       (open admission under --memory-cap-mib)\n"
      "  --hot-fpr=P          tiered: hot-tier FP target (default 1e-4);\n"
      "                       hot ads get --window detectors sized to it\n"
      "                       (tiered --window default: sliding:4096)\n"
      "  --tail-window=N      tiered: shared tail window in GLOBAL clicks\n"
      "                       (default 1048576)\n"
      "  --tail-fpr=P         tiered: tail FP target (default 1e-3)\n"
      "  --epoch=N            tiered: promotion/demotion cadence in clicks\n"
      "                       (default 65536)\n"
      "  --promote-share=S    tiered: epoch share that promotes (1/512)\n"
      "  --demote-share=S     tiered: epoch share that demotes (1/4096)\n"
      "  --stats-interval=S   print a STATS report every S seconds (via a\n"
      "                       wire round trip, exercising the STATS frame)\n"
      "  --shards=S           shards per detector (default 1 = unsharded)\n"
      "  --owners=T           sharded batch fan-out lanes (default 1)\n"
      "  --flush=N            coalesced-batch flush threshold (default 16384)\n"
      "  --loops=N            epoll event loops, each with an SO_REUSEPORT\n"
      "                       listener (default 1; must be 1..hw threads\n"
      "                       unless --oversubscribe-loops is given)\n"
      "  --oversubscribe-loops allow --loops beyond the hardware threads\n"
      "  --sndbuf=BYTES       shrink per-connection SO_SNDBUF (tests)\n"
      "  --memory-cap-mib=M   DetectorPool total budget (default 1024)\n"
      "  --snapshot=PATH      write window state here on graceful drain\n"
      "                       (atomic: PATH.tmp + fsync + rename)\n"
      "  --restore=PATH       seed window state from a snapshot before\n"
      "                       listening (must match --window/--shards/--sink)\n"
      "  --enforce=on|SPEC    tiered enforcement on v2 traffic: SPEC is\n"
      "                       k=v[,k=v...] over flag-rate, discount-rate,\n"
      "                       block-rate, flag-min, discount-min, block-min,\n"
      "                       blatant-rate, blatant-min, demote-ratio,\n"
      "                       half-life-us, ttl-us, rate-alpha, min-clicks,\n"
      "                       max-sources, by-publisher (e.g.\n"
      "                       --enforce=block-rate=0.6,ttl-us=30000000)\n"
      "  --blocklist-export=PATH\n"
      "                       with --enforce: write the CSV blocklist to\n"
      "                       PATH and an nft-loadable set to PATH.nft at\n"
      "                       graceful drain\n"
      "  --journal=PATH       with --enforce: append one line per tier\n"
      "                       transition (flushed as it happens)\n"
      "  --replicate-listen=HOST:PORT\n"
      "                       primary: stream accepted batches to followers\n"
      "                       from this address (REPL_* frames, protocol 3)\n"
      "  --repl-ring-batches=N / --repl-ring-mib=M\n"
      "                       primary: replication ring bounds (default\n"
      "                       4096 batches / 256 MiB); followers behind the\n"
      "                       ring catch up via a snapshot transfer\n"
      "  --follow=HOST:PORT   warm standby: replay the primary's stream\n"
      "                       through an identically configured sink;\n"
      "                       SIGUSR1 promotes (starts serving clients),\n"
      "                       SIGTERM drains (excludes --restore — the\n"
      "                       follower catches up from the primary)\n",
      argv0);
  std::exit(2);
}

/// "k=v,k=v" → EnforcementPolicy; "on"/"1" keeps every default. Throws
/// std::invalid_argument on unknown keys (and the ledger constructor
/// rejects inconsistent threshold combinations).
enforce::EnforcementPolicy parse_enforce_spec(const std::string& spec) {
  enforce::EnforcementPolicy p;
  if (spec == "on" || spec == "1") return p;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--enforce: expected k=v, got '" + item +
                                  "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "flag-rate") p.flag_rate = std::stod(value);
    else if (key == "discount-rate") p.discount_rate = std::stod(value);
    else if (key == "block-rate") p.block_rate = std::stod(value);
    else if (key == "flag-min") p.flag_min_duplicates = std::stoull(value);
    else if (key == "discount-min") p.discount_min_duplicates = std::stoull(value);
    else if (key == "block-min") p.block_min_duplicates = std::stoull(value);
    else if (key == "blatant-rate") p.blatant_rate = std::stod(value);
    else if (key == "blatant-min") p.blatant_min_duplicates = std::stoull(value);
    else if (key == "demote-ratio") p.demote_ratio = std::stod(value);
    else if (key == "half-life-us") p.score_half_life_us = std::stoull(value);
    else if (key == "ttl-us") p.block_ttl_us = std::stoull(value);
    else if (key == "rate-alpha") p.rate_alpha = std::stod(value);
    else if (key == "min-clicks") p.min_clicks = std::stoull(value);
    else if (key == "max-sources") p.max_sources = std::stoull(value);
    else if (key == "by-publisher") p.key_by_publisher = value == "1" || value == "true";
    else throw std::invalid_argument("--enforce: unknown key '" + key + "'");
  }
  return p;
}

server::IngestServer* g_server = nullptr;

void handle_signal(int /*signum*/) {
  if (g_server != nullptr) g_server->stop();  // one eventfd write: safe here
}

// Standby-mode signals only set flags: the event loops are not running
// yet, so there is nothing to stop() — the standby wait loop polls these.
volatile std::sig_atomic_t g_promote = 0;
volatile std::sig_atomic_t g_standby_stop = 0;
void handle_promote(int /*signum*/) { g_promote = 1; }
void handle_standby_stop(int /*signum*/) { g_standby_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const auto flags = cli::parse_flags(
      argc, argv,
      {"listen", "window", "memory-mib", "hashes", "backend", "sink",
       "hot-fpr", "tail-window", "tail-fpr", "epoch", "promote-share",
       "demote-share", "stats-interval", "shards", "owners", "flush",
       "loops", "oversubscribe-loops", "sndbuf", "memory-cap-mib",
       "snapshot", "restore", "enforce", "blocklist-export", "journal",
       "replicate-listen", "repl-ring-batches", "repl-ring-mib", "follow"},
      usage);
  try {
    const auto parse_hostport =
        [argv](const std::string& spec) -> std::pair<std::string,
                                                     std::uint16_t> {
      const auto colon = spec.rfind(':');
      if (colon == std::string::npos) usage(argv[0]);
      return {spec.substr(0, colon),
              static_cast<std::uint16_t>(std::stoul(spec.substr(colon + 1)))};
    };
    const auto [host, port] =
        parse_hostport(flag(flags, "listen", "127.0.0.1:4817"));

    server::DetectorConfig cfg;
    cfg.window = server::parse_window_spec(
        flag(flags, "window", "jumping:1048576:8"));
    cfg.memory_bits = flag_u64(flags, "memory-mib", 16) << 23;  // MiB → bits
    cfg.hashes = flag_u64(flags, "hashes", 7);
    cfg.backend = server::parse_backend_spec(flag(flags, "backend", "auto"));
    cfg.shards = flag_u64(flags, "shards", 1);
    cfg.owners = flag_u64(flags, "owners", 1);

    server::IngestServer::Options opts;
    opts.flush_clicks = flag_u64(flags, "flush", 16384);
    opts.snapshot_path = flag(flags, "snapshot", "");
    opts.loop.sndbuf_bytes =
        static_cast<int>(flag_u64(flags, "sndbuf", 0));
    opts.loops = flag_u64(flags, "loops", 1);
    if (opts.loops == 0) {
      std::fprintf(stderr,
                   "ppcd: --loops=0 is invalid: the server needs at least "
                   "one event loop (use --loops=1 for the single-threaded "
                   "server)\n");
      return 2;
    }
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    if (opts.loops > hw && !flags.contains("oversubscribe-loops")) {
      std::fprintf(stderr,
                   "ppcd: --loops=%zu exceeds the %zu hardware thread%s — "
                   "extra loops only add context switches; pass "
                   "--oversubscribe-loops to force it (tests)\n",
                   opts.loops, hw, hw == 1 ? "" : "s");
      return 2;
    }

    // Sink construction. Objects outlive the server; declared first.
    std::unique_ptr<core::DuplicateDetector> detector;
    std::unique_ptr<adnet::DetectorPool> pool;
    std::unique_ptr<adnet::TieredDetectorPool> tiered;
    std::unique_ptr<server::ClickSink> sink;
    const std::string sink_kind = flag(flags, "sink", "pool");
    if (sink_kind == "sharded") {
      detector = server::build_detector(cfg);
      sink = std::make_unique<server::DetectorSink>(*detector);
    } else if (sink_kind == "pool") {
      adnet::DetectorPoolOptions pool_opts;
      pool_opts.memory_cap_bits =
          flag_u64(flags, "memory-cap-mib", 1024) << 23;
      pool = std::make_unique<adnet::DetectorPool>(
          [cfg](std::uint32_t) { return server::build_detector(cfg); },
          pool_opts);
      // shards > 1 → the factory builds ShardedDetectors, which are
      // individually thread-safe, so multi-loop offers need no serializing.
      sink = std::make_unique<server::PoolSink>(*pool, nullptr,
                                                /*concurrent_detectors=*/
                                                cfg.shards > 1);
    } else if (sink_kind == "tiered") {
      server::TieredConfig tcfg;
      tcfg.memory_cap_bits = flag_u64(flags, "memory-cap-mib", 1024) << 23;
      // Per-hot-ad windows default small (sliding:4096) — the daemon-wide
      // --window default of jumping:1048576:8 is a single-population
      // setting and would make every promotion cost megabits.
      tcfg.hot_window = flags.contains("window")
                            ? cfg.window
                            : core::WindowSpec::sliding_count(1 << 12);
      tcfg.hot_fpr = flag_double(flags, "hot-fpr", 1e-4);
      tcfg.tail_window_clicks =
          flag_u64(flags, "tail-window", std::uint64_t{1} << 20);
      tcfg.tail_fpr = flag_double(flags, "tail-fpr", 1e-3);
      tcfg.epoch_clicks = flag_u64(flags, "epoch", std::uint64_t{1} << 16);
      tcfg.promote_share = flag_double(flags, "promote-share", 1.0 / 512);
      tcfg.demote_share = flag_double(flags, "demote-share", 1.0 / 4096);
      tiered = server::build_tiered_pool(tcfg);
      sink = std::make_unique<server::TieredPoolSink>(*tiered);
    } else {
      usage(argv[0]);
    }

    // Enforcement wrap: the EnforcingSink decorates whatever sink was
    // built above, so every sink kind gains wire-level blocking.
    std::unique_ptr<enforce::ReputationLedger> ledger;
    std::unique_ptr<enforce::DecisionJournal> journal;
    std::unique_ptr<server::EnforcingSink> enforcing;
    server::ClickSink* active = sink.get();
    const std::string enforce_spec = flag(flags, "enforce", "");
    const std::string blocklist_path = flag(flags, "blocklist-export", "");
    if (!enforce_spec.empty()) {
      ledger = std::make_unique<enforce::ReputationLedger>(
          parse_enforce_spec(enforce_spec));
      const std::string journal_path = flag(flags, "journal", "");
      if (!journal_path.empty()) {
        journal = std::make_unique<enforce::DecisionJournal>(journal_path);
        ledger->set_transition_callback(
            [j = journal.get()](const enforce::TierTransition& t) {
              j->append(t);
            });
      }
      enforcing = std::make_unique<server::EnforcingSink>(*sink, *ledger);
      active = enforcing.get();
    } else if (!blocklist_path.empty() || flags.contains("journal")) {
      std::fprintf(stderr,
                   "ppcd: --blocklist-export/--journal require --enforce\n");
      return 2;
    }

    // Replication roles. A node is a primary (--replicate-listen) or a
    // standby (--follow), never both: a promoted standby has applied
    // clicks that never went through its own ingest flush path, so its
    // ring could not serve a second-tier follower faithfully.
    const std::string repl_listen = flag(flags, "replicate-listen", "");
    const std::string follow = flag(flags, "follow", "");
    if (!repl_listen.empty() && !follow.empty()) {
      std::fprintf(stderr,
                   "ppcd: --replicate-listen and --follow are mutually "
                   "exclusive (a node is a primary or a standby)\n");
      return 2;
    }
    if ((flags.contains("repl-ring-batches") ||
         flags.contains("repl-ring-mib")) &&
        repl_listen.empty()) {
      std::fprintf(stderr,
                   "ppcd: --repl-ring-* require --replicate-listen\n");
      return 2;
    }

    const std::string restore_path = flag(flags, "restore", "");
    if (!follow.empty() && !restore_path.empty()) {
      std::fprintf(stderr,
                   "ppcd: --follow excludes --restore: the follower "
                   "catches up from the primary (ring replay or snapshot "
                   "transfer), seeding it locally would fork the state\n");
      return 2;
    }
    if (!restore_path.empty()) {
      server::IngestServer::restore_sink_snapshot(*active, restore_path);
      std::printf("ppcd: restored window state from %s\n",
                  restore_path.c_str());
      std::fflush(stdout);
    }

    std::unique_ptr<server::ReplicationLog> repl_log;
    if (!repl_listen.empty()) {
      server::ReplicationLog::Options ro;
      ro.max_batches = flag_u64(flags, "repl-ring-batches", 4096);
      ro.max_bytes = flag_u64(flags, "repl-ring-mib", 256) << 20;
      if (!restore_path.empty()) {
        // The restored baseline stands in for sequence 1 but was never
        // appended to the ring, so ring replay from 1 would silently skip
        // it and hand followers a diverged sink. Starting the ring at 2
        // makes a fresh follower's cursor (1) fall below first_seq(),
        // which routes it through the snapshot catch-up path — the only
        // transfer that carries the baseline.
        ro.start_seq = 2;
      }
      repl_log = std::make_unique<server::ReplicationLog>(ro);
      opts.replication = repl_log.get();
    }

    server::IngestServer srv(*active, opts);
    const std::uint16_t bound = srv.listen(host, port);
    g_server = &srv;
    std::signal(SIGPIPE, SIG_IGN);

    // Warm-standby phase: replay the primary's stream until a signal
    // resolves this daemon's fate. The ingest listener above is already
    // bound — clients that connect early queue in the accept backlog and
    // are served the moment the promoted loops start.
    std::unique_ptr<server::ReplicationApplier> applier;
    if (!follow.empty()) {
      const auto [fhost, fport] = parse_hostport(follow);
      applier = std::make_unique<server::ReplicationApplier>(*active);
      server::ReplicationFollower repl_follower(fhost, fport, *applier);
      std::signal(SIGUSR1, handle_promote);
      std::signal(SIGINT, handle_standby_stop);
      std::signal(SIGTERM, handle_standby_stop);
      std::printf("ppcd: standby on %s:%u following %s:%u — sink=%s "
                  "(SIGUSR1 promotes)\n",
                  host.c_str(), bound, fhost.c_str(), fport,
                  active->describe().c_str());
      std::fflush(stdout);
      repl_follower.start();
      while (g_promote == 0 && g_standby_stop == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      repl_follower.stop();
      if (g_standby_stop != 0) {
        // Graceful standby drain: everything applied is consistent (the
        // applier stops between batches), so the snapshot is as valid as
        // a primary's drain snapshot at the same sequence.
        if (!opts.snapshot_path.empty()) {
          server::IngestServer::save_sink_snapshot(*active,
                                                   opts.snapshot_path);
          std::printf("ppcd: snapshot written to %s\n",
                      opts.snapshot_path.c_str());
        }
        std::printf(
            "ppcd: follower drained. applied_seq=%llu clicks=%llu "
            "batches=%llu snapshots=%llu reconnects=%llu\n",
            static_cast<unsigned long long>(applier->next_seq() - 1),
            static_cast<unsigned long long>(applier->clicks_applied()),
            static_cast<unsigned long long>(applier->batches_applied()),
            static_cast<unsigned long long>(applier->snapshots_applied()),
            static_cast<unsigned long long>(repl_follower.reconnects()));
        return 0;
      }
      std::printf("ppcd: promoted — applied_seq=%llu clicks=%llu "
                  "snapshots=%llu reconnects=%llu\n",
                  static_cast<unsigned long long>(applier->next_seq() - 1),
                  static_cast<unsigned long long>(applier->clicks_applied()),
                  static_cast<unsigned long long>(applier->snapshots_applied()),
                  static_cast<unsigned long long>(repl_follower.reconnects()));
      std::fflush(stdout);
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::printf("ppcd: listening on %s:%u — sink=%s window=%s "
                "shards=%zu owners=%zu flush=%zu loops=%zu\n",
                host.c_str(), bound, active->describe().c_str(),
                cfg.window.describe().c_str(), cfg.shards, cfg.owners,
                opts.flush_clicks, opts.loops);
    std::fflush(stdout);

    std::unique_ptr<server::ReplicationSource> repl_source;
    if (repl_log) {
      const auto [rhost, rport] = parse_hostport(repl_listen);
      repl_source = std::make_unique<server::ReplicationSource>(
          *repl_log, [&srv](std::uint64_t& base_seq) {
            return srv.replication_snapshot(base_seq);
          });
      const std::uint16_t rbound = repl_source->listen(rhost, rport);
      repl_source->start();
      std::printf("ppcd: replicating on %s:%u (ring: %llu batches / "
                  "%llu MiB)\n",
                  rhost.c_str(), rbound,
                  static_cast<unsigned long long>(
                      flag_u64(flags, "repl-ring-batches", 4096)),
                  static_cast<unsigned long long>(
                      flag_u64(flags, "repl-ring-mib", 256)));
      std::fflush(stdout);
    }

    // Periodic stats reporter: a dedicated wire connection per sample so
    // the STATS round trip exercises the production frame path end to end
    // (and never races a verdict stream on an ingest connection).
    std::atomic<bool> stats_stop{false};
    std::thread stats_thread;
    const std::uint64_t stats_interval = flag_u64(flags, "stats-interval", 0);
    if (stats_interval > 0) {
      const std::string stats_host =
          (host == "0.0.0.0" || host.empty()) ? "127.0.0.1" : host;
      stats_thread = std::thread([&stats_stop, stats_host, bound,
                                  stats_interval] {
        const auto period = std::chrono::seconds(stats_interval);
        auto next = std::chrono::steady_clock::now() + period;
        while (!stats_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          if (std::chrono::steady_clock::now() < next) continue;
          next += period;
          try {
            server::BlockingClient client;
            client.connect(stats_host, bound);
            client.handshake();
            const server::wire::StatsReport r = client.request_stats();
            std::printf(
                "ppcd: stats: clicks=%llu duplicates=%llu "
                "memory_bits=%llu/%llu | hot: ads=%llu bits=%llu "
                "clicks=%llu dup=%llu fpr_target=%g | tail: bits=%llu "
                "clicks=%llu dup=%llu fpr_target=%g | promotions=%llu "
                "demotions=%llu deferrals=%llu\n",
                static_cast<unsigned long long>(r.clicks),
                static_cast<unsigned long long>(r.duplicates),
                static_cast<unsigned long long>(r.memory_bits),
                static_cast<unsigned long long>(r.memory_cap_bits),
                static_cast<unsigned long long>(r.hot_ads),
                static_cast<unsigned long long>(r.hot_memory_bits),
                static_cast<unsigned long long>(r.hot_clicks),
                static_cast<unsigned long long>(r.hot_duplicates),
                r.hot_target_fpr,
                static_cast<unsigned long long>(r.tail_memory_bits),
                static_cast<unsigned long long>(r.tail_clicks),
                static_cast<unsigned long long>(r.tail_duplicates),
                r.tail_target_fpr,
                static_cast<unsigned long long>(r.promotions),
                static_cast<unsigned long long>(r.demotions),
                static_cast<unsigned long long>(r.promotion_deferrals));
            std::fflush(stdout);
          } catch (const std::exception& e) {
            // Shutdown races (listener already gone) are expected; anything
            // else is worth a line but never fatal to the daemon.
            if (!stats_stop.load(std::memory_order_relaxed)) {
              std::fprintf(stderr, "ppcd: stats: %s\n", e.what());
            }
          }
        }
      });
    }

    const auto t0 = std::chrono::steady_clock::now();
    srv.run();
    stats_stop.store(true, std::memory_order_relaxed);
    if (stats_thread.joinable()) stats_thread.join();
    const auto st = srv.drain();
    if (repl_source) {
      // The drain's final flush appended its batches to the ring; give the
      // standby a bounded window to pull and acknowledge them so a planned
      // failover (SIGTERM primary, SIGUSR1 follower) hands over the
      // complete stream.
      const std::uint64_t last = repl_log->next_seq() - 1;
      if (last > 0 && !repl_source->wait_followers_caught_up(last, 10000)) {
        std::fprintf(stderr,
                     "ppcd: warning: a follower had not acknowledged seq "
                     "%llu at shutdown\n",
                     static_cast<unsigned long long>(last));
      }
      repl_source->stop();
      std::printf(
          "ppcd: replication: batches=%llu clicks=%llu evicted=%llu "
          "followers=%zu\n",
          static_cast<unsigned long long>(repl_log->next_seq() - 1),
          static_cast<unsigned long long>(repl_log->appended_clicks()),
          static_cast<unsigned long long>(repl_log->evicted_batches()),
          repl_source->sessions_accepted());
    }
    if (!opts.snapshot_path.empty()) {
      std::printf("ppcd: snapshot written to %s\n", opts.snapshot_path.c_str());
    }
    if (enforcing) {
      const enforce::ReputationLedger::Stats es = ledger->stats();
      std::printf(
          "ppcd: enforce: sources=%llu flagged=%llu discounted=%llu "
          "blocked=%llu rejected=%llu promotions=%llu demotions=%llu "
          "block_expiries=%llu\n",
          static_cast<unsigned long long>(es.sources),
          static_cast<unsigned long long>(es.flagged),
          static_cast<unsigned long long>(es.discounted),
          static_cast<unsigned long long>(es.blocked),
          static_cast<unsigned long long>(enforcing->rejected()),
          static_cast<unsigned long long>(es.promotions),
          static_cast<unsigned long long>(es.demotions),
          static_cast<unsigned long long>(es.block_expiries));
      if (!blocklist_path.empty()) {
        const auto write_text = [](const std::string& path,
                                   const std::string& text) {
          std::FILE* f = std::fopen(path.c_str(), "w");
          if (f == nullptr) {
            throw std::runtime_error("ppcd: cannot write " + path);
          }
          std::fwrite(text.data(), 1, text.size(), f);
          std::fclose(f);
        };
        write_text(blocklist_path, enforce::export_csv(*ledger));
        write_text(blocklist_path + ".nft", enforce::export_nftables(*ledger));
        std::printf("ppcd: blocklist written to %s (+.nft)\n",
                    blocklist_path.c_str());
      }
    }
    const auto ls = srv.loop_stats();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf(
        "ppcd: drained. clicks=%llu duplicates=%llu frames=%llu "
        "flushes=%llu pings=%llu drains=%llu protocol_errors=%llu\n"
        "ppcd: connections accepted=%llu closed=%llu "
        "backpressure_pauses=%llu bytes_in=%llu bytes_out=%llu\n"
        "ppcd: %.1f s, %.3f Mclicks/s\n",
        static_cast<unsigned long long>(st.clicks),
        static_cast<unsigned long long>(st.duplicates),
        static_cast<unsigned long long>(st.click_frames),
        static_cast<unsigned long long>(st.flushes),
        static_cast<unsigned long long>(st.pings),
        static_cast<unsigned long long>(st.drains),
        static_cast<unsigned long long>(st.protocol_errors),
        static_cast<unsigned long long>(ls.accepted),
        static_cast<unsigned long long>(ls.closed),
        static_cast<unsigned long long>(ls.backpressure_pauses),
        static_cast<unsigned long long>(ls.bytes_in),
        static_cast<unsigned long long>(ls.bytes_out), secs,
        secs > 0 ? static_cast<double>(st.clicks) / secs / 1e6 : 0.0);
    if (srv.loops() > 1) {
      for (std::size_t i = 0; i < srv.loops(); ++i) {
        const auto per = srv.loop_stats(i);
        std::printf("ppcd:   loop %zu: accepted=%llu bytes_in=%llu "
                    "bytes_out=%llu\n",
                    i, static_cast<unsigned long long>(per.accepted),
                    static_cast<unsigned long long>(per.bytes_in),
                    static_cast<unsigned long long>(per.bytes_out));
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppcd: %s\n", e.what());
    return 1;
  }
}
