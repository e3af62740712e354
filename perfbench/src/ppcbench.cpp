// ppcbench — the ppcd benchmark harness.
//
//   ppcbench wire  --workload=NAME --seed=N --seconds=S --ppcd=PATH --workdir=DIR
//   ppcbench trace --workload=NAME --seed=N --seconds=S --ppcd=PATH --workdir=DIR
//   [--inject=oracle-flip|follower-skip]
//
// `wire` starts the real ppcd as a child process, times its set-up, drives
// it open loop at the workload's fixed rate and then closed loop for the
// peak rate, drains it, and checks every verdict (see verify()). `trace`
// runs a shorter open-loop wire phase for the daemon's own counters, then
// replays the same seeded stream in-process through each layer's public
// functions with spans recorded around every call, and attributes the cost
// to the layers. Both print one JSON object: metrics with units, the
// failed/attempted click counts, and every check that failed.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <csignal>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/exact_detectors.hpp"
#include "core/composite_key.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/snapshot_io.hpp"
#include "core/timing_bloom_filter.hpp"
#include "daemon.hpp"
#include "loadgen.hpp"
#include "hashing/index_family.hpp"
#include "server/replication.hpp"
#include "stacks.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string ppcd;
  std::string workdir = ".";
  std::string inject;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void info(const std::string& name, double value) { info_[name] = value; }
  void fail_check(const std::string& what) { checks_failed_.push_back(what); }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return checks_failed_.empty() && failed == 0; }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("\"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      // A non-finite figure (a missing verdict is infinitely late) is
      // not a number JSON can carry: it prints as null.
      std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
      if (std::isfinite(m.value)) {
        std::printf("%.9g", m.value);
      } else {
        std::printf("null");
      }
      std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    }
    std::printf("}, \"info\": {");
    bool first = true;
    for (const auto& [k, v] : info_) {
      std::printf(std::isfinite(v) ? "%s\"%s\": %.9g" : "%s\"%s\": null",
                  first ? "" : ", ", k.c_str(), v);
      first = false;
    }
    std::printf("}, \"failed_checks\": [");
    for (std::size_t i = 0; i < checks_failed_.size(); ++i) {
      std::string s = checks_failed_[i];
      std::replace(s.begin(), s.end(), '"', '\'');
      std::replace(s.begin(), s.end(), '\n', ' ');
      std::printf("%s\"%s\"", i ? ", " : "", s.c_str());
    }
    std::printf("]}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::map<std::string, double> info_;
  std::vector<std::string> checks_failed_;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// The follower's top sink: forwards to the replica's stack, notes when the
/// snapshot catch-up finished, and (fault injection) drops one batch.
class FollowerSink final : public server::ClickSink {
 public:
  FollowerSink(server::ClickSink& inner, bool skip_one)
      : inner_(inner), skip_one_(skip_one) {}
  void offer(std::span<const std::uint32_t> a,
             std::span<const core::ClickId> i,
             std::span<const std::uint64_t> t, std::span<bool> out) override {
    if (skip()) return;
    inner_.offer(a, i, t, out);
  }
  void offer_with_sources(std::span<const std::uint32_t> a,
                          std::span<const core::ClickId> i,
                          std::span<const std::uint64_t> t,
                          std::span<const std::uint32_t> s,
                          std::span<bool> out) override {
    if (skip()) return;
    inner_.offer_with_sources(a, i, t, s, out);
  }
  std::string describe() const override { return inner_.describe(); }
  bool supports_snapshots() const noexcept override { return true; }
  void save_state(std::ostream& out) const override { inner_.save_state(out); }
  void restore_state(std::istream& in) override {
    inner_.restore_state(in);
    restored_ns.store(now_ns());
  }
  std::atomic<std::int64_t> restored_ns{0};

 private:
  bool skip() {
    // The third batch after catch-up: late enough that the snapshot
    // transfer cannot paper over it.
    return skip_one_ && restored_ns.load() != 0 && ++offers_ == 3;
  }
  server::ClickSink& inner_;
  bool skip_one_;
  int offers_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

// ---------------------------------------------------------------------------
// Wire run.

struct WirePlan {
  double warm_seconds = 0;  ///< untimed open loop before the measured one
  double open_seconds = 0;
  double peak_seconds = 0;  ///< 0: no closed-loop phase
  std::uint32_t setups = 1;
  bool follower = false;
};

struct WireOutcome {
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<std::vector<char>> warm_verdicts;  ///< per conn, in-process
  std::vector<std::uint64_t> open_begin, open_end;  ///< per conn, stream index
  std::uint64_t open_clicks = 0;
  double cpu_ns_per_click = 0;
  double late_p99_ms = 0;
  long long flushes = -1;
  long long daemon_clicks = -1;
  long long backpressure = -1;
};

void new_connections(const WorkloadSpec& w, const Options& o, WireOutcome& out) {
  out.conns.clear();
  for (unsigned c = 0; c < w.connections; ++c) {
    out.conns.push_back(std::make_unique<Connection>(w, o.seed, c));
    out.conns.back()->skip(w.warm_clicks);
  }
}

template <typename Fn>
void each_connection(WireOutcome& out, Fn fn) {
  std::vector<std::thread> threads;
  std::vector<std::string> errors(out.conns.size());
  for (std::size_t c = 0; c < out.conns.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        fn(c, *out.conns[c]);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
}

void run_wire(const Options& o, const WorkloadSpec& w, const WirePlan& plan,
              Report& rep, WireOutcome& out) {
  std::vector<std::string> args = w.daemon_args;
  args.push_back("--listen=127.0.0.1:0");
  const std::string primary_snap = o.workdir + "/primary.snap";
  out.warm_verdicts.assign(w.connections, {});
  if (w.warm_clicks > 0) {
    // Warm-up: the daemon's own stack, in-process, fed each connection's
    // first warm_clicks clicks; ppcd restores the snapshot it leaves.
    auto stack = build_stack(w, nullptr);
    std::vector<std::unique_ptr<ClickStream>> streams;
    for (unsigned c = 0; c < w.connections; ++c) {
      streams.push_back(std::make_unique<ClickStream>(w, o.seed, c));
      out.warm_verdicts[c].reserve(w.warm_clicks);
    }
    FrameCols cols;
    std::vector<char> v;
    const std::uint32_t chunk = 4096;
    for (std::uint64_t done = 0; done < w.warm_clicks; done += chunk) {
      for (unsigned c = 0; c < w.connections; ++c) {
        cols.fill(*streams[c], chunk, nullptr);
        v.assign(chunk, 0);
        stack->top->offer_with_sources(
            cols.ads, cols.ids, cols.times, cols.sources,
            {reinterpret_cast<bool*>(v.data()), chunk});
        out.warm_verdicts[c].insert(out.warm_verdicts[c].end(), v.begin(),
                                    v.end());
      }
    }
    server::IngestServer::save_sink_snapshot(*stack->top,
                                             o.workdir + "/warm.snap");
    args.push_back("--restore=" + o.workdir + "/warm.snap");
  }
  if (w.replicated) {
    args.push_back("--replicate-listen=127.0.0.1:0");
    args.push_back("--snapshot=" + primary_snap);
  }

  // Set-up: spawn to HELLO_ACK on every connection, `setups` times; the
  // last daemon serves the run.
  std::unique_ptr<Daemon> daemon;
  std::uint16_t repl_port = 0;
  std::vector<double> setup_s;
  for (std::uint32_t i = 0; i < plan.setups; ++i) {
    if (daemon) {
      for (auto& c : out.conns) c->close();
      daemon->stop();
    }
    new_connections(w, o, out);
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(o.ppcd, args);
    const std::uint16_t port = daemon->wait_port("listening on ");
    for (auto& c : out.conns) c->connect(port);
    for (auto& c : out.conns) c->handshake(10000);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (w.replicated) repl_port = daemon->wait_port("replicating on ");
  }
  rep.info("setup.samples", static_cast<double>(setup_s.size()));
  rep.metric("setup_s", percentile(setup_s, 0.5), "s");
  for (unsigned c = 0; c < w.connections; ++c) {
    const auto& v = out.warm_verdicts[c];
    out.conns[c]->record_local(0, reinterpret_cast<const bool*>(v.data()),
                               v.size());
  }

  // The follower replica (same stack, in this process) joins as the
  // measured phase starts and catches up by snapshot.
  std::unique_ptr<Stack> replica;
  std::unique_ptr<FollowerSink> follower_sink;
  std::unique_ptr<server::ReplicationApplier> applier;
  std::unique_ptr<server::ReplicationFollower> follower;

  // Open loop at the workload's fixed rate: frame k of connection c is due
  // at t0 + (k + c / connections) * interval. An untimed warm phase first
  // lets lazy set-up finish (first-seen ads allocate their detectors,
  // filter pages fault in); then the measured phase.
  const double rate_per_conn = w.open_rate / w.connections;
  const auto interval_ns =
      static_cast<std::int64_t>(w.open_batch / rate_per_conn * 1e9);
  const auto grace_ns =
      static_cast<std::int64_t>(w.deadline_ms * 2e6) + 2'000'000'000;
  std::int64_t follow_start = 0;
  std::uint64_t cpu0 = 0;
  std::vector<double> open_steal;  ///< per one-second slice of the measured phase
  const auto open_phase = [&](double seconds, bool measured) {
    const auto frames = static_cast<std::uint32_t>(
        std::ceil(seconds * rate_per_conn / w.open_batch));
    const std::int64_t t0 = now_ns() + 20'000'000;
    while (now_ns() < t0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (measured) {
      cpu0 = daemon->cpu_ns();
      if (plan.follower) {
        replica = build_stack(w, nullptr);
        follower_sink = std::make_unique<FollowerSink>(
            *replica->top, o.inject == "follower-skip");
        applier = std::make_unique<server::ReplicationApplier>(*follower_sink);
        follower = std::make_unique<server::ReplicationFollower>(
            "127.0.0.1", repl_port, *applier);
        follow_start = now_ns();
        follower->start();
      }
    }
    // Measured phases rotate the daemon over the CPUs second by second.
    std::optional<PinRotation> pin;
    if (measured) pin.emplace(*daemon, w.daemon_cpus, t0, 1'000'000'000);
    each_connection(out, [&](std::size_t c, Connection& conn) {
      conn.run_open(t0 + interval_ns * static_cast<std::int64_t>(c) /
                             static_cast<std::int64_t>(w.connections),
                    interval_ns, frames, w.open_batch, grace_ns);
    });
    if (pin) open_steal = pin->stop();
    return std::pair{t0, interval_ns * frames};
  };
  open_phase(plan.warm_seconds, false);
  std::vector<std::size_t> first_frame;
  for (auto& c : out.conns) {
    out.open_begin.push_back(c->sent_end());
    first_frame.push_back(c->frames().size());
  }
  const auto [t0, span_ns] = open_phase(plan.open_seconds, true);
  const std::uint64_t cpu1 = daemon->cpu_ns();

  // Latency per frame from its due time to its verdict (a missing verdict
  // is infinitely late), in one-second slices of the phase by due time;
  // the reported percentiles are the medians over the slices, so one
  // host hiccup moves one slice, not the run.
  const int kSegments = std::max(3, static_cast<int>(std::lround(plan.open_seconds)));
  std::vector<std::vector<double>> seg_latency(kSegments);
  std::vector<double> latency_ms, late_ms;
  std::uint64_t late_clicks = 0;
  for (std::size_t c = 0; c < out.conns.size(); ++c) {
    const Connection& conn = *out.conns[c];
    out.open_end.push_back(conn.sent_end());
    const auto& fr = conn.frames();
    for (std::size_t i = first_frame[c]; i < fr.size(); ++i) {
      const FrameRec& f = fr[i];
      out.open_clicks += f.count;
      late_ms.push_back(static_cast<double>(f.sent_ns - f.sched_ns) * 1e-6);
      const double lat = f.recv_ns < 0
                             ? INFINITY
                             : static_cast<double>(f.recv_ns - f.sched_ns) * 1e-6;
      latency_ms.push_back(lat);
      const auto seg = std::clamp<std::int64_t>(
          (f.sched_ns - t0) * kSegments / span_ns, 0, kSegments - 1);
      seg_latency[seg].push_back(lat);
      if (lat > w.deadline_ms) late_clicks += f.count;
    }
  }
  std::vector<double> seg_p50, seg_p99;
  for (const auto& v : seg_latency) {
    seg_p50.push_back(percentile(v, 0.50));
    seg_p99.push_back(percentile(v, 0.99));
  }
  out.cpu_ns_per_click =
      static_cast<double>(cpu1 - cpu0) / static_cast<double>(out.open_clicks);
  out.late_p99_ms = percentile(late_ms, 0.99);
  rep.info("verdict.samples", static_cast<double>(latency_ms.size()));
  rep.info("verdict.samples_per_segment",
           static_cast<double>(latency_ms.size()) / kSegments);
  rep.info("verdict.phase_p90_ms", percentile(latency_ms, 0.90));
  rep.info("verdict.phase_p95_ms", percentile(latency_ms, 0.95));
  rep.info("verdict.phase_p99_ms", percentile(latency_ms, 0.99));
  rep.info("verdict.phase_p999_ms", percentile(latency_ms, 0.999));
  rep.info("verdict.phase_max_ms", percentile(latency_ms, 1.0));
  rep.info("gen.phase_p50_late_ms", percentile(late_ms, 0.5));
  rep.info("gen.phase_p999_late_ms", percentile(late_ms, 0.999));
  // Millisecond-long hypervisor steals of the daemon's CPU are what set
  // the tail on a shared host; the report carries how much there was.
  double stolen = 0;
  for (double x : open_steal) stolen += x;
  rep.info("open.daemon_cpu_steal_share",
           stolen / std::max<std::size_t>(1, open_steal.size()));
  rep.info("open.clicks", static_cast<double>(out.open_clicks));
  rep.info("open.rate_clicks_s", w.open_rate);
  rep.info("open.deadline_ms", w.deadline_ms);
  rep.info("open.late_clicks", static_cast<double>(late_clicks));
  rep.info("gen.late_bound_ms", w.late_bound_ms);
  rep.metric("gen.late_p99_ms", out.late_p99_ms, "ms");
  const bool valid = out.late_p99_ms <= w.late_bound_ms;
  if (!valid) {
    rep.fail_check("invalid run: gen.late_p99_ms " +
                   std::to_string(out.late_p99_ms) + " exceeds the bound " +
                   std::to_string(w.late_bound_ms) + " ms");
  } else if (plan.peak_seconds > 0) {
    rep.metric("verdict_p50_ms", percentile(seg_p50, 0.5), "ms");
    rep.metric("verdict_p99_ms", percentile(seg_p99, 0.5), "ms");
  }
  rep.failed += late_clicks;
  rep.metric("server_cpu_ns_per_click", out.cpu_ns_per_click, "ns");

  // Closed loop at fixed connections x inflight x batch.
  if (plan.peak_seconds > 0) {
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(plan.peak_seconds * 1e9);
    const std::int64_t span = static_cast<std::int64_t>(plan.peak_seconds * 1e9);
    std::vector<double> peak_steal;
    {
      // One CPU (set) per slice, as in the open loop.
      PinRotation pin(*daemon, w.daemon_cpus, end - span, span / 4);
      each_connection(out, [&](std::size_t, Connection& conn) {
        conn.run_closed(end, w.peak_batch, w.peak_inflight, 10'000'000'000);
      });
      peak_steal = pin.stop();
    }
    // Verdicted clicks per slice of the phase, over the slice's time minus
    // the time the hypervisor stole the daemon's CPU in it; the median.
    constexpr int kSlices = 4;
    const std::int64_t start = end - span;
    std::vector<double> slice_clicks(kSlices, 0.0);
    for (const auto& conn : out.conns) {
      const auto& fr = conn->frames();
      for (std::size_t i = conn->closed_first_frame(); i < fr.size(); ++i) {
        if (fr[i].recv_ns < start || fr[i].recv_ns >= end) continue;
        slice_clicks[(fr[i].recv_ns - start) * kSlices / span] += fr[i].count;
      }
    }
    std::vector<double> rates, wall_rates;
    const double slice_s = static_cast<double>(span) * 1e-9 / kSlices;
    for (int i = 0; i < kSlices; ++i) {
      const double stolen = i < static_cast<int>(peak_steal.size()) ? peak_steal[i] : 0.0;
      wall_rates.push_back(slice_clicks[i] / slice_s / 1e6);
      rates.push_back(slice_clicks[i] / std::max(0.5 * slice_s, slice_s - stolen) / 1e6);
      rep.info("peak.slice" + std::to_string(i) + "_steal_s", stolen);
    }
    rep.info("peak.wall_mclicks_s", percentile(wall_rates, 0.5));
    rep.metric("peak_mclicks_s", percentile(rates, 0.5), "Mclicks/s");
  }

  // Drain: DRAIN_ACK totals must match what this client counted.
  for (std::size_t c = 0; c < out.conns.size(); ++c) {
    Connection& conn = *out.conns[c];
    if (!conn.drain(10000)) {
      rep.fail_check("conn " + std::to_string(c) + ": no DRAIN_ACK");
      rep.failed += conn.clicks_sent();
    } else if (conn.ack_clicks() != conn.clicks_sent() ||
               conn.ack_dups() != conn.dups_received()) {
      rep.fail_check("conn " + std::to_string(c) + ": DRAIN_ACK " +
                     std::to_string(conn.ack_clicks()) + "/" +
                     std::to_string(conn.ack_dups()) + " vs client " +
                     std::to_string(conn.clicks_sent()) + "/" +
                     std::to_string(conn.dups_received()));
      rep.failed += conn.clicks_sent();
    }
  }
  std::uint64_t clicks = 0;
  for (const auto& conn : out.conns) clicks += conn->clicks_sent();
  rep.attempted = clicks;
  rep.metric("server_rss_mib", static_cast<double>(daemon->hwm_kib()) / 1024.0,
             "MiB");
  for (auto& c : out.conns) c->close();
  const int status = daemon->stop();
  if (status != 0) {
    rep.fail_check("ppcd exited with status " + std::to_string(status) +
                   ": " + daemon->output());
  }
  out.flushes = daemon->report_value("ppcd: drained.", "flushes");
  out.daemon_clicks = daemon->report_value("ppcd: drained.", "clicks");
  out.backpressure = daemon->report_value("ppcd: connections",
                                          "backpressure_pauses");
  if (out.daemon_clicks != static_cast<long long>(clicks)) {
    rep.fail_check("ppcd drained " + std::to_string(out.daemon_clicks) +
                   " clicks, client sent " + std::to_string(clicks));
  }

  if (follower) {
    follower->stop();
    const std::int64_t restored = follower_sink->restored_ns.load();
    if (restored == 0) {
      rep.fail_check("follower never completed its snapshot catch-up: " +
                     follower->last_error());
      rep.failed += clicks;
    } else {
      rep.metric("catchup_s", static_cast<double>(restored - follow_start) * 1e-9,
                 "s");
    }
    const std::string follower_snap = o.workdir + "/follower.snap";
    server::IngestServer::save_sink_snapshot(*follower_sink, follower_snap);
    const std::string a = slurp(primary_snap), b = slurp(follower_snap);
    rep.info("repl.snapshot_bytes", static_cast<double>(a.size()));
    if (a.empty() || a != b) {
      rep.fail_check("follower snapshot differs from the primary's drain "
                     "snapshot (" + std::to_string(a.size()) + " vs " +
                     std::to_string(b.size()) + " bytes)");
      rep.failed += clicks;
    }
    // Enforcement outcome, read from the replica's (identical) ledger:
    // the botnet is blocked, no honest source is.
    std::uint64_t bots_blocked = 0, honest_blocked = 0;
    for (const auto& r : replica->ledger->records()) {
      if (r.tier != ppc::enforce::Tier::kBlocked) continue;
      if (ClickStream::is_bot_source(r.source_ip)) ++bots_blocked;
      if ((r.source_ip >> 24) == 0x0A || (r.source_ip & 0xFFFF0000u) == 0x64400000u) {
        ++honest_blocked;
      }
    }
    rep.info("enforce.bots_blocked", static_cast<double>(bots_blocked));
    rep.info("enforce.honest_blocked", static_cast<double>(honest_blocked));
    if (bots_blocked == 0) rep.fail_check("no botnet source was blocked");
    if (honest_blocked != 0) {
      rep.fail_check(std::to_string(honest_blocked) +
                     " honest or NAT sources were blocked");
    }
  }
}

// ---------------------------------------------------------------------------
// Verification: regenerate each connection's stream and check its verdicts.

struct Verdicts {
  std::uint64_t missing = 0;     ///< clicks with no verdict
  std::uint64_t mismatched = 0;  ///< differ from the in-process replay
  std::uint64_t false_negatives = 0;
  std::uint64_t honest_fresh = 0;
  std::uint64_t honest_fresh_flagged = 0;
};

/// Zero false negatives: every click the daemon accepted (verdict "fresh",
/// i.e. billed) is offered to an exact sliding-window oracle of accepted
/// clicks; a hit means a billed duplicate of a billed click. The FPR
/// oracle sees every click: an honest click it calls fresh that the daemon
/// flagged is a false positive (counted over the open-loop phase only, so
/// the figure does not depend on how far the closed loop got).
Verdicts verify_connection(const WorkloadSpec& w, const Options& o,
                           unsigned conn_index, const Connection& conn,
                           std::uint64_t fpr_begin, std::uint64_t fpr_end) {
  Verdicts v;
  ClickStream gen(w, o.seed, conn_index);
  const bool replay = w.name != "enforced_replicated";
  std::unique_ptr<Stack> stack = replay ? build_stack(w, nullptr) : nullptr;
  const auto window = core::WindowSpec::sliding_count(kOracleWindow);
  ppc::baseline::ExactSlidingDetector fresh_oracle(window), paid_oracle(window);
  bool flip = o.inject == "oracle-flip";

  std::vector<char> has_verdict;
  const std::uint64_t total = conn.sent_end();
  has_verdict.assign(total, 0);
  std::fill_n(has_verdict.begin(), w.warm_clicks, 1);
  for (const FrameRec& f : conn.frames()) {
    if (f.recv_ns >= 0) std::fill_n(has_verdict.begin() + f.first, f.count, 1);
  }
  FrameCols cols;
  std::vector<char> replayed;
  const std::uint32_t chunk = 4096;
  for (std::uint64_t base = 0; base < total; base += chunk) {
    const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(chunk, total - base));
    Click c;
    cols.ads.resize(n);
    cols.ids.resize(n);
    cols.times.resize(n);
    cols.sources.resize(n);
    std::vector<char> honest(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      gen.next(c);
      cols.ads[i] = c.ad;
      cols.ids[i] = c.id;
      cols.times[i] = c.time;
      cols.sources[i] = c.source;
      honest[i] = c.honest();
    }
    if (replay) {
      replayed.assign(n, 0);
      stack->top->offer_with_sources(cols.ads, cols.ids, cols.times,
                                     cols.sources,
                                     {reinterpret_cast<bool*>(replayed.data()), n});
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t idx = base + i;
      const core::ClickId key = core::composite_click_key(cols.ads[i], cols.ids[i]);
      const bool oracle_dup = fresh_oracle.offer(key);
      if (!has_verdict[idx]) {
        ++v.missing;
        continue;
      }
      const bool flagged = conn.verdict(idx);
      if (replay && flagged != static_cast<bool>(replayed[i])) ++v.mismatched;
      if (!flagged) {
        bool billed_dup = paid_oracle.offer(key);
        if (flip && idx >= w.warm_clicks) {
          billed_dup = !billed_dup;  // injected fault: one flipped oracle bit
          flip = false;
        }
        if (billed_dup) ++v.false_negatives;
      }
      if (honest[i] && !oracle_dup && idx >= fpr_begin && idx < fpr_end) {
        ++v.honest_fresh;
        if (flagged) ++v.honest_fresh_flagged;
      }
    }
  }
  return v;
}

void verify(const WorkloadSpec& w, const Options& o, WireOutcome& out,
            Report& rep, bool report_fpr) {
  std::vector<Verdicts> per(out.conns.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < out.conns.size(); ++c) {
    threads.emplace_back([&, c] {
      per[c] = verify_connection(w, o, static_cast<unsigned>(c), *out.conns[c],
                                 out.open_begin[c], out.open_end[c]);
    });
  }
  for (auto& t : threads) t.join();
  Verdicts sum;
  for (const Verdicts& v : per) {
    sum.missing += v.missing;
    sum.mismatched += v.mismatched;
    sum.false_negatives += v.false_negatives;
    sum.honest_fresh += v.honest_fresh;
    sum.honest_fresh_flagged += v.honest_fresh_flagged;
  }
  rep.info("check.missing_verdicts", static_cast<double>(sum.missing));
  rep.info("check.replay_mismatches", static_cast<double>(sum.mismatched));
  rep.info("check.false_negatives", static_cast<double>(sum.false_negatives));
  rep.info("fpr.honest_fresh", static_cast<double>(sum.honest_fresh));
  rep.info("fpr.flagged", static_cast<double>(sum.honest_fresh_flagged));
  if (sum.missing) rep.fail_check(std::to_string(sum.missing) + " clicks got no verdict");
  if (sum.mismatched) {
    rep.fail_check(std::to_string(sum.mismatched) +
                   " verdicts differ from the in-process replay");
  }
  if (sum.false_negatives) {
    rep.fail_check(std::to_string(sum.false_negatives) +
                   " false negatives against the exact oracle");
  }
  rep.failed += sum.missing + sum.mismatched + sum.false_negatives;
  rep.failed = std::min(rep.failed, rep.attempted);
  if (report_fpr) {
    rep.metric("false_positive_rate",
               static_cast<double>(sum.honest_fresh_flagged) /
                   static_cast<double>(std::max<std::uint64_t>(1, sum.honest_fresh)),
               "ratio");
    rep.metric("failed_frac",
               static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
               "ratio");
  }
}

// ---------------------------------------------------------------------------
// Traced in-process pass.

/// The open-loop phase's stream again (same seed, same frames, connections
/// round-robin), encoded as the client sends it.
struct TraceFrames {
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t clicks = 0;
  std::uint64_t dups = 0;
};

TraceFrames make_trace_frames(const WorkloadSpec& w, const Options& o,
                              std::uint64_t clicks) {
  TraceFrames t;
  std::vector<std::unique_ptr<ClickStream>> streams;
  Click skip;
  for (unsigned c = 0; c < w.connections; ++c) {
    streams.push_back(std::make_unique<ClickStream>(w, o.seed, c));
    for (std::uint64_t i = 0; i < w.warm_clicks; ++i) streams.back()->next(skip);
  }
  FrameCols cols;
  for (std::uint64_t k = 0; t.clicks < clicks; ++k) {
    cols.fill(*streams[k % w.connections], w.open_batch, &t.dups);
    t.frames.emplace_back();
    cols.encode(t.frames.back(), k, w.v2);
    t.clicks += w.open_batch;
  }
  return t;
}

/// A ring that keeps every batch of a pass (the default bounds would evict
/// the oldest, and the applier must start from sequence 1).
std::unique_ptr<server::ReplicationLog> unbounded_log(const TraceFrames& tf) {
  server::ReplicationLog::Options opts;
  opts.max_batches = tf.frames.size() + 1;
  opts.max_bytes = std::numeric_limits<std::size_t>::max();
  return std::make_unique<server::ReplicationLog>(opts);
}

/// Decodes one click frame as the server does: frame envelope with CRC,
/// payload validation, deinterleave into columns.
void decode_click_frame(const std::vector<std::uint8_t>& bytes, bool v2,
                        FrameCols& cols, std::uint64_t& seq) {
  wire::FrameView frame;
  std::size_t consumed = 0;
  std::string err;
  if (wire::decode_frame(bytes, frame, consumed, err) != wire::DecodeStatus::kFrame) {
    throw std::runtime_error("trace: bad frame: " + err);
  }
  std::uint32_t n = 0;
  const std::uint8_t* records = nullptr;
  if (v2) {
    wire::ClickBatchV2View view;
    if (!wire::parse_click_batch_v2(frame.payload, view, err)) throw std::runtime_error(err);
    n = view.count;
    records = view.records;
    seq = view.seq;
  } else {
    wire::ClickBatchView view;
    if (!wire::parse_click_batch(frame.payload, view, err)) throw std::runtime_error(err);
    n = view.count;
    records = view.records;
    seq = view.seq;
  }
  cols.ads.resize(n);
  cols.ids.resize(n);
  cols.times.resize(n);
  cols.sources.resize(n);
  if (v2) {
    wire::deinterleave_clicks_v2(records, n, cols.ads.data(), cols.ids.data(),
                                 cols.times.data(), cols.sources.data());
  } else {
    wire::deinterleave_clicks(records, n, cols.ads.data(), cols.ids.data(),
                              cols.times.data());
    std::fill(cols.sources.begin(), cols.sources.end(), 0u);
  }
}

/// An ostream that discards what it is given and counts the bytes.
class CountingStream {
 private:
  struct Buf : std::streambuf {
    std::uint64_t n = 0;
    int_type overflow(int_type c) override {
      if (c != traits_type::eof()) ++n;
      return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char*, std::streamsize k) override {
      n += static_cast<std::uint64_t>(k);
      return k;
    }
  };
  Buf buf_;

 public:
  std::ostream stream{&buf_};
  std::uint64_t bytes() const { return buf_.n; }
};

/// An ostream that appends to a string it owns (no second copy at the end,
/// unlike std::ostringstream::str()).
class StringStream {
 private:
  struct Buf : std::streambuf {
    std::string s;
    int_type overflow(int_type c) override {
      if (c != traits_type::eof()) s.push_back(static_cast<char>(c));
      return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char* p, std::streamsize k) override {
      s.append(p, static_cast<std::size_t>(k));
      return k;
    }
  };
  Buf buf_;

 public:
  std::ostream stream{&buf_};
  std::string& str() { return buf_.s; }
};

/// The snapshot file save_sink_snapshot writes (same envelope), built with
/// one copy of the payload instead of several.
void write_envelope(const server::ClickSink& sink, std::size_t bytes,
                    const std::string& path) {
  StringStream payload;
  payload.str().reserve(bytes);
  sink.save_state(payload.stream);
  std::ofstream f(path, std::ios::binary);
  ppc::core::detail::write_section(f, ppc::core::detail::kServerSnapshotMagic,
                                   payload.str());
  if (!f) throw std::runtime_error("trace: cannot write " + path);
}

const char* top_layer(const WorkloadSpec& w) {
  if (w.name == "paper_pool") return "adnet.pool_route";
  if (w.name == "tiered_tenants") return "adnet.tiered_offer";
  return "enforce.sink";
}

struct PassResult {
  double wall_ns = 0;
  std::map<std::string, double> self;  ///< ns summed by span name
  std::uint64_t verdict_bytes = 0;
  std::uint64_t rejected = 0;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<server::ReplicationLog> log;
};

/// The workload's own stack: wire decode → sink stack → replication append
/// (when the daemon replicates) → verdict encode, frame by frame.
PassResult run_stack_pass(const WorkloadSpec& w, const Options& o,
                          const TraceFrames& tf, Tracer& tr, bool traced) {
  PassResult r;
  tr.clear();
  tr.enabled = false;
  r.stack = build_stack(w, traced ? &tr : nullptr);
  if (w.warm_clicks > 0) {
    server::IngestServer::restore_sink_snapshot(*r.stack->top,
                                                o.workdir + "/warm.snap");
  }
  TracedSink top_traced(*r.stack->top, tr, top_layer(w));
  server::ClickSink& top = traced ? top_traced : *r.stack->top;
  if (w.replicated) r.log = unbounded_log(tf);
  FrameCols cols;
  std::vector<char> verdicts;
  std::vector<std::uint8_t> arena;
  tr.enabled = traced;
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k < tf.frames.size(); ++k) {
    tr.batch = static_cast<std::uint32_t>(k);
    std::uint64_t seq = 0;
    {
      ScopedSpan s(tr, "wire.click_parse");
      decode_click_frame(tf.frames[k], w.v2, cols, seq);
    }
    const std::size_t n = cols.ids.size();
    verdicts.assign(n, 0);
    const std::span<bool> out(reinterpret_cast<bool*>(verdicts.data()), n);
    top.offer_with_sources(cols.ads, cols.ids, cols.times, cols.sources, out);
    if (r.log) {
      ScopedSpan s(tr, "repl.append");
      r.log->append(cols.ads, cols.ids, cols.times, cols.sources);
    }
    {
      ScopedSpan s(tr, "wire.verdict_encode");
      arena.clear();
      wire::append_verdict_batch(arena, seq, std::span<const bool>(out.data(), n));
    }
    r.verdict_bytes += arena.size();
  }
  r.wall_ns = static_cast<double>(now_ns() - t0);
  tr.enabled = false;
  if (r.stack->enforcing) r.rejected = r.stack->enforcing->rejected();
  r.self = tr.self_ns();
  return r;
}

/// Replays a replication ring through a follower-side applier into
/// `sink`: "repl.apply" is ReplicationApplier::on_frame minus the sink.
void apply_ring(const server::ReplicationLog& log, server::ClickSink& sink,
                Tracer& tr) {
  TracedSink traced(sink, tr, "repl.follower_sink");
  server::ReplicationApplier applier(traced);
  server::ReplicationLog::Batch b;
  std::vector<std::uint8_t> frame;
  std::string err;
  for (std::uint64_t seq = log.first_seq(); seq < log.next_seq(); ++seq) {
    if (!log.get(seq, b)) throw std::runtime_error("trace: ring lost a batch");
    frame.clear();
    wire::append_repl_batch(frame, b.seq, b.count, b.records.data());
    wire::FrameView view;
    std::size_t consumed = 0;
    wire::decode_frame(frame, view, consumed, err);
    ScopedSpan s(tr, "repl.apply");
    if (!applier.on_frame(view.type, view.payload, err)) {
      throw std::runtime_error("trace: apply refused: " + err);
    }
  }
}

/// Layers the workload's daemon does not run, measured on the same stream
/// off its stack so every workload reports every layer: the off-stack layer
/// sits on a do-nothing child, so its span is its own routing cost.
void run_offstack_pass(const WorkloadSpec& w, const TraceFrames& tf,
                       Tracer& tr, std::uint64_t& hot_clicks,
                       std::uint64_t& promotions) {
  tr.clear();
  const bool pool = w.name != "paper_pool";
  const bool tiered = w.name != "tiered_tenants";
  const bool rest = w.name != "enforced_replicated";
  std::unique_ptr<adnet::DetectorPool> null_pool;
  std::unique_ptr<server::PoolSink> null_pool_sink;
  std::unique_ptr<TracedSink> pool_traced;
  if (pool) {
    null_pool = std::make_unique<adnet::DetectorPool>(
        [&tr](std::uint32_t) -> std::unique_ptr<core::DuplicateDetector> {
          return std::make_unique<TracedDetector>(
              std::make_unique<NullDetector>(), tr, "offstack.child");
        });
    null_pool_sink = std::make_unique<server::PoolSink>(*null_pool);
    pool_traced = std::make_unique<TracedSink>(*null_pool_sink, tr,
                                               "adnet.pool_route");
  }
  std::unique_ptr<adnet::TieredDetectorPool> tiered_pool;
  std::unique_ptr<server::TieredPoolSink> tiered_sink;
  std::unique_ptr<TracedSink> tiered_traced;
  if (tiered) {
    tiered_pool = server::build_tiered_pool(tiered_config());
    tiered_sink = std::make_unique<server::TieredPoolSink>(*tiered_pool);
    tiered_traced = std::make_unique<TracedSink>(*tiered_sink, tr,
                                                 "adnet.tiered_offer");
  }
  NullSink null_sink;
  TracedSink null_child(null_sink, tr, "offstack.child");
  std::unique_ptr<core::DuplicateDetector> sharded;
  std::unique_ptr<server::DetectorSink> sharded_sink;
  std::unique_ptr<TracedSink> sharded_traced;
  std::unique_ptr<ppc::enforce::ReputationLedger> ledger;
  std::unique_ptr<server::EnforcingSink> enforcing;
  std::unique_ptr<TracedSink> enforcing_traced;
  std::unique_ptr<server::ReplicationLog> log;
  if (rest) {
    sharded = traced_sharded(detector_config(workload("enforced_replicated")),
                             tr, "offstack.child");
    sharded_sink = std::make_unique<server::DetectorSink>(*sharded);
    sharded_traced = std::make_unique<TracedSink>(*sharded_sink, tr,
                                                  "core.sharded_offer");
    ledger = std::make_unique<ppc::enforce::ReputationLedger>(
        ppc::enforce::EnforcementPolicy{});
    enforcing = std::make_unique<server::EnforcingSink>(null_child, *ledger);
    enforcing_traced = std::make_unique<TracedSink>(*enforcing, tr, "enforce.sink");
    log = unbounded_log(tf);
  }
  FrameCols cols;
  std::vector<char> verdicts;
  tr.enabled = true;
  for (std::size_t k = 0; k < tf.frames.size(); ++k) {
    std::uint64_t seq = 0;
    decode_click_frame(tf.frames[k], w.v2, cols, seq);
    const std::size_t n = cols.ids.size();
    verdicts.assign(n, 0);
    const std::span<bool> out(reinterpret_cast<bool*>(verdicts.data()), n);
    for (TracedSink* s : {pool_traced.get(), tiered_traced.get(),
                          sharded_traced.get(), enforcing_traced.get()}) {
      if (s != nullptr) s->offer_with_sources(cols.ads, cols.ids, cols.times, cols.sources, out);
    }
    if (log) {
      ScopedSpan s(tr, "repl.append");
      log->append(cols.ads, cols.ids, cols.times, cols.sources);
    }
  }
  if (log) apply_ring(*log, null_sink, tr);
  tr.enabled = false;
  if (tiered_pool) {
    const adnet::TierStats st = tiered_pool->stats();
    hot_clicks = st.hot_clicks;
    promotions = st.promotions;
  }
}

/// Index derivation with the workload's leaf-filter k and range, over the
/// keys that filter hashes; plus the exact word-operation count per click.
void run_core_passes(const WorkloadSpec& w, const Options& o,
                     const TraceFrames& tf, Tracer& tr, double& word_ops) {
  std::unique_ptr<core::DuplicateDetector> leaf;
  const bool tiered = w.name == "tiered_tenants";
  if (tiered) {
    leaf = tiered_tail_replica();
  } else {
    server::DetectorConfig cfg = detector_config(w);
    if (cfg.shards > 1) {
      cfg.memory_bits /= cfg.shards;
      cfg.window.length /= cfg.shards;
      cfg.shards = 1;
    }
    leaf = server::build_detector(cfg);
  }
  std::size_t k = 0;
  std::uint64_t range = 0;
  if (auto* g = dynamic_cast<core::GroupBloomFilter*>(leaf.get())) {
    k = g->hash_count();
    range = g->bits_per_subfilter();
  } else if (auto* t = dynamic_cast<core::TimingBloomFilter*>(leaf.get())) {
    k = t->hash_count();
    range = t->entries();
  } else {
    throw std::runtime_error("trace: unexpected leaf detector " + leaf->name());
  }
  const ppc::hashing::IndexFamily family(k, range);
  FrameCols cols;
  std::vector<std::uint64_t> keys, idx;
  std::vector<char> verdicts;
  core::OpCounter ops;
  leaf->set_op_counter(&ops);
  std::unique_ptr<Stack> counted;
  if (!tiered) {
    counted = build_stack(w, nullptr, &ops);
    if (w.warm_clicks > 0) {
      server::IngestServer::restore_sink_snapshot(*counted->top,
                                                  o.workdir + "/warm.snap");
    }
  }
  tr.clear();
  for (const auto& bytes : tf.frames) {
    std::uint64_t seq = 0;
    decode_click_frame(bytes, w.v2, cols, seq);
    const std::size_t n = cols.ids.size();
    keys.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = tiered ? core::composite_click_key(cols.ads[i], cols.ids[i])
                       : cols.ids[i];
    }
    idx.resize(n * k);
    tr.enabled = true;
    {
      ScopedSpan s(tr, "hashing.indices");
      family.indices_batch(keys, idx);
    }
    tr.enabled = false;
    verdicts.assign(n, 0);
    const std::span<bool> out(reinterpret_cast<bool*>(verdicts.data()), n);
    if (tiered) {
      // The tail replica stands for the tiered pool's core work.
      tr.enabled = true;
      ScopedSpan s(tr, "core.offer");
      leaf->offer_batch(keys, cols.times, out);
      tr.enabled = false;
    } else {
      counted->top->offer_with_sources(cols.ads, cols.ids, cols.times,
                                       cols.sources, out);
    }
  }
  std::uint64_t total = ops.total();
  if (counted && counted->detector) {
    if (auto* sd = dynamic_cast<core::ShardedDetector*>(counted->detector.get())) {
      total = sd->op_totals().total();
    }
  }
  word_ops = static_cast<double>(total) / static_cast<double>(tf.clicks);
}

void run_trace(const WorkloadSpec& w, const Options& o, const WireOutcome& wo,
               Report& rep) {
  const std::uint64_t clicks = std::min<std::uint64_t>(
      std::uint64_t{1} << 21,
      static_cast<std::uint64_t>(w.open_rate * 0.3 * o.seconds));
  const TraceFrames tf = make_trace_frames(w, o, clicks);
  const double n = static_cast<double>(tf.clicks);
  Tracer tr;

  PassResult plain = run_stack_pass(w, o, tf, tr, false);
  plain.stack.reset();
  PassResult traced = run_stack_pass(w, o, tf, tr, true);
  tr.write_csv(o.workdir + "/spans-" + w.name + ".csv");
  std::map<std::string, double> self = traced.self;
  double onstack_ns = 0;
  for (const auto& [name, ns] : self) onstack_ns += ns;

  // Replication apply on the follower side (on stack only when the daemon
  // replicates) and the snapshot the catch-up path serializes.
  if (traced.log) {
    auto replica = build_stack(w, nullptr);
    server::IngestServer::restore_sink_snapshot(*replica->top,
                                                o.workdir + "/warm.snap");
    tr.clear();
    tr.enabled = true;
    apply_ring(*traced.log, *replica->top, tr);
    tr.enabled = false;
    for (const auto& [name, ns] : tr.self_ns()) self[name] += ns;
  }
  std::uint64_t hot_clicks = 0, promotions = 0;
  if (traced.stack->tiered) {
    const adnet::TierStats st = traced.stack->tiered->stats();
    hot_clicks = st.hot_clicks;
    promotions = st.promotions;
  }
  {
    // The snapshot of the state the pass left: save_state into a stream
    // that only counts (the serialization itself, as the sink mutex holds
    // it), then the full envelope on disk and restore_sink_snapshot into
    // a fresh stack, built only after the traced one is released.
    CountingStream counter;
    const std::int64_t t0 = now_ns();
    traced.stack->top->save_state(counter.stream);
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    const double bytes = static_cast<double>(counter.bytes());
    rep.metric("repl.snapshot_ms", ms, "ms");
    rep.metric("repl.snapshot_mb_s", bytes / 1e6 / (ms * 1e-3), "MB/s");
    rep.info("repl.snapshot_bytes", bytes);
    const std::string path = o.workdir + "/trace.snap";
    write_envelope(*traced.stack->top, counter.bytes(), path);
    traced.stack.reset();
    auto fresh = build_stack(w, nullptr);
    const std::int64_t t1 = now_ns();
    server::IngestServer::restore_sink_snapshot(*fresh->top, path);
    rep.metric("repl.restore_ms", static_cast<double>(now_ns() - t1) * 1e-6, "ms");
    std::remove(path.c_str());
  }

  run_offstack_pass(w, tf, tr, hot_clicks, promotions);
  for (const auto& [name, ns] : tr.self_ns()) {
    if (name != "offstack.child") self[name] += ns;
  }
  double word_ops = 0;
  run_core_passes(w, o, tf, tr, word_ops);
  for (const auto& [name, ns] : tr.self_ns()) self[name] += ns;

  const auto per = [&](const char* name) { return self[name] / n; };
  rep.metric("hashing.indices_ns_per_click", per("hashing.indices"), "ns");
  rep.metric("core.offer_ns_per_click", per("core.offer"), "ns");
  rep.metric("core.sharded_offer_ns_per_click", per("core.sharded_offer"), "ns");
  rep.metric("core.word_ops_per_click", word_ops, "count");
  rep.metric("core.dup_share", static_cast<double>(tf.dups) / n, "ratio");
  rep.metric("adnet.pool_route_ns_per_click", per("adnet.pool_route"), "ns");
  rep.metric("adnet.tiered_offer_ns_per_click", per("adnet.tiered_offer"), "ns");
  rep.metric("adnet.hot_click_share", static_cast<double>(hot_clicks) / n, "ratio");
  rep.metric("adnet.promotions", static_cast<double>(promotions), "count");
  rep.metric("enforce.sink_ns_per_click", per("enforce.sink"), "ns");
  rep.metric("enforce.rejected_share", static_cast<double>(traced.rejected) / n,
             "ratio");
  rep.metric("wire.click_parse_ns_per_click", per("wire.click_parse"), "ns");
  rep.metric("wire.verdict_encode_ns_per_click", per("wire.verdict_encode"), "ns");
  std::uint64_t in_bytes = 0;
  for (const auto& f : tf.frames) in_bytes += f.size();
  rep.metric("wire.bytes_per_click",
             static_cast<double>(in_bytes + traced.verdict_bytes) / n, "B");
  rep.metric("ingest.clicks_per_flush",
             wo.flushes > 0 ? static_cast<double>(wo.daemon_clicks) /
                                  static_cast<double>(wo.flushes)
                            : 0.0,
             "count");
  rep.metric("ingest.backpressure_pauses", static_cast<double>(wo.backpressure),
             "count");
  rep.metric("ingest.residual_ns_per_click", wo.cpu_ns_per_click - onstack_ns / n,
             "ns");
  rep.metric("repl.append_ns_per_click", per("repl.append"), "ns");
  rep.metric("repl.apply_ns_per_click", per("repl.apply"), "ns");
  rep.metric("trace.overhead_frac", (traced.wall_ns - plain.wall_ns) / plain.wall_ns,
             "ratio");
  rep.info("trace.clicks", n);
  rep.info("trace.onstack_ns_per_click", onstack_ns / n);
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  rep.info("trace.harness_maxrss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (i == 1 && a.rfind("--", 0) != 0) o.mode = a;
    else if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::stoull(val);
    else if (key == "--seconds") o.seconds = std::stod(val);
    else if (key == "--ppcd") o.ppcd = val;
    else if (key == "--workdir") o.workdir = val;
    else if (key == "--inject") o.inject = val;
    else {
      std::fprintf(stderr, "ppcbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  std::signal(SIGPIPE, SIG_IGN);
  Report rep;
  try {
    const WorkloadSpec w = workload(o.workload);
    WireOutcome wo;
    if (o.mode == "wire") {
      run_wire(o, w, {0.1 * o.seconds, 0.7 * o.seconds, 0.2 * o.seconds, w.setups,
                     w.replicated},
               rep, wo);
      verify(w, o, wo, rep, true);
    } else if (o.mode == "trace") {
      run_wire(o, w, {0.05 * o.seconds, 0.2 * o.seconds, 0, 1, false}, rep, wo);
      verify(w, o, wo, rep, false);
      run_trace(w, o, wo, rep);
    } else {
      std::fprintf(stderr, "usage: ppcbench wire|trace --workload=NAME ...\n");
      return 2;
    }
  } catch (const std::exception& e) {
    rep.fail_check(e.what());
  }
  rep.print();
  return rep.correct() ? 0 : 1;
}
