// ppcguard — command-line front end for the library.
//
//   ppcguard gen    --out=trace.bin --clicks=1000000 --kind=botnet [...]
//   ppcguard detect --trace=trace.bin --window=sliding:100000 [...]
//   ppcguard audit  --trace=trace.bin --window=jumping:100000:8 [...]
//   ppcguard plan   --window-n=1048576 --q=8 --fpr=0.01
//
// `gen` writes a synthetic click trace; `detect` streams it through the
// recommended detector and prints billing-grade statistics; `audit` runs
// the advertiser/publisher joint audit plus offender attribution; `plan`
// prints memory plans for a target false-positive rate.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "adnet/auditor.hpp"
#include "analysis/sizing.hpp"
#include "baseline/exact_detectors.hpp"
#include "core/detector_factory.hpp"
#include "stream/adapters.hpp"
#include "stream/generators.hpp"
#include "stream/trace.hpp"
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
      "usage: %s <command> [--key=value ...]\n"
      "\n"
      "commands:\n"
      "  gen     --out=PATH [--clicks=N] [--kind=distinct|mixed|botnet|revisit]\n"
      "          [--seed=S] [--users=N] [--ads=N] [--bots=N] [--attack-fraction=F]\n"
      "  detect  --trace=PATH --window=sliding:N | jumping:N:Q | landmark:N\n"
      "          [--memory-mib=M] [--hashes=K] [--policy=ip|cookie|both]\n"
      "  audit   --trace=PATH --window=... [--memory-mib=M] [--bid=DOLLARS]\n"
      "  plan    --window-n=N [--q=Q] [--fpr=P]\n",
      argv0);
  std::exit(2);
}

/// --window through the strict shared grammar; a malformed spec exits 2
/// with an error naming the flag.
core::WindowSpec flag_window(const cli::Flags& flags) {
  return cli::parse_flag(
      flags, "window", core::WindowSpec::sliding_count(100000),
      [](const std::string& text, const std::string& what) {
        try {
          return server::parse_window_spec(text);
        } catch (const std::invalid_argument& e) {
          throw std::invalid_argument(what + ": " + e.what());
        }
      });
}

/// --policy and --kind name one of a fixed set; anything else exits 2
/// with an error naming the flag.
stream::IdentifierPolicy flag_policy(const cli::Flags& flags) {
  return cli::parse_flag(
      flags, "policy", stream::IdentifierPolicy::kIpAndAd,
      [](const std::string& text, const std::string& what) {
        if (text == "ip") return stream::IdentifierPolicy::kIpAndAd;
        if (text == "cookie") return stream::IdentifierPolicy::kCookieAndAd;
        if (text == "both") return stream::IdentifierPolicy::kIpCookieAndAd;
        throw std::invalid_argument("invalid value for " + what + ": '" +
                                    text + "' (want ip|cookie|both)");
      });
}

std::string flag_kind(const cli::Flags& flags) {
  return cli::parse_flag(
      flags, "kind", std::string("mixed"),
      [](const std::string& text, const std::string& what) {
        for (const char* kind : {"distinct", "mixed", "botnet", "revisit"}) {
          if (text == kind) return text;
        }
        throw std::invalid_argument(
            "invalid value for " + what + ": '" + text +
            "' (want distinct|mixed|botnet|revisit)");
      });
}

int cmd_gen(const cli::Flags& flags) {
  const std::string out = flag(flags, "out", "");
  if (out.empty()) throw std::invalid_argument("gen: --out is required");
  const std::uint64_t clicks = flag_u64(flags, "clicks", 1'000'000);
  const std::string kind = flag_kind(flags);
  const std::uint64_t seed = flag_u64(flags, "seed", 1);

  std::unique_ptr<stream::ClickGenerator> gen;
  if (kind == "distinct") {
    stream::DistinctStreamOptions opts;
    opts.seed = seed;
    opts.ad_count = static_cast<std::uint32_t>(flag_u64(flags, "ads", 16));
    gen = std::make_unique<stream::DistinctStream>(opts);
  } else if (kind == "mixed") {
    stream::MixedTrafficOptions opts;
    opts.seed = seed;
    opts.user_count = flag_u64(flags, "users", 100'000);
    opts.ad_count = static_cast<std::uint32_t>(flag_u64(flags, "ads", 64));
    gen = std::make_unique<stream::MixedTrafficStream>(opts);
  } else if (kind == "botnet") {
    stream::MixedTrafficOptions bg;
    bg.seed = seed;
    bg.user_count = flag_u64(flags, "users", 100'000);
    bg.ad_count = static_cast<std::uint32_t>(flag_u64(flags, "ads", 64));
    stream::BotnetAttackOptions atk;
    atk.seed = seed ^ 0xa77ac;
    atk.bot_count = static_cast<std::uint32_t>(flag_u64(flags, "bots", 1000));
    atk.attack_fraction = flag_double(flags, "attack-fraction", 0.3);
    gen = std::make_unique<stream::BotnetAttackStream>(
        std::make_unique<stream::MixedTrafficStream>(bg), atk);
  } else {  // revisit
    stream::RevisitStreamOptions opts;
    opts.seed = seed;
    gen = std::make_unique<stream::RevisitStream>(opts);
  }

  stream::TraceWriter writer(out);
  for (std::uint64_t i = 0; i < clicks; ++i) writer.append(gen->next());
  writer.close();
  std::printf("wrote %llu %s clicks to %s\n",
              static_cast<unsigned long long>(clicks), kind.c_str(),
              out.c_str());
  return 0;
}

int cmd_detect(const cli::Flags& flags) {
  const std::string path = flag(flags, "trace", "");
  if (path.empty()) throw std::invalid_argument("detect: --trace is required");
  const auto window = flag_window(flags);
  const auto policy = flag_policy(flags);

  core::DetectorBudget budget;
  budget.total_memory_bits = flag_u64(flags, "memory-mib", 16) << 23;
  budget.hash_count = static_cast<std::size_t>(flag_u64(flags, "hashes", 7));
  auto detector = core::make_detector(window, budget);

  stream::TraceStream trace(path);
  std::uint64_t valid = 0, duplicates = 0;
  const auto start = std::chrono::steady_clock::now();
  while (!trace.done()) {
    const stream::Click c = trace.next();
    if (detector->offer(stream::click_identifier(c, policy), c.time_us)) {
      ++duplicates;
    } else {
      ++valid;
    }
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  std::printf("detector : %s over %s\n", detector->name().c_str(),
              window.describe().c_str());
  std::printf("memory   : %.2f MiB\n",
              static_cast<double>(detector->memory_bits()) / 8 / (1 << 20));
  std::printf("clicks   : %llu (%llu valid, %llu duplicate, %.2f%% dup)\n",
              static_cast<unsigned long long>(valid + duplicates),
              static_cast<unsigned long long>(valid),
              static_cast<unsigned long long>(duplicates),
              100.0 * static_cast<double>(duplicates) /
                  static_cast<double>(valid + duplicates));
  std::printf("rate     : %.2f Mclicks/s\n",
              static_cast<double>(valid + duplicates) / secs / 1e6);
  return 0;
}

int cmd_audit(const cli::Flags& flags) {
  const std::string path = flag(flags, "trace", "");
  if (path.empty()) throw std::invalid_argument("audit: --trace is required");
  const auto window = flag_window(flags);
  const auto policy = flag_policy(flags);
  const auto bid = adnet::from_dollars(flag_double(flags, "bid", 0.25));

  core::DetectorBudget budget;
  budget.total_memory_bits = flag_u64(flags, "memory-mib", 16) << 23;
  auto publisher_side = core::make_detector(window, budget);

  std::unique_ptr<core::DuplicateDetector> advertiser_side;
  switch (window.kind) {
    case core::WindowKind::kSliding:
      advertiser_side =
          window.basis == core::WindowBasis::kCount
              ? std::unique_ptr<core::DuplicateDetector>(
                    std::make_unique<baseline::ExactSlidingDetector>(window))
              : std::make_unique<baseline::ExactTimeSlidingDetector>(window);
      break;
    case core::WindowKind::kJumping:
      advertiser_side = std::make_unique<baseline::ExactJumpingDetector>(window);
      break;
    case core::WindowKind::kLandmark:
      advertiser_side = std::make_unique<baseline::ExactLandmarkDetector>(window);
      break;
  }

  adnet::FraudAuditor auditor;
  adnet::JointAuditReport report;
  stream::TraceStream trace(path);
  while (!trace.done()) {
    const stream::Click c = trace.next();
    const core::ClickId id = stream::click_identifier(c, policy);
    const bool pub = publisher_side->offer(id, c.time_us);
    const bool adv = advertiser_side->offer(id, c.time_us);
    auditor.observe(c, pub);
    ++report.clicks;
    if (!pub && !adv) ++report.both_valid;
    else if (pub && adv) ++report.both_duplicate;
    else if (!pub) { ++report.publisher_only_valid; report.disputed += bid; }
    else { ++report.advertiser_only_valid; report.disputed += bid; }
  }

  std::printf("joint audit over %llu clicks (%s)\n",
              static_cast<unsigned long long>(report.clicks),
              window.describe().c_str());
  std::printf("  agreement        : %.4f%%\n", 100.0 * report.agreement_rate());
  std::printf("  both valid       : %llu\n",
              static_cast<unsigned long long>(report.both_valid));
  std::printf("  both duplicate   : %llu\n",
              static_cast<unsigned long long>(report.both_duplicate));
  std::printf("  disputed clicks  : %llu (%s at %s per click)\n",
              static_cast<unsigned long long>(report.disagreements()),
              adnet::format_dollars(report.disputed).c_str(),
              adnet::format_dollars(bid).c_str());

  std::printf("publisher duplicate rates:\n");
  for (const auto& risk : auditor.report()) {
    std::printf("  publisher %5u: %8llu clicks, %6.2f%% duplicates%s\n",
                risk.publisher_id,
                static_cast<unsigned long long>(risk.clicks),
                100.0 * risk.duplicate_rate, risk.flagged ? "  FLAGGED" : "");
  }
  std::printf("top duplicate sources:\n");
  for (const auto& e : auditor.top_offenders(5)) {
    std::printf("  %-16s >= %llu duplicates%s\n",
                stream::format_ip(e.source_ip).c_str(),
                static_cast<unsigned long long>(e.guaranteed()),
                e.flagged ? "  FLAGGED" : "");
  }
  return 0;
}

int cmd_plan(const cli::Flags& flags) {
  const std::uint64_t n = flag_u64(flags, "window-n", 1u << 20);
  const auto q = static_cast<std::uint32_t>(flag_u64(flags, "q", 8));
  const double fpr = flag_double(flags, "fpr", 0.01);

  const auto gbf = analysis::plan_gbf(n, q, fpr);
  const auto tbf = analysis::plan_tbf(n, fpr);
  std::printf("target: FP <= %g over a window of %llu clicks\n\n", fpr,
              static_cast<unsigned long long>(n));
  std::printf("GBF (jumping, Q=%u):\n", q);
  std::printf("  m = %llu bits/sub-filter, k = %zu, total %.2f MiB, "
              "predicted FP %.3g\n",
              static_cast<unsigned long long>(gbf.bits_per_subfilter),
              gbf.hash_count,
              static_cast<double>(gbf.total_bits) / 8 / (1 << 20),
              gbf.predicted_fpr);
  std::printf("TBF (sliding, C = N-1):\n");
  std::printf("  m = %llu entries x %zu bits, k = %zu, total %.2f MiB, "
              "predicted FP %.3g\n",
              static_cast<unsigned long long>(tbf.entries), tbf.entry_bits,
              tbf.hash_count,
              static_cast<double>(tbf.total_bits) / 8 / (1 << 20),
              tbf.predicted_fpr);
  std::printf("\nTBF/GBF memory ratio: %.2fx — %s\n",
              analysis::tbf_over_gbf_memory_ratio(n, q, fpr),
              "use GBF when jumping-window expiry is acceptable (paper §3), "
              "TBF when you need per-click sliding expiry (paper §4)");
  return 0;
}

/// Parses the flags after the command word (argv[1]); a flag the command
/// does not read exits 2 with its name.
cli::Flags parse_command_flags(const std::string& command, int argc,
                               char** argv) {
  std::vector<char*> args{argv[0]};
  args.insert(args.end(), argv + 2, argv + argc);
  const int n = static_cast<int>(args.size());
  if (command == "gen") {
    return cli::parse_flags(n, args.data(),
                            {"out", "clicks", "kind", "seed", "users", "ads",
                             "bots", "attack-fraction"},
                            usage);
  }
  if (command == "detect") {
    return cli::parse_flags(
        n, args.data(), {"trace", "window", "policy", "memory-mib", "hashes"},
        usage);
  }
  if (command == "audit") {
    return cli::parse_flags(
        n, args.data(), {"trace", "window", "policy", "memory-mib", "bid"},
        usage);
  }
  if (command == "plan") {
    return cli::parse_flags(n, args.data(), {"window-n", "q", "fpr"}, usage);
  }
  usage(argv[0]);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  const auto flags = parse_command_flags(command, argc, argv);
  try {
    if (command == "gen") return cmd_gen(flags);
    if (command == "detect") return cmd_detect(flags);
    if (command == "audit") return cmd_audit(flags);
    return cmd_plan(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppcguard %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
