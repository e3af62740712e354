// Enforcement subsystem tests: the ReputationLedger tier state machine
// (promotion evidence, hysteresis, block TTLs, memory cap, recovery), the
// scenario-separation proof (coordinated botnet blocked, low-and-slow
// discounted, NAT'd flash crowd left alone — all on deterministic seeds),
// snapshot round-trips under the repo's mutation-fuzz discipline, the
// blocklist exporters, and the wire-level EnforcingSink end to end over a
// real loopback socket with v1 and v2 clients side by side.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/snapshot_io.hpp"
#include "enforce/blocklist_export.hpp"
#include "enforce/reputation_ledger.hpp"
#include "server/client.hpp"
#include "server/enforcing_sink.hpp"
#include "server/ingest_server.hpp"
#include "server/server_config.hpp"
#include "stream/click.hpp"
#include "stream/generators.hpp"

namespace ppc::enforce {
namespace {

namespace detail = core::detail;

/// Fast-moving policy for tests: tier thresholds keep the paper defaults'
/// SHAPE (strictly increasing rates and evidence minimums) at time and
/// count scales a unit test can traverse.
EnforcementPolicy test_policy() {
  EnforcementPolicy p;
  p.flag_rate = 0.20;
  p.discount_rate = 0.35;
  p.block_rate = 0.55;
  p.flag_min_duplicates = 16;
  p.discount_min_duplicates = 64;
  p.block_min_duplicates = 256;
  p.blatant_rate = 0.90;
  p.blatant_min_duplicates = 64;
  p.rate_alpha = 1.0 / 64;
  p.min_clicks = 32;
  p.score_half_life_us = 2'000'000;
  p.block_ttl_us = 5'000'000;
  return p;
}

// ------------------------------------------------------- policy validation

TEST(EnforcementPolicy, RejectsInconsistentThresholds) {
  EnforcementPolicy p;
  EXPECT_NO_THROW(p.validate());

  p = {};
  p.discount_rate = p.flag_rate;  // rates must be strictly increasing
  EXPECT_THROW(ReputationLedger{p}, std::invalid_argument);
  p = {};
  p.block_rate = 1.5;
  EXPECT_THROW(ReputationLedger{p}, std::invalid_argument);
  p = {};
  p.discount_min_duplicates = p.flag_min_duplicates;
  EXPECT_THROW(ReputationLedger{p}, std::invalid_argument);
  p = {};
  p.blatant_rate = p.block_rate - 0.01;  // blatant must be >= block_rate
  EXPECT_THROW(ReputationLedger{p}, std::invalid_argument);
  p = {};
  p.demote_ratio = 1.0;  // equality would defeat the hysteresis gap
  EXPECT_THROW(ReputationLedger{p}, std::invalid_argument);
  p = {};
  p.block_ttl_us = 0;
  EXPECT_THROW(ReputationLedger{p}, std::invalid_argument);
  p = {};
  p.max_sources = 0;
  EXPECT_THROW(ReputationLedger{p}, std::invalid_argument);
}

// ------------------------------------------------ enforcement spec grammar

/// Runs parse_enforce_spec and returns the error text ("" if it parsed).
std::string spec_error(const std::string& spec) {
  try {
    server::parse_enforce_spec(spec, "--enforce");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(EnforceSpec, OnAndOneKeepEveryDefault) {
  const EnforcementPolicy defaults;
  for (const char* spec : {"on", "1"}) {
    const EnforcementPolicy p = server::parse_enforce_spec(spec, "--enforce");
    EXPECT_EQ(p.flag_rate, defaults.flag_rate) << spec;
    EXPECT_EQ(p.flag_min_duplicates, defaults.flag_min_duplicates) << spec;
    EXPECT_EQ(p.score_half_life_us, defaults.score_half_life_us) << spec;
    EXPECT_EQ(p.max_sources, defaults.max_sources) << spec;
    EXPECT_EQ(p.key_by_publisher, defaults.key_by_publisher) << spec;
  }
}

TEST(EnforceSpec, ParsesOneKeyOfEachTypeAndLeavesTheRest) {
  const EnforcementPolicy defaults;
  const EnforcementPolicy p = server::parse_enforce_spec(
      "rate-alpha=0.125,flag-min=4,by-publisher=true", "--enforce");
  EXPECT_EQ(p.rate_alpha, 0.125);        // real
  EXPECT_EQ(p.flag_min_duplicates, 4u);  // unsigned
  EXPECT_TRUE(p.key_by_publisher);       // boolean
  EXPECT_EQ(p.flag_rate, defaults.flag_rate);
  EXPECT_EQ(p.block_min_duplicates, defaults.block_min_duplicates);
  EXPECT_EQ(server::parse_enforce_spec("rate-alpha=1e-2", "--enforce")
                .rate_alpha,
            0.01);
}

TEST(EnforceSpec, RefusalsNameTheFlagAndTheOffendingText) {
  EXPECT_EQ(spec_error("flag-min=4,colour=red"),
            "--enforce: unknown key 'colour'");
  EXPECT_EQ(spec_error("flag-min=4,discount-min"),
            "--enforce: expected k=v, got 'discount-min'");
  try {
    server::parse_enforce_spec("colour=red", "--verify-enforce");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--verify-enforce: unknown key 'colour'");
  }
}

TEST(EnforceSpec, NumericValuesAreStrict) {
  // Bare stoull/stod took "-1" as 2^64 - 1, "16x" as 16 and "0.5abc" as
  // 0.5; every one of these must now be refused.
  EXPECT_EQ(spec_error("flag-min=-1"),
            "invalid value for --enforce flag-min: '-1'");
  EXPECT_EQ(spec_error("block-min=16x"),
            "invalid value for --enforce block-min: '16x'");
  EXPECT_EQ(spec_error("flag-rate=0.5abc"),
            "invalid value for --enforce flag-rate: '0.5abc'");
  EXPECT_EQ(spec_error("flag-rate=-0.5"),
            "invalid value for --enforce flag-rate: '-0.5'");
  EXPECT_EQ(spec_error("ttl-us="), "invalid value for --enforce ttl-us: ''");
  EXPECT_EQ(spec_error("rate-alpha=nan"),
            "invalid value for --enforce rate-alpha: 'nan'");
  EXPECT_EQ(spec_error("max-sources=99999999999999999999"),
            "invalid value for --enforce max-sources: "
            "'99999999999999999999'");
  EXPECT_EQ(server::parse_u64("18446744073709551615", "--x"),
            ~std::uint64_t{0});
  EXPECT_THROW(server::parse_u64(" 1", "--x"), std::invalid_argument);
  EXPECT_THROW(server::parse_u64("+1", "--x"), std::invalid_argument);
  EXPECT_EQ(server::parse_double("0", "--x"), 0.0);
}

// --------------------------------------------------- tier state machine

TEST(ReputationLedger, CleanTrafficNeverConsumesMemoryOrPromotes) {
  ReputationLedger ledger(test_policy());
  std::uint64_t t = 0;
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_EQ(ledger.observe(0x0a000001 + (i % 100), 0, false, t += 1000),
              Tier::kClean);
  }
  EXPECT_EQ(ledger.size(), 0u) << "clean sources must not hold records";
  EXPECT_EQ(ledger.stats().observed, 10'000u);
}

TEST(ReputationLedger, PromotionRequiresRateAndGuaranteedEvidence) {
  // A source with a high duplicate RATE but too few duplicates stays
  // clean: a short burst is not sustained evidence.
  ReputationLedger ledger(test_policy());
  const std::uint32_t ip = 0x0a000001;
  std::uint64_t t = 0;
  // 40 clicks, 10 duplicates (rate ~0.25 > flag_rate) but 10 < 16 minimum.
  for (int i = 0; i < 40; ++i) {
    ledger.observe(ip, 0, i % 4 == 0, t += 1000);
  }
  EXPECT_EQ(ledger.tier_of(ip, 0), Tier::kClean);
  // Keep going: once the guaranteed count crosses flag_min_duplicates the
  // promotion fires (rate stays ~0.25).
  for (int i = 0; i < 60; ++i) {
    ledger.observe(ip, 0, i % 4 == 0, t += 1000);
  }
  EXPECT_EQ(ledger.tier_of(ip, 0), Tier::kFlagged);
  // ...but never higher: 0.25 < discount_rate, so one tier is the ceiling.
  for (int i = 0; i < 2000; ++i) {
    ledger.observe(ip, 0, i % 4 == 0, t += 1000);
  }
  EXPECT_EQ(ledger.tier_of(ip, 0), Tier::kFlagged);
}

TEST(ReputationLedger, PromotionsWalkOneTierPerObservation) {
  // Even a 100% duplicate source below the blatant rate threshold must
  // pass through kFlagged and kDiscounted on the way to kBlocked.
  EnforcementPolicy p = test_policy();
  p.blatant_rate = 1.0;  // keep the fast path out of this test
  p.blatant_min_duplicates = 1'000'000;
  ReputationLedger ledger(p);
  std::vector<std::pair<Tier, Tier>> moves;
  ledger.set_transition_callback([&](const TierTransition& tr) {
    moves.push_back({tr.from, tr.to});
  });
  std::uint64_t t = 0;
  const std::uint32_t ip = 0x0a000002;
  for (int i = 0; i < 1000 && ledger.tier_of(ip, 0) != Tier::kBlocked; ++i) {
    // 9-in-10 duplicates: rate ~0.9 < blatant 1.0.
    ledger.observe(ip, 0, i % 10 != 0, t += 1000);
  }
  ASSERT_EQ(ledger.tier_of(ip, 0), Tier::kBlocked);
  ASSERT_EQ(moves.size(), 3u);
  EXPECT_EQ(moves[0], (std::pair{Tier::kClean, Tier::kFlagged}));
  EXPECT_EQ(moves[1], (std::pair{Tier::kFlagged, Tier::kDiscounted}));
  EXPECT_EQ(moves[2], (std::pair{Tier::kDiscounted, Tier::kBlocked}));
}

TEST(ReputationLedger, BlatantAttackIsBlockedImmediately) {
  // Fast-warming EWMA (alpha 1/4): by the first promotion-eligible click
  // (min_clicks = 32) a pure-duplicate source is already at rate ~1.0 with
  // 31 guaranteed duplicates — the blatant fast path fires before the
  // normal one-tier-at-a-time walk ever gets a turn.
  EnforcementPolicy p = test_policy();
  p.rate_alpha = 1.0 / 4;
  p.blatant_min_duplicates = 24;
  ReputationLedger ledger(p);
  std::vector<std::pair<Tier, Tier>> moves;
  ledger.set_transition_callback([&](const TierTransition& tr) {
    moves.push_back({tr.from, tr.to});
  });
  std::uint64_t t = 0;
  const std::uint32_t ip = 0x0a000003;
  // Pure duplicates: rate → 1 ≥ blatant_rate once min_clicks and the
  // blatant evidence floor are met — one jump, no intermediate tiers.
  for (int i = 0; i < 200 && ledger.tier_of(ip, 0) != Tier::kBlocked; ++i) {
    ledger.observe(ip, 0, true, t += 1000);
  }
  ASSERT_EQ(ledger.tier_of(ip, 0), Tier::kBlocked);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0], (std::pair{Tier::kClean, Tier::kBlocked}));
}

TEST(ReputationLedger, BlockExpiresIntoAnalysisTierThenRecovers) {
  // TTL much shorter than the score half-life: at expiry the evidence has
  // barely decayed, so the source lands exactly in the analysis tier
  // (kDiscounted) instead of falling further.
  EnforcementPolicy p = test_policy();
  p.score_half_life_us = 30'000'000;
  p.block_ttl_us = 1'000'000;
  ReputationLedger ledger(p);
  std::uint64_t t = 0;
  const std::uint32_t ip = 0x0a000004;
  while (ledger.tier_of(ip, 0) != Tier::kBlocked) {
    ledger.observe(ip, 0, true, t += 1000);
  }
  const std::uint64_t ttl = ledger.policy().block_ttl_us;
  // Within the TTL the block holds (decide applies due transitions).
  EXPECT_EQ(ledger.decide(ip, 0, t + ttl / 2), Tier::kBlocked);
  // Past the TTL the block lapses into kDiscounted — the analysis phase —
  // never straight to clean.
  const Tier after = ledger.decide(ip, 0, t + ttl + 1);
  EXPECT_EQ(after, Tier::kDiscounted);
  EXPECT_EQ(ledger.stats().block_expiries, 1u);
  // With no further offenses the score decays through every hold point and
  // the record is eventually erased: reputations recover.
  const std::uint64_t far = t + ttl + 400 * ledger.policy().score_half_life_us;
  EXPECT_EQ(ledger.decide(ip, 0, far), Tier::kClean);
  EXPECT_EQ(ledger.sweep(far), 1u);
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(ReputationLedger, ReoffendingWhileBlockedExtendsTheBlock) {
  ReputationLedger ledger(test_policy());
  std::uint64_t t = 0;
  const std::uint32_t ip = 0x0a000005;
  while (ledger.tier_of(ip, 0) != Tier::kBlocked) {
    ledger.observe(ip, 0, true, t += 1000);
  }
  const std::uint64_t ttl = ledger.policy().block_ttl_us;
  // Keep offending close to the expiry: each duplicate pushes
  // blocked_until out again, so the source stays blocked far beyond the
  // original TTL.
  for (int i = 0; i < 5; ++i) {
    t += ttl - 1000;
    EXPECT_EQ(ledger.observe(ip, 0, true, t), Tier::kBlocked);
  }
  EXPECT_EQ(ledger.decide(ip, 0, t + ttl - 1000), Tier::kBlocked);
  EXPECT_EQ(ledger.stats().block_expiries, 0u);
}

TEST(ReputationLedger, HysteresisHoldsTierAgainstShortQuietSpells) {
  ReputationLedger ledger(test_policy());
  std::uint64_t t = 0;
  const std::uint32_t ip = 0x0a000006;
  while (ledger.tier_of(ip, 0) != Tier::kFlagged) {
    ledger.observe(ip, 0, true, t += 1000);
  }
  // A quiet spell shorter than the decay needed to cross the demote hold
  // (demote_ratio × flag_min_duplicates) keeps the tier.
  EXPECT_EQ(ledger.decide(ip, 0, t + ledger.policy().score_half_life_us),
            Tier::kFlagged);
  // A long silence demotes — and the demotion is reported.
  std::size_t demotions = 0;
  ledger.set_transition_callback([&](const TierTransition& tr) {
    if (tr.to < tr.from) ++demotions;
  });
  EXPECT_EQ(
      ledger.decide(ip, 0, t + 40 * ledger.policy().score_half_life_us),
      Tier::kClean);
  EXPECT_EQ(demotions, 1u);
}

TEST(ReputationLedger, MemoryStaysBoundedAndEvidenceIsNeverEvicted) {
  EnforcementPolicy p = test_policy();
  p.max_sources = 64;
  ReputationLedger ledger(p);
  std::uint64_t t = 0;
  // Promote 64 sources to kFlagged: the ledger is now full of standing
  // evidence.
  for (std::uint32_t s = 0; s < 64; ++s) {
    const std::uint32_t ip = 0x14000000 + s;
    for (int i = 0; i < 80; ++i) {
      ledger.observe(ip, 0, i % 3 != 0, t += 100);  // rate ~0.66
    }
    ASSERT_GE(ledger.tier_of(ip, 0), Tier::kFlagged) << "source " << s;
  }
  EXPECT_EQ(ledger.size(), 64u);
  // New offenders cannot evict flagged records: admissions are dropped and
  // counted, the cap holds, and every flagged source keeps its tier.
  for (std::uint32_t s = 0; s < 100; ++s) {
    ledger.observe(0x15000000 + s, 0, true, t += 100);
  }
  EXPECT_EQ(ledger.size(), 64u);
  EXPECT_EQ(ledger.stats().dropped_admissions, 100u);
  EXPECT_GE(ledger.stats().flagged + ledger.stats().discounted +
                ledger.stats().blocked,
            64u);
}

TEST(ReputationLedger, PublisherKeyedLedgerSeparatesPublishers) {
  EnforcementPolicy p = test_policy();
  p.key_by_publisher = true;
  ReputationLedger ledger(p);
  std::uint64_t t = 0;
  const std::uint32_t nat = 0x0a00000a;
  // The same NAT ip is dirty via publisher 7 and clean via publisher 8.
  for (int i = 0; i < 400; ++i) {
    ledger.observe(nat, 7, true, t += 500);
    ledger.observe(nat, 8, false, t += 500);
  }
  EXPECT_EQ(ledger.tier_of(nat, 7), Tier::kBlocked);
  EXPECT_EQ(ledger.tier_of(nat, 8), Tier::kClean);
}

// ------------------------------------------------- scenario separation

/// Exact duplicate oracle at the identity policy the enforcement stack
/// keys on: (ip, cookie, ad).
class DuplicateOracle {
 public:
  bool offer(const stream::Click& c) {
    return !seen_
                .insert(stream::click_identifier(
                    c, stream::IdentifierPolicy::kIpCookieAndAd))
                .second;
  }

 private:
  std::unordered_set<core::ClickId> seen_;
};

std::unique_ptr<stream::ClickGenerator> background(std::uint64_t seed) {
  stream::MixedTrafficStream::Options opts;
  opts.seed = seed;
  opts.user_count = 200'000;  // broad population: little organic dup noise
  return std::make_unique<stream::MixedTrafficStream>(opts);
}

TEST(ScenarioSeparation, CoordinatedBotnetRampIsBlockedWithinTheRamp) {
  stream::CoordinatedBotnetStream::Options opts;
  opts.bot_count = 16;
  opts.peak_fraction = 0.60;
  opts.ramp_start_us = 0;
  opts.ramp_us = 10'000'000;
  opts.seed = 20260808;
  stream::CoordinatedBotnetStream gen(background(101), opts);

  ReputationLedger ledger(test_policy());
  std::uint64_t first_block_us = 0;
  ledger.set_transition_callback([&](const TierTransition& tr) {
    if (tr.to == Tier::kBlocked && first_block_us == 0) {
      first_block_us = tr.at_us;
    }
  });
  DuplicateOracle oracle;
  for (int i = 0; i < 30'000; ++i) {
    const stream::Click c = gen.next();
    ledger.observe(c.source_ip, 0, oracle.offer(c), c.time_us);
  }
  // Every bot identity is blocked by stream end...
  for (std::uint32_t b = 0; b < opts.bot_count; ++b) {
    EXPECT_EQ(ledger.tier_of(gen.bot_ip(b), 0), Tier::kBlocked)
        << "bot " << b << " escaped";
  }
  // ...and the first block landed while the attack was still ramping.
  ASSERT_GT(first_block_us, 0u);
  EXPECT_LT(first_block_us, opts.ramp_start_us + opts.ramp_us)
      << "enforcement slower than the attack ramp";
}

TEST(ScenarioSeparation, LowAndSlowFraudReachesDiscountByAccumulation) {
  stream::LowAndSlowFraudStream::Options opts;
  opts.fraud_source_count = 4;
  opts.fraud_fraction = 0.10;
  opts.fresh_cookie_probability = 0.55;  // per-source dup rate ~0.45
  opts.seed = 20260808;
  stream::LowAndSlowFraudStream gen(background(102), opts);

  ReputationLedger ledger(test_policy());
  DuplicateOracle oracle;
  for (int i = 0; i < 60'000; ++i) {
    const stream::Click c = gen.next();
    ledger.observe(c.source_ip, 0, oracle.offer(c), c.time_us);
  }
  // Rate alone (~0.45) could never cross block_rate 0.55; the accumulated
  // guaranteed duplicates push each fraud source to the discount tier.
  for (std::uint32_t s = 0; s < opts.fraud_source_count; ++s) {
    EXPECT_GE(ledger.tier_of(gen.fraud_ip(s), 0), Tier::kDiscounted)
        << "low-and-slow source " << s << " was never caught";
  }
}

TEST(ScenarioSeparation, NatFlashCrowdIsNeverBlockedOrDiscounted) {
  stream::NatFlashCrowdStream::Options opts;
  // Crowd larger than the observed stream: the flash stays a stream of
  // mostly-distinct users, as a real crowd is — duplicates come only from
  // the 8% genuine revisits.
  opts.crowd_size = 50'000;
  opts.revisit_probability = 0.08;
  opts.seed = 20260808;
  stream::NatFlashCrowdStream gen(opts);

  ReputationLedger ledger(test_policy());
  DuplicateOracle oracle;
  Tier worst = Tier::kClean;
  for (int i = 0; i < 30'000; ++i) {
    const stream::Click c = gen.next();
    const Tier tier = ledger.observe(c.source_ip, 0, oracle.offer(c),
                                     c.time_us);
    if (tier > worst) worst = tier;
  }
  // Thousands of legitimate users behind one IP, burst arrival rate, real
  // revisit duplicates — and the per-source duplicate rate still never
  // sustains the discount threshold. kFlagged (review) is the worst
  // allowed; blocking a NAT would cut off the whole crowd.
  EXPECT_LE(worst, Tier::kFlagged) << "flash crowd was punished as fraud";
  EXPECT_LE(ledger.tier_of(opts.nat_ip, 0), Tier::kFlagged);
}

// --------------------------------------------------- snapshots + exports

std::string saved_bytes(const ReputationLedger& ledger) {
  std::ostringstream out(std::ios::binary);
  ledger.save(out);
  return out.str();
}

std::string rewrap(const std::string& payload) {
  std::stringstream out;
  detail::write_section(out, detail::kEnforceMagic, [&](std::ostream& body) {
    body.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  });
  return out.str();
}

std::string unwrap(const std::string& bytes) {
  std::stringstream in(bytes);
  std::string payload;
  const auto take = [&](std::istream& body) {
    payload.assign(std::istreambuf_iterator<char>(body), {});
  };
  detail::read_section(in, detail::kEnforceMagic, "fuzz", take);
  return payload;
}

/// A ledger with every tier populated, blocks live, decayed scores — the
/// state the fuzz and round-trip tests start from.
ReputationLedger populated_ledger() {
  ReputationLedger ledger(test_policy());
  std::uint64_t t = 0;
  for (std::uint32_t s = 0; s < 40; ++s) {
    const std::uint32_t ip = 0x0a010000 + s;
    const double dup_rate = s % 4 == 0 ? 0.95 : (s % 4 == 1 ? 0.45 : 0.1);
    stream::Rng rng(s + 1);
    for (int i = 0; i < 300; ++i) {
      ledger.observe(ip, 0, rng.chance(dup_rate), t += 137);
    }
  }
  return ledger;
}

TEST(LedgerSnapshot, RoundTripIsExactAndExportsAreBitIdentical) {
  ReputationLedger ledger = populated_ledger();
  const std::string bytes = saved_bytes(ledger);

  ReputationLedger restored(test_policy());
  std::istringstream in(bytes, std::ios::binary);
  restored.restore(in);

  // Record-level equality...
  const auto a = ledger.records();
  const auto b = restored.records();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].tier, b[i].tier);
    EXPECT_EQ(a[i].clicks, b[i].clicks);
    EXPECT_EQ(a[i].duplicates, b[i].duplicates);
    EXPECT_EQ(a[i].rate, b[i].rate);    // bit-exact via bit_cast
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].blocked_until_us, b[i].blocked_until_us);
  }
  // ...counter equality...
  const auto sa = ledger.stats();
  const auto sb = restored.stats();
  EXPECT_EQ(sa.observed, sb.observed);
  EXPECT_EQ(sa.promotions, sb.promotions);
  EXPECT_EQ(sa.blocked, sb.blocked);
  // ...and both exports are deterministic functions of the state:
  // byte-identical across the round trip.
  EXPECT_EQ(export_csv(ledger), export_csv(restored));
  EXPECT_EQ(export_nftables(ledger), export_nftables(restored));
  // Save-of-restore is a fixpoint at the record level (the offender
  // summary may legitimately reorder tied counters, so the bytes are not
  // required to match — the observable state is).
  ReputationLedger second(test_policy());
  std::istringstream in2(saved_bytes(restored), std::ios::binary);
  second.restore(in2);
  EXPECT_EQ(export_csv(second), export_csv(ledger));
  EXPECT_EQ(export_nftables(second), export_nftables(ledger));
  EXPECT_EQ(second.records().size(), a.size());
}

TEST(LedgerSnapshot, RestoreAtTheCapEvictsWhatTheOriginalWould) {
  // Every one-duplicate source stores the same undecayed score, so cap
  // evictions are all ties. The victim must not depend on hash-map
  // iteration order, or a ledger restored mid-stream (a follower after
  // catch-up, ppcd after --restore) silently diverges from the original.
  EnforcementPolicy p = test_policy();
  p.max_sources = 64;
  ReputationLedger original(p);
  std::uint64_t t = 0;
  for (std::uint32_t s = 0; s < 64; ++s) {
    original.observe(0x16000000 + s * 7919, 0, true, t += 100);
  }
  ASSERT_EQ(original.size(), 64u);

  ReputationLedger restored(p);
  std::istringstream in(saved_bytes(original), std::ios::binary);
  restored.restore(in);
  for (std::uint32_t s = 0; s < 64; ++s) {
    const std::uint32_t ip = 0x17000000 + s * 104729;
    original.observe(ip, 0, true, t += 100);
    restored.observe(ip, 0, true, t);
  }
  EXPECT_EQ(original.size(), 64u);
  EXPECT_EQ(saved_bytes(original), saved_bytes(restored));
}

TEST(LedgerSnapshot, EveryTruncationRejected) {
  const std::string bytes = saved_bytes(populated_ledger());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    ReputationLedger target(test_policy());
    std::istringstream in(bytes.substr(0, keep), std::ios::binary);
    EXPECT_THROW(target.restore(in), std::exception)
        << "truncation at byte " << keep << " accepted";
    EXPECT_EQ(target.size(), 0u) << "failed restore left state behind";
  }
}

TEST(LedgerSnapshot, EveryByteFlipRejected) {
  const std::string bytes = saved_bytes(populated_ledger());
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const std::uint8_t delta : {0x01, 0x80, 0xff}) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ delta);
      ReputationLedger target(test_policy());
      std::istringstream in(mutated, std::ios::binary);
      EXPECT_THROW(target.restore(in), std::exception)
          << "flip of byte " << pos << " by " << int{delta} << " accepted";
    }
  }
}

TEST(LedgerSnapshot, ForgedRecordCountWithValidCrcRejected) {
  // Rewrite the record count inside the payload and re-wrap with a VALID
  // header + CRC: only the payload-level validation can catch it now.
  const std::string payload = unwrap(saved_bytes(populated_ledger()));
  for (const std::uint64_t forged_count :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{39},
        std::uint64_t{41}, std::uint64_t{1'000'000},
        ~std::uint64_t{0}}) {
    std::string forged = payload;
    // Payload layout: u64 key_by_publisher, u64 record_count, ...
    for (int b = 0; b < 8; ++b) {
      forged[8 + b] = static_cast<char>(forged_count >> (8 * b));
    }
    ReputationLedger target(test_policy());
    std::istringstream in(rewrap(forged), std::ios::binary);
    EXPECT_THROW(target.restore(in), std::exception)
        << "forged count " << forged_count << " accepted";
  }
}

TEST(LedgerSnapshot, PolicyKeyModeMismatchRejected) {
  const std::string bytes = saved_bytes(populated_ledger());
  EnforcementPolicy keyed = test_policy();
  keyed.key_by_publisher = true;
  ReputationLedger target(keyed);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(target.restore(in), std::runtime_error);
}

TEST(BlocklistExport, CsvListsFlaggedAndAboveNftablesOnlyBlocked) {
  ReputationLedger ledger = populated_ledger();
  std::size_t flagged_or_worse = 0, blocked = 0;
  for (const auto& r : ledger.records()) {
    if (r.tier >= Tier::kFlagged) ++flagged_or_worse;
    if (r.tier == Tier::kBlocked) ++blocked;
  }
  ASSERT_GT(blocked, 0u) << "fixture must contain blocked sources";
  const std::string csv = export_csv(ledger);
  // Header + one line per record at kFlagged or above.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            1 + flagged_or_worse);
  const std::string nft = export_nftables(ledger);
  EXPECT_NE(nft.find("type ipv4_addr"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(std::count(
                nft.begin(), nft.end(), '.')),
            3 * blocked);  // each IPv4 element has exactly three dots
}

TEST(BlocklistExport, DecisionJournalRecordsEveryTransition) {
  const std::string path =
      testing::TempDir() + "/enforce_journal_test.log";
  std::remove(path.c_str());
  std::vector<std::string> expected;
  {
    DecisionJournal journal(path);
    ReputationLedger ledger(test_policy());
    ledger.set_transition_callback([&](const TierTransition& tr) {
      journal.append(tr);
      expected.push_back(format_transition(tr));
    });
    std::uint64_t t = 0;
    for (int i = 0; i < 300; ++i) ledger.observe(0x0afe0001, 0, true, t += 997);
    ledger.decide(0x0afe0001, 0, t + 1'000'000'000);  // expiry + demotions
    EXPECT_EQ(journal.lines(), expected.size());
    ASSERT_GE(expected.size(), 2u);  // at least block + expiry
  }
  std::ifstream in(path);
  std::string line;
  std::size_t i = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(line, expected[i]) << "journal line " << i;
    ++i;
  }
  EXPECT_EQ(i, expected.size());
  std::remove(path.c_str());
}

// ------------------------------------------------- wire-level enforcement

/// Inner sink with oracle-exact duplicate memory; counts what actually
/// reaches it so tests can prove blocked clicks never arrive.
class ExactSink final : public server::ClickSink {
 public:
  void offer(std::span<const std::uint32_t> /*ads*/,
             std::span<const core::ClickId> ids,
             std::span<const std::uint64_t> /*times*/,
             std::span<bool> out) override {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out[i] = !seen_.insert(ids[i]).second;
    }
    offered_ += ids.size();
  }
  std::string describe() const override { return "exact-set"; }
  std::uint64_t offered() const noexcept { return offered_; }

 private:
  std::unordered_set<core::ClickId> seen_;
  std::uint64_t offered_ = 0;
};

EnforcementPolicy wire_policy() {
  EnforcementPolicy p;
  p.flag_min_duplicates = 4;
  p.discount_min_duplicates = 8;
  p.block_min_duplicates = 16;
  p.blatant_min_duplicates = 16;
  p.rate_alpha = 1.0 / 8;
  p.min_clicks = 8;
  p.score_half_life_us = 60'000'000;
  p.block_ttl_us = 600'000'000;
  return p;
}

TEST(EnforcingSinkE2E, BlockedSourceIsRejectedAtTheWire) {
  ExactSink inner;
  ReputationLedger ledger(wire_policy());
  server::EnforcingSink sink(inner, ledger);
  server::IngestServer server(sink);
  const std::uint16_t port = server.listen("127.0.0.1", 0);
  std::thread loop([&] { server.run(); });

  const std::uint32_t attacker = 0x0a0a0a0a;
  const std::uint32_t innocent = 0x14141414;
  std::uint64_t now = 1'000'000;
  std::uint64_t sent_clicks = 0, true_verdicts = 0;

  server::BlockingClient v2;
  v2.connect("127.0.0.1", port);
  v2.handshake(server::wire::kProtocolVersionV2);

  auto exchange = [&](std::uint64_t seq,
                      std::span<const server::wire::ClickRecordV2> batch) {
    v2.send_click_batch_v2(seq, batch);
    sent_clicks += batch.size();
    server::wire::FrameView frame;
    EXPECT_TRUE(v2.read_frame(frame));
    EXPECT_EQ(frame.type, server::wire::FrameType::kVerdictBatch);
    server::wire::VerdictBatchView view;
    std::string err;
    EXPECT_TRUE(parse_verdict_batch(frame.payload, view, err)) << err;
    EXPECT_EQ(view.seq, seq);
    EXPECT_EQ(view.count, batch.size());
    std::vector<bool> verdicts(view.count);
    for (std::uint32_t i = 0; i < view.count; ++i) {
      verdicts[i] = view.duplicate(i);
      true_verdicts += verdicts[i] ? 1 : 0;
    }
    return verdicts;
  };

  // Batch 0: the attacker hammers 4 identities 16 times each — the inner
  // detector calls the repeats duplicates, and the ledger walks the source
  // to kBlocked inside this batch.
  std::vector<server::wire::ClickRecordV2> batch0;
  for (int i = 0; i < 64; ++i) {
    batch0.push_back({7, 0xa000 + static_cast<std::uint64_t>(i % 4),
                      now += 1000, attacker});
  }
  const std::vector<bool> v0 = exchange(0, batch0);
  std::size_t dups0 = 0;
  for (const bool d : v0) dups0 += d ? 1 : 0;
  EXPECT_EQ(dups0, 60u);  // 4 firsts clean, 60 repeats — none rejected yet

  // Batch 1: fresh ids from the attacker (clean by inner logic) plus fresh
  // ids from an innocent source. The attacker is rejected at the wire; the
  // innocent clicks flow through untouched.
  std::vector<server::wire::ClickRecordV2> batch1;
  for (int i = 0; i < 32; ++i) {
    batch1.push_back({7, 0xb000 + static_cast<std::uint64_t>(i), now += 1000,
                      attacker});
    batch1.push_back({7, 0xc000 + static_cast<std::uint64_t>(i), now += 1000,
                      innocent});
  }
  const std::vector<bool> v1 = exchange(1, batch1);
  for (std::size_t i = 0; i < v1.size(); ++i) {
    const bool from_attacker = batch1[i].source_ip == attacker;
    EXPECT_EQ(v1[i], from_attacker)
        << "click " << i << (from_attacker ? " leaked past the block"
                                           : " falsely rejected");
  }

  // DRAIN: totals exact — every click sent has exactly one verdict, the
  // rejected ones included.
  v2.send_drain();
  server::wire::FrameView frame;
  ASSERT_TRUE(v2.read_frame(frame));
  ASSERT_EQ(frame.type, server::wire::FrameType::kDrainAck);
  std::uint64_t acc_clicks = 0, acc_dups = 0;
  std::string err;
  ASSERT_TRUE(
      server::wire::parse_drain_ack(frame.payload, acc_clicks, acc_dups, err));
  EXPECT_EQ(acc_clicks, sent_clicks);
  EXPECT_EQ(acc_dups, true_verdicts);

  // STATS over the same wire: the enforcement counters surface.
  const server::wire::StatsReport stats = v2.request_stats();
  EXPECT_EQ(stats.enforce_rejected, 32u);
  EXPECT_EQ(stats.enforce_blocked, 1u);
  EXPECT_GE(stats.enforce_sources, 1u);

  // A legacy v1 client on the same server is untouched by enforcement:
  // same frames, same verdicts, no source attribution, no ledger contact.
  server::BlockingClient v1c;
  v1c.connect("127.0.0.1", port);
  v1c.handshake();  // version 1
  std::vector<server::wire::ClickRecord> legacy;
  for (int i = 0; i < 16; ++i) {
    legacy.push_back({9, 0xd000 + static_cast<std::uint64_t>(i), now += 1000});
  }
  v1c.send_click_batch(5, legacy);
  ASSERT_TRUE(v1c.read_frame(frame));
  ASSERT_EQ(frame.type, server::wire::FrameType::kVerdictBatch);
  server::wire::VerdictBatchView legacy_view;
  ASSERT_TRUE(parse_verdict_batch(frame.payload, legacy_view, err));
  ASSERT_EQ(legacy_view.count, 16u);
  for (std::uint32_t i = 0; i < legacy_view.count; ++i) {
    EXPECT_FALSE(legacy_view.duplicate(i)) << "fresh v1 click flagged";
  }
  // And a v2 frame on the v1 connection is a protocol error (the server
  // closes the connection).
  std::vector<std::uint8_t> bad;
  server::wire::append_click_batch_v2(bad, 6, batch0);
  v1c.send_raw(bad);
  EXPECT_FALSE(v1c.read_frame(frame)) << "v1 connection accepted a v2 frame";

  server.stop();
  loop.join();
  const server::IngestServer::Stats drained = server.drain();
  EXPECT_EQ(drained.clicks, sent_clicks + legacy.size());

  // The inner sink never saw the 32 rejected clicks.
  EXPECT_EQ(inner.offered(), 64u + 32u + 16u);
  EXPECT_EQ(sink.rejected(), 32u);

  // The blocklist the operator exports round-trips through the ledger
  // snapshot bit-identically, blocked attacker included.
  const std::string csv = export_csv(ledger);
  const std::string nft = export_nftables(ledger);
  EXPECT_NE(csv.find(stream::format_ip(attacker)), std::string::npos);
  EXPECT_NE(nft.find(stream::format_ip(attacker)), std::string::npos);
  ReputationLedger restored(wire_policy());
  std::stringstream snap;
  ledger.save(snap);
  restored.restore(snap);
  EXPECT_EQ(export_csv(restored), csv);
  EXPECT_EQ(export_nftables(restored), nft);
}

}  // namespace
}  // namespace ppc::enforce
