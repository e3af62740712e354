#include "enforce/reputation_ledger.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/snapshot_io.hpp"

namespace ppc::enforce {

namespace {

/// A clean record whose score decayed below this is noise; sweep() frees it.
constexpr double kEraseScore = 0.5;

Tier tier_below(Tier t) noexcept {
  return static_cast<Tier>(static_cast<std::uint8_t>(t) - 1);
}

Tier tier_above(Tier t) noexcept {
  return static_cast<Tier>(static_cast<std::uint8_t>(t) + 1);
}

}  // namespace

void EnforcementPolicy::validate() const {
  if (!(flag_rate > 0) || !(flag_rate < discount_rate) ||
      !(discount_rate < block_rate) || !(block_rate <= 1.0)) {
    throw std::invalid_argument(
        "EnforcementPolicy: need 0 < flag_rate < discount_rate < block_rate "
        "<= 1");
  }
  if (flag_min_duplicates == 0 ||
      flag_min_duplicates >= discount_min_duplicates ||
      discount_min_duplicates >= block_min_duplicates) {
    throw std::invalid_argument(
        "EnforcementPolicy: need 0 < flag_min_duplicates < "
        "discount_min_duplicates < block_min_duplicates");
  }
  if (!(blatant_rate >= block_rate) || !(blatant_rate <= 1.0) ||
      blatant_min_duplicates == 0) {
    throw std::invalid_argument(
        "EnforcementPolicy: blatant_rate must lie in [block_rate, 1] with a "
        "nonzero evidence minimum");
  }
  if (!(demote_ratio > 0) || !(demote_ratio < 1)) {
    throw std::invalid_argument(
        "EnforcementPolicy: demote_ratio must be in (0, 1) — equality would "
        "defeat the hysteresis gap");
  }
  if (score_half_life_us == 0 || block_ttl_us == 0) {
    throw std::invalid_argument(
        "EnforcementPolicy: score_half_life_us and block_ttl_us must be > 0");
  }
  if (!(rate_alpha > 0) || !(rate_alpha <= 1)) {
    throw std::invalid_argument(
        "EnforcementPolicy: rate_alpha must be in (0, 1]");
  }
  if (max_sources == 0 || offender_capacity == 0) {
    throw std::invalid_argument(
        "EnforcementPolicy: max_sources and offender_capacity must be >= 1");
  }
}

ReputationLedger::ReputationLedger(EnforcementPolicy policy)
    : policy_(policy), offenders_(policy.offender_capacity) {
  policy_.validate();
}

double ReputationLedger::promote_rate(Tier to) const noexcept {
  switch (to) {
    case Tier::kFlagged: return policy_.flag_rate;
    case Tier::kDiscounted: return policy_.discount_rate;
    case Tier::kBlocked: return policy_.block_rate;
    case Tier::kClean: break;
  }
  return 0.0;
}

std::uint64_t ReputationLedger::promote_min_duplicates(Tier to) const noexcept {
  switch (to) {
    case Tier::kFlagged: return policy_.flag_min_duplicates;
    case Tier::kDiscounted: return policy_.discount_min_duplicates;
    case Tier::kBlocked: return policy_.block_min_duplicates;
    case Tier::kClean: break;
  }
  return 0;
}

bool ReputationLedger::evidence_at_least(const SourceState& s,
                                         std::uint64_t key,
                                         std::uint64_t n) const {
  if (n == 0 || s.duplicates >= n) return true;
  // Space-Saving certifies frequency > threshold via count - error; the
  // upper-bound count alone is never consulted.
  return offenders_.guaranteed_frequent(key, n - 1);
}

void ReputationLedger::decay_score(SourceState& s,
                                   std::uint64_t now_us) const {
  if (now_us <= s.last_seen_us) return;
  const double halves =
      static_cast<double>(now_us - s.last_seen_us) /
      static_cast<double>(policy_.score_half_life_us);
  s.score *= std::exp2(-halves);
  // Re-anchoring makes repeated decay exact: exp2(-a)·exp2(-b) = exp2(-a-b),
  // so a sweep between observations never double-counts elapsed time.
  s.last_seen_us = now_us;
}

void ReputationLedger::set_tier(std::uint64_t key, SourceState& s, Tier to,
                                std::uint64_t now_us) {
  if (to == s.tier) return;
  const Tier from = s.tier;
  --tier_count_[static_cast<std::size_t>(from)];
  ++tier_count_[static_cast<std::size_t>(to)];
  s.tier = to;
  s.tier_since_us = now_us;
  if (to > from) {
    ++stats_.promotions;
  } else {
    ++stats_.demotions;
    if (to < Tier::kBlocked) s.blocked_until_us = 0;
  }
  if (on_transition_) {
    TierTransition t;
    t.key = key;
    t.source_ip = static_cast<std::uint32_t>(key);
    t.publisher_id = static_cast<std::uint32_t>(key >> 32);
    t.from = from;
    t.to = to;
    t.at_us = now_us;
    t.score = s.score;
    t.duplicates = s.duplicates;
    on_transition_(t);
  }
}

void ReputationLedger::apply_demotions(std::uint64_t key, SourceState& s,
                                       std::uint64_t now_us) {
  decay_score(s, now_us);
  if (s.tier == Tier::kBlocked) {
    // A live block holds regardless of score decay; only the TTL ends it,
    // and it ends into the analysis tier, never straight to clean.
    if (now_us < s.blocked_until_us) return;
    ++stats_.block_expiries;
    set_tier(key, s, Tier::kDiscounted, now_us);
  }
  while (s.tier > Tier::kClean) {
    const double hold =
        policy_.demote_ratio *
        static_cast<double>(promote_min_duplicates(s.tier));
    if (s.score >= hold) break;
    set_tier(key, s, tier_below(s.tier), now_us);
  }
}

Tier ReputationLedger::observe(std::uint32_t source_ip,
                               std::uint32_t publisher_id, bool duplicate,
                               std::uint64_t now_us) {
  ++stats_.observed;
  if (duplicate) ++stats_.duplicates;
  const std::uint64_t key = make_key(source_ip, publisher_id);
  if (duplicate) offenders_.offer(key);

  auto it = sources_.find(key);
  if (it == sources_.end()) {
    // Clean traffic never consumes a ledger slot; a record exists only
    // once the source produced at least one duplicate.
    if (!duplicate) return Tier::kClean;
    if (sources_.size() >= policy_.max_sources) {
      // Reclaim the least-incriminated clean record, the lowest (score,
      // key), so the choice does not depend on hash-map iteration order
      // and a restored ledger evicts what the original would. If every
      // record is flagged or worse, the ledger is genuinely full — drop
      // the admission (counted) rather than evict standing evidence.
      auto victim = sources_.end();
      for (auto cand = sources_.begin(); cand != sources_.end(); ++cand) {
        if (cand->second.tier != Tier::kClean) continue;
        if (victim == sources_.end() ||
            std::pair(cand->second.score, cand->first) <
                std::pair(victim->second.score, victim->first)) {
          victim = cand;
        }
      }
      if (victim == sources_.end()) {
        ++stats_.dropped_admissions;
        return Tier::kClean;
      }
      --tier_count_[static_cast<std::size_t>(Tier::kClean)];
      sources_.erase(victim);
    }
    it = sources_.emplace(key, SourceState{}).first;
    it->second.last_seen_us = now_us;
    it->second.tier_since_us = now_us;
    ++tier_count_[static_cast<std::size_t>(Tier::kClean)];
  }

  SourceState& s = it->second;
  decay_score(s, now_us);
  ++s.clicks;
  s.rate += policy_.rate_alpha * ((duplicate ? 1.0 : 0.0) - s.rate);
  if (duplicate) {
    ++s.duplicates;
    s.score += 1.0;
  }

  apply_demotions(key, s, now_us);

  if (s.tier == Tier::kBlocked) {
    // Re-offending while blocked extends the block.
    if (duplicate) {
      s.blocked_until_us =
          std::max(s.blocked_until_us, now_us + policy_.block_ttl_us);
    }
    return s.tier;
  }

  if (s.clicks >= policy_.min_clicks) {
    if (s.rate >= policy_.blatant_rate &&
        evidence_at_least(s, key, policy_.blatant_min_duplicates)) {
      set_tier(key, s, Tier::kBlocked, now_us);
      s.blocked_until_us = now_us + policy_.block_ttl_us;
    } else {
      const Tier next = tier_above(s.tier);
      if (s.rate >= promote_rate(next) &&
          evidence_at_least(s, key, promote_min_duplicates(next))) {
        set_tier(key, s, next, now_us);
        if (next == Tier::kBlocked) {
          s.blocked_until_us = now_us + policy_.block_ttl_us;
        }
      }
    }
  }
  return s.tier;
}

Tier ReputationLedger::decide(std::uint32_t source_ip,
                              std::uint32_t publisher_id,
                              std::uint64_t now_us) {
  const std::uint64_t key = make_key(source_ip, publisher_id);
  auto it = sources_.find(key);
  if (it == sources_.end()) return Tier::kClean;
  apply_demotions(key, it->second, now_us);
  return it->second.tier;
}

Tier ReputationLedger::tier_of(std::uint32_t source_ip,
                               std::uint32_t publisher_id) const {
  const auto it = sources_.find(make_key(source_ip, publisher_id));
  return it == sources_.end() ? Tier::kClean : it->second.tier;
}

std::size_t ReputationLedger::sweep(std::uint64_t now_us) {
  std::size_t erased = 0;
  for (auto it = sources_.begin(); it != sources_.end();) {
    apply_demotions(it->first, it->second, now_us);
    if (it->second.tier == Tier::kClean && it->second.score < kEraseScore) {
      --tier_count_[static_cast<std::size_t>(Tier::kClean)];
      it = sources_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

ReputationLedger::Stats ReputationLedger::stats() const noexcept {
  Stats s = stats_;
  s.sources = sources_.size();
  s.flagged = tier_count_[static_cast<std::size_t>(Tier::kFlagged)];
  s.discounted = tier_count_[static_cast<std::size_t>(Tier::kDiscounted)];
  s.blocked = tier_count_[static_cast<std::size_t>(Tier::kBlocked)];
  return s;
}

std::vector<ReputationLedger::Record> ReputationLedger::records() const {
  std::vector<Record> out;
  out.reserve(sources_.size());
  for (const auto& [key, s] : sources_) {
    Record r;
    r.key = key;
    r.source_ip = static_cast<std::uint32_t>(key);
    r.publisher_id = static_cast<std::uint32_t>(key >> 32);
    r.tier = s.tier;
    r.clicks = s.clicks;
    r.duplicates = s.duplicates;
    r.rate = s.rate;
    r.score = s.score;
    r.last_seen_us = s.last_seen_us;
    r.blocked_until_us = s.blocked_until_us;
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  return out;
}

// ---------------------------------------------------------------------------
// Snapshots: one "PPCENF01" section whose payload is
//   u64 key_by_publisher (0/1)
//   u64 record_count, then record_count × 9 u64s
//     {key, clicks, duplicates, rate_bits, score_bits, last_seen_us,
//      tier, tier_since_us, blocked_until_us}   (keys strictly ascending)
//   6 lifetime counters
//   the Space-Saving offender summary (its own validated format)

void ReputationLedger::save(std::ostream& out) const {
  namespace sio = core::detail;
  sio::write_section(out, sio::kEnforceMagic, [&](std::ostream& ps) {
    sio::write_u64(ps, policy_.key_by_publisher ? 1 : 0);
    const std::vector<Record> recs = records();
    sio::write_u64(ps, recs.size());
    for (const Record& r : recs) {
      const SourceState& s = sources_.at(r.key);
      sio::write_u64(ps, r.key);
      sio::write_u64(ps, s.clicks);
      sio::write_u64(ps, s.duplicates);
      sio::write_u64(ps, std::bit_cast<std::uint64_t>(s.rate));
      sio::write_u64(ps, std::bit_cast<std::uint64_t>(s.score));
      sio::write_u64(ps, s.last_seen_us);
      sio::write_u64(ps, static_cast<std::uint64_t>(s.tier));
      sio::write_u64(ps, s.tier_since_us);
      sio::write_u64(ps, s.blocked_until_us);
    }
    sio::write_u64(ps, stats_.observed);
    sio::write_u64(ps, stats_.duplicates);
    sio::write_u64(ps, stats_.promotions);
    sio::write_u64(ps, stats_.demotions);
    sio::write_u64(ps, stats_.block_expiries);
    sio::write_u64(ps, stats_.dropped_admissions);
    offenders_.save(ps);
  });
}

void ReputationLedger::restore(std::istream& in) {
  namespace sio = core::detail;
  try {
    std::unordered_map<std::uint64_t, SourceState> loaded;
    std::array<std::uint64_t, 4> counts{};
    Stats st;
    sio::read_section(in, sio::kEnforceMagic, "reputation ledger",
                      [&](std::istream& ps) {
      const std::uint64_t keyed = sio::read_u64(ps);
      if (keyed > 1) {
        throw std::runtime_error("ledger snapshot: corrupt key mode");
      }
      if ((keyed == 1) != policy_.key_by_publisher) {
        throw std::runtime_error(
            "ledger snapshot: key_by_publisher mismatch with policy");
      }
      const std::uint64_t count = sio::read_u64(ps);
      if (count > policy_.max_sources) {
        throw std::runtime_error("ledger snapshot: " + std::to_string(count) +
                                 " records exceed max_sources " +
                                 std::to_string(policy_.max_sources));
      }
      loaded.reserve(count);
      std::uint64_t prev_key = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t key = sio::read_u64(ps);
        if (i > 0 && key <= prev_key) {
          throw std::runtime_error(
              "ledger snapshot: record keys out of order (corrupt snapshot)");
        }
        prev_key = key;
        if (!policy_.key_by_publisher && (key >> 32) != 0) {
          throw std::runtime_error(
              "ledger snapshot: publisher bits set in an ip-keyed ledger");
        }
        SourceState s;
        s.clicks = sio::read_u64(ps);
        s.duplicates = sio::read_u64(ps);
        s.rate = std::bit_cast<double>(sio::read_u64(ps));
        s.score = std::bit_cast<double>(sio::read_u64(ps));
        s.last_seen_us = sio::read_u64(ps);
        const std::uint64_t tier = sio::read_u64(ps);
        s.tier_since_us = sio::read_u64(ps);
        s.blocked_until_us = sio::read_u64(ps);
        if (s.duplicates > s.clicks) {
          throw std::runtime_error(
              "ledger snapshot: duplicates exceed clicks (corrupt record)");
        }
        if (tier > static_cast<std::uint64_t>(Tier::kBlocked)) {
          throw std::runtime_error("ledger snapshot: tier " +
                                   std::to_string(tier) + " out of range");
        }
        s.tier = static_cast<Tier>(tier);
        if (!std::isfinite(s.rate) || s.rate < 0.0 || s.rate > 1.0 ||
            !std::isfinite(s.score) || s.score < 0.0) {
          throw std::runtime_error(
              "ledger snapshot: rate/score out of domain (corrupt record)");
        }
        ++counts[static_cast<std::size_t>(s.tier)];
        loaded.emplace(key, s);
      }
      st.observed = sio::read_u64(ps);
      st.duplicates = sio::read_u64(ps);
      st.promotions = sio::read_u64(ps);
      st.demotions = sio::read_u64(ps);
      st.block_expiries = sio::read_u64(ps);
      st.dropped_admissions = sio::read_u64(ps);
      offenders_.restore(ps);
    });
    sources_ = std::move(loaded);
    stats_ = st;
    tier_count_ = counts;
  } catch (...) {
    sources_.clear();
    offenders_.clear();
    stats_ = {};
    tier_count_ = {};
    throw;
  }
}

}  // namespace ppc::enforce
