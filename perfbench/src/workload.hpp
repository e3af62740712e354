// Workload definitions and the seeded click streams the benchmark sends.
//
// Every stream is a pure function of (workload, seed, connection): the wire
// run generates it on the fly, and the verification pass regenerates it
// from index 0 to replay it through in-process oracles, so no click is ever
// stored.
//
// Duplicates are re-clicks of a recent fresh click of the same source and
// ad, never more than kMaxDupDistance clicks of the same connection after
// the original. Fresh ids are unique (a bijective mix of connection and
// counter). So an exact sliding-window oracle of kOracleWindow clicks per
// connection agrees with every window the daemon can run here (per-ad
// jumping, per-shard jumping, the tiered pool's global tail), however the
// daemon interleaves connections.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "hashing/hash_common.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace perfbench {

inline constexpr std::uint64_t kMaxDupDistance = 16384;
inline constexpr std::uint64_t kOracleWindow = 32768;

enum class ClickKind : std::uint8_t { kHonest, kNat, kBot, kLowSlow };

struct Click {
  std::uint32_t ad = 0;
  std::uint64_t id = 0;
  std::uint64_t time = 0;
  std::uint32_t source = 0;
  ClickKind kind = ClickKind::kHonest;
  bool dup = false;  ///< a re-click (the generator's own label)
  bool honest() const {
    return kind == ClickKind::kHonest || kind == ClickKind::kNat;
  }
};

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> daemon_args;  ///< besides --listen
  unsigned connections = 1;
  bool v2 = false;           ///< CLICK_BATCH_V2 with source addresses
  bool replicated = false;   ///< primary with a follower joining
  double open_rate = 0;      ///< clicks/s over all connections
  std::uint32_t open_batch = 256;
  std::uint32_t peak_batch = 4096;
  std::uint32_t peak_inflight = 4;
  double deadline_ms = 0;    ///< open-loop verdict deadline
  double late_bound_ms = 0;  ///< gen.late_p99_ms above this voids the run
  std::uint64_t warm_clicks = 0;  ///< per connection, offered in set-up
  std::uint32_t setups = 9;       ///< daemon spawns behind setup_s
  int daemon_cpus = 1;            ///< CPUs the daemon is pinned to at a time
  // Stream shape.
  std::uint32_t ads_per_conn = 8;
  std::uint64_t ad_universe = 0;  ///< >0: one Zipf over all ads (tiered)
  double honest_dup = 0.1;
};

inline WorkloadSpec workload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "paper_pool") {
    w.daemon_args = {"--sink=pool", "--window=jumping:1048576:8",
                     "--memory-mib=2", "--loops=1"};
    w.connections = 2;
    w.open_rate = 1.0e6;
    w.open_batch = 512;
    w.deadline_ms = 250;
    w.late_bound_ms = 50;
    w.ads_per_conn = 8;
  } else if (name == "tiered_tenants") {
    w.daemon_args = {"--sink=tiered", "--loops=1"};
    w.connections = 1;
    w.open_rate = 2.0e5;
    w.open_batch = 256;
    w.peak_inflight = 4;
    w.deadline_ms = 250;
    w.late_bound_ms = 50;
    w.ad_universe = std::uint64_t{1} << 20;
  } else if (name == "enforced_replicated") {
    w.daemon_args = {"--enforce=on", "--sink=sharded", "--shards=8",
                     "--window=jumping:1048576:8", "--memory-mib=4",
                     "--loops=2"};
    w.connections = 2;
    w.v2 = true;
    w.replicated = true;
    w.open_rate = 3.0e5;
    w.open_batch = 256;
    w.deadline_ms = 1000;
    w.late_bound_ms = 50;
    w.warm_clicks = 1u << 19;
    w.setups = 3;
    w.daemon_cpus = 2;
    w.ads_per_conn = 16;
    w.honest_dup = 0.06;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_pool", "tiered_tenants", "enforced_replicated"};
  return names;
}

/// One connection's click stream. next() is deterministic in (spec, seed,
/// conn) and the call count.
class ClickStream {
 public:
  ClickStream(const WorkloadSpec& spec, std::uint64_t seed, unsigned conn)
      : spec_(spec),
        conn_(conn),
        rng_(ppc::hashing::fmix64(seed * 0x9e3779b97f4a7c15ULL + conn + 1)),
        id_key_(ppc::hashing::fmix64(seed ^ 0x5bd1e995ULL)),
        ad_zipf_(spec.ad_universe > 0 ? spec.ad_universe : spec.ads_per_conn,
                 1.0),
        honest_src_zipf_(kHonestSources, 0.8),
        honest_ring_(2048),
        bot_ring_(64),
        slow_ring_(64) {}

  std::uint64_t index() const { return index_; }

  void next(Click& c) {
    c.time = kTimeBase + index_;
    if (!spec_.v2) {
      c.kind = ClickKind::kHonest;
      c.source = 0;
      emit(c, honest_ring_, spec_.honest_dup, pick_ad());
    } else {
      // Enforcement mix: a NAT flash crowd bursts every fourth 2^18-click
      // period; a coordinated botnet hammers one ad; low-and-slow sources
      // re-click at a rate under the block threshold.
      const bool nat_burst = ((index_ >> 18) & 3) == 1;
      const double u = rng_.uniform();
      const double nat_share = nat_burst ? 0.30 : 0.02;
      if (u < 0.06) {
        c.kind = ClickKind::kBot;
        c.source = 0xC6120000u | (conn_ << 8) | (1 + rng_.below(kBots));
        emit(c, bot_ring_, 0.9, ad_base());
      } else if (u < 0.08) {
        c.kind = ClickKind::kLowSlow;
        c.source = 0xCB000000u | (conn_ << 12) | (1 + rng_.below(kSlowSources));
        emit(c, slow_ring_, 0.4, pick_ad());
      } else if (u < 0.08 + nat_share) {
        c.kind = ClickKind::kNat;
        c.source = nat_source(conn_);
        emit(c, honest_ring_, spec_.honest_dup, pick_ad());
      } else {
        c.kind = ClickKind::kHonest;
        c.source = 0x0A000000u | (conn_ << 20) |
                   static_cast<std::uint32_t>(1 + honest_src_zipf_.sample(rng_));
        emit(c, honest_ring_, spec_.honest_dup, pick_ad());
      }
    }
    ++index_;
  }

  static std::uint32_t nat_source(unsigned conn) {
    return 0x64400000u | (conn << 8) | 1u;
  }
  static bool is_bot_source(std::uint32_t s) {
    return (s & 0xFFFF0000u) == 0xC6120000u;
  }

 private:
  static constexpr std::uint64_t kTimeBase = 1'000'000;
  static constexpr std::uint32_t kBots = 64;
  static constexpr std::uint32_t kSlowSources = 256;
  static constexpr std::uint64_t kHonestSources = 16384;

  struct Recent {
    std::uint32_t ad = 0;
    std::uint64_t id = 0;
    std::uint32_t source = 0;
    std::uint64_t index = 0;
  };
  struct Ring {
    explicit Ring(std::size_t n) : slots(n) {}
    std::vector<Recent> slots;
    std::size_t filled = 0;
    std::size_t pos = 0;
    void push(const Recent& r) {
      slots[pos] = r;
      pos = (pos + 1) % slots.size();
      if (filled < slots.size()) ++filled;
    }
  };

  std::uint32_t ad_base() const {
    return spec_.ad_universe > 0 ? 0 : conn_ * spec_.ads_per_conn;
  }
  std::uint32_t pick_ad() {
    return ad_base() + static_cast<std::uint32_t>(ad_zipf_.sample(rng_));
  }

  /// Re-clicks a recent fresh click of `ring` with probability `dup`
  /// (keeping its ad and source), else mints a fresh id on `ad`.
  void emit(Click& c, Ring& ring, double dup, std::uint32_t ad) {
    if (ring.filled > 0 && rng_.uniform() < dup) {
      const Recent& r = ring.slots[rng_.below(ring.filled)];
      if (index_ - r.index <= kMaxDupDistance) {
        c.dup = true;
        c.ad = r.ad;
        c.id = r.id;
        if (r.source != 0) c.source = r.source;
        return;
      }
    }
    c.dup = false;
    c.ad = ad;
    c.id = ppc::hashing::fmix64(
        id_key_ ^ ((static_cast<std::uint64_t>(conn_ + 1) << 48) | fresh_++));
    ring.push({c.ad, c.id, c.source, index_});
  }

  const WorkloadSpec& spec_;
  std::uint32_t conn_;
  ppc::stream::Rng rng_;
  std::uint64_t id_key_;
  ppc::stream::ZipfSampler ad_zipf_;
  ppc::stream::ZipfSampler honest_src_zipf_;
  Ring honest_ring_;
  Ring bot_ring_;
  Ring slow_ring_;
  std::uint64_t index_ = 0;
  std::uint64_t fresh_ = 0;
};

}  // namespace perfbench
