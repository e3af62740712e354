// DetectorPool: one duplicate detector per ad (or per advertiser), created
// lazily from a shared factory under a global memory cap.
//
// Why per-ad detectors: a single shared detector keyed on (identifier, ad)
// gives every ad the same window in *global* arrivals, so a popular ad's
// traffic ages out a niche ad's clicks. Per-ad detectors give each ad a
// window over its OWN click stream — the semantics an advertiser actually
// buys — at the cost of one filter per active ad, which this pool meters.
//
// Batches: offer_batch(ad_ids, ids, times, out) groups a batch by ad and
// hands each ad's clicks, each with its own timestamp, to that detector's
// timed offer_batch in one call — the one batch contract of
// core::DuplicateDetector — so verdicts equal a click-at-a-time replay.
//
// Thread safety: the POOL (the ad → detector map and the memory meter) is
// guarded by an internal shared mutex, so lookups, creations and evictions
// may run from any thread. The per-ad DETECTORS are not individually
// locked: two threads offering clicks for the SAME ad concurrently is a
// data race. Callers offering from several threads must either partition
// ads across threads or install thread-safe detectors via the factory
// (e.g. core::ShardedDetector, whose per-shard mutexes make it
// individually thread-safe).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/duplicate_detector.hpp"
#include "core/snapshot_io.hpp"
#include "hashing/hash_common.hpp"

namespace ppc::adnet {

struct DetectorPoolOptions {
  /// Hard cap on the summed memory_bits() of all live detectors; a click
  /// for a new ad beyond the cap throws std::length_error (the operator
  /// must resize or evict, never silently degrade).
  std::size_t memory_cap_bits = std::size_t{1} << 33;  // 1 GiB
};

class DetectorPool {
 public:
  using Factory = std::function<std::unique_ptr<core::DuplicateDetector>(
      std::uint32_t ad_id)>;
  using Options = DetectorPoolOptions;

  DetectorPool(Factory factory, Options opts = {})
      : factory_(std::move(factory)), opts_(opts) {
    if (!factory_) {
      throw std::invalid_argument("DetectorPool: factory required");
    }
  }

  /// Routes one click to its ad's detector (creating it on first sight).
  bool offer(std::uint32_t ad_id, core::ClickId id, std::uint64_t time_us) {
    return detector_for(ad_id).offer(id, time_us);
  }

  /// Batch route path: groups a micro-batch by ad id, drives each ad's
  /// group through its detector's pipelined offer_batch in arrival order,
  /// and writes verdicts to `out[i]` for (`ad_ids[i]`, `ids[i]`). Each
  /// group's timestamps (`times[i]`, times.size() ≥ n) are gathered
  /// alongside its ids, so time-based windows see exactly the verdicts of
  /// a sequential replay.
  ///
  /// Partial-failure contract: every first-seen ad in the batch is admitted
  /// (its detector created under the memory cap) BEFORE any group is
  /// drained. A std::length_error from the cap therefore rejects the batch
  /// ATOMICALLY: no click has been offered, every verdict is unset, and no
  /// window state changed — the caller may evict and retry the identical
  /// batch. Detectors admitted for earlier first-seen ads in the failing
  /// batch remain in the pool (empty, correctly metered); they hold no
  /// clicks, so retrying yields the verdicts of an untouched replay.
  /// @throws std::length_error if admitting a first-seen ad's detector
  ///         would exceed the memory cap (before any verdict is computed).
  void offer_batch(std::span<const std::uint32_t> ad_ids,
                   std::span<const core::ClickId> ids,
                   std::span<const std::uint64_t> times, std::span<bool> out) {
    const std::size_t n = ids.size();
    if (n == 0) return;
    if (ad_ids.size() != n || times.size() < n || out.size() < n) {
      throw std::invalid_argument("DetectorPool::offer_batch: span mismatch");
    }

    // Group element indices by ad, preserving arrival order within an ad
    // (group numbering = first-occurrence order, exactly like the map-based
    // grouping this replaced, so verdicts are bit-identical). A flat chain
    // layout (first/next index per element) avoids per-ad vector churn.
    GroupScratch& gs = group_scratch();
    const std::size_t slots = std::bit_ceil(std::max<std::size_t>(16, 2 * n));
    if (gs.slot_epoch.size() < slots) {
      gs.slot_group.resize(slots);
      gs.slot_ad.resize(slots);
      gs.slot_epoch.assign(slots, 0);  // stamp 0 < any live epoch
    }
    const std::size_t mask = gs.slot_epoch.size() - 1;
    ++gs.epoch;
    gs.head.clear();
    gs.tail.clear();
    gs.group_ad.clear();
    gs.next.resize(std::max(gs.next.size(), n));
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t ad = ad_ids[i];
      std::size_t s = hashing::fmix64(ad) & mask;
      while (gs.slot_epoch[s] == gs.epoch && gs.slot_ad[s] != ad) {
        s = (s + 1) & mask;
      }
      gs.next[i] = kNone;
      if (gs.slot_epoch[s] != gs.epoch) {  // first sight of this ad
        gs.slot_epoch[s] = gs.epoch;
        gs.slot_ad[s] = ad;
        gs.slot_group[s] = static_cast<std::uint32_t>(gs.group_ad.size());
        gs.group_ad.push_back(ad);
        gs.head.push_back(static_cast<std::uint32_t>(i));
        gs.tail.push_back(static_cast<std::uint32_t>(i));
      } else {
        const std::uint32_t g = gs.slot_group[s];
        gs.next[gs.tail[g]] = static_cast<std::uint32_t>(i);
        gs.tail[g] = static_cast<std::uint32_t>(i);
      }
    }

    // Admission phase: create (or find) every group's detector BEFORE any
    // group drains. A memory-cap length_error escapes here, while zero
    // clicks have been offered — the partial-failure contract offer_batch
    // documents. Caching the pointers also keeps the drain loop off the
    // pool lock entirely (erasure of OTHER ads never moves these nodes).
    gs.group_det.clear();
    for (std::size_t g = 0; g < gs.group_ad.size(); ++g) {
      gs.group_det.push_back(&detector_for(gs.group_ad[g]));
    }

    for (std::size_t g = 0; g < gs.group_ad.size(); ++g) {
      gs.batch_ids.clear();
      gs.batch_times.clear();
      gs.batch_origin.clear();
      for (std::uint32_t i = gs.head[g]; i != kNone; i = gs.next[i]) {
        gs.batch_ids.push_back(ids[i]);
        gs.batch_times.push_back(times[i]);
        gs.batch_origin.push_back(i);
      }
      gs.batch_verdicts.resize(gs.batch_ids.size());
      const std::span<bool> verdict_span(
          reinterpret_cast<bool*>(gs.batch_verdicts.data()),
          gs.batch_verdicts.size());
      gs.group_det[g]->offer_batch(
          std::span<const core::ClickId>(gs.batch_ids),
          std::span<const std::uint64_t>(gs.batch_times), verdict_span);
      for (std::size_t j = 0; j < gs.batch_origin.size(); ++j) {
        out[gs.batch_origin[j]] = gs.batch_verdicts[j] != 0;
      }
    }
  }

  /// The detector for `ad_id`, creating it if needed.
  core::DuplicateDetector& detector_for(std::uint32_t ad_id) {
    {
      const std::shared_lock<std::shared_mutex> read(mutex_);
      const auto it = detectors_.find(ad_id);
      if (it != detectors_.end()) return *it->second;
    }
    const std::unique_lock<std::shared_mutex> write(mutex_);
    auto it = detectors_.find(ad_id);  // re-check: lost the upgrade race?
    if (it == detectors_.end()) {
      auto detector = factory_(ad_id);
      if (detector == nullptr) {
        throw std::invalid_argument("DetectorPool: factory returned null");
      }
      if (memory_bits_ + detector->memory_bits() > opts_.memory_cap_bits) {
        throw std::length_error("DetectorPool: memory cap exceeded");
      }
      memory_bits_ += detector->memory_bits();
      it = detectors_.emplace(ad_id, std::move(detector)).first;
    }
    return *it->second;
  }

  bool contains(std::uint32_t ad_id) const {
    const std::shared_lock<std::shared_mutex> read(mutex_);
    return detectors_.contains(ad_id);
  }

  /// Drops an ad's detector (campaign ended), releasing its budget share.
  /// Must not race offers for the same ad (the detector dies here).
  void evict(std::uint32_t ad_id) {
    const std::unique_lock<std::shared_mutex> write(mutex_);
    auto it = detectors_.find(ad_id);
    if (it == detectors_.end()) return;
    memory_bits_ -= it->second->memory_bits();
    detectors_.erase(it);
  }

  std::size_t size() const {
    const std::shared_lock<std::shared_mutex> read(mutex_);
    return detectors_.size();
  }
  std::size_t memory_bits() const {
    const std::shared_lock<std::shared_mutex> read(mutex_);
    return memory_bits_;
  }
  std::size_t memory_cap_bits() const noexcept {
    return opts_.memory_cap_bits;
  }

  /// Serializes every live per-ad detector into one versioned, CRC-checked
  /// section (core/snapshot_io.hpp `kPoolMagic`): ad ids in ascending order,
  /// each followed by its detector's nested save(). Holds the pool's read
  /// lock for the duration; the per-ad detectors must not be receiving
  /// concurrent offers (same contract as evict()).
  void save(std::ostream& out) const {
    const std::shared_lock<std::shared_mutex> read(mutex_);
    std::vector<std::uint32_t> ads;
    ads.reserve(detectors_.size());
    for (const auto& [ad, det] : detectors_) ads.push_back(ad);
    std::sort(ads.begin(), ads.end());
    core::detail::write_section(out, core::detail::kPoolMagic,
                                [&](std::ostream& ps) {
      core::detail::write_u64(ps, ads.size());
      for (const std::uint32_t ad : ads) {
        core::detail::write_u64(ps, ad);
        detectors_.at(ad)->save(ps);
      }
    });
  }

  /// Restores state saved by save(): each saved ad's detector is built
  /// through this pool's factory (so it must produce detectors with the
  /// same options as the saving pool's) and its nested state restored into
  /// it. The memory cap is enforced exactly as during live creation.
  /// Corrupt sections throw before any detector is built; a nested failure
  /// after that leaves the pool partially populated — evict or discard it.
  void restore(std::istream& in) {
    core::detail::read_section(in, core::detail::kPoolMagic, "DetectorPool",
                               [&](std::istream& ps) {
      const std::uint64_t ad_count = core::detail::read_u64(ps);
      if (ad_count > kMaxSnapshotAds) {
        throw std::runtime_error(
            "DetectorPool::restore: implausible ad count " +
            std::to_string(ad_count));
      }
      std::uint64_t prev_ad = 0;
      for (std::uint64_t i = 0; i < ad_count; ++i) {
        const std::uint64_t ad = core::detail::read_u64(ps);
        if (ad > 0xffffffffull) {
          throw std::runtime_error("DetectorPool::restore: corrupt ad id " +
                                   std::to_string(ad));
        }
        // save() writes ads strictly ascending; anything else is corruption
        // (and would let a forged snapshot restore one ad twice).
        if (i > 0 && ad <= prev_ad) {
          throw std::runtime_error(
              "DetectorPool::restore: ad ids out of order (corrupt snapshot)");
        }
        prev_ad = ad;
        try {
          detector_for(static_cast<std::uint32_t>(ad)).restore(ps);
        } catch (const std::length_error&) {
          throw;  // memory cap: operator error, not snapshot corruption
        } catch (const std::exception& e) {
          throw std::runtime_error("DetectorPool::restore: ad " +
                                   std::to_string(ad) + ": " + e.what());
        }
      }
    });
  }

 private:
  /// Reusable per-thread grouping scratch. The slot arrays form an
  /// open-addressing hash table (linear probing, power-of-two size) whose
  /// entries are invalidated by EPOCH STAMP instead of clearing: a slot
  /// belongs to the current batch iff slot_epoch[s] == epoch, so starting a
  /// new batch is one increment, not an O(table) wipe — and, unlike the
  /// unordered_map this replaced, steady state allocates nothing.
  struct GroupScratch {
    std::vector<std::uint32_t> slot_group;  ///< group index at this slot
    std::vector<std::uint32_t> slot_ad;     ///< ad id occupying this slot
    std::vector<std::uint64_t> slot_epoch;  ///< batch stamp; stale ≠ epoch
    std::uint64_t epoch = 0;
    std::vector<std::uint32_t> head, tail;  ///< per group: chain ends
    std::vector<std::uint32_t> next;        ///< per element: chain link
    std::vector<std::uint32_t> group_ad;    ///< per group: its ad id
    std::vector<core::DuplicateDetector*> group_det;  ///< admitted detectors
    std::vector<core::ClickId> batch_ids;     ///< one group's gathered ids
    std::vector<std::uint64_t> batch_times;   ///< … and timestamps
    std::vector<std::uint32_t> batch_origin;  ///< … and batch positions
    std::vector<char> batch_verdicts;         ///< … and verdicts
  };

  static GroupScratch& group_scratch() {
    static thread_local GroupScratch scratch;
    return scratch;
  }

  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// Sanity cap on restored ads: far above any live pool (the memory cap
  /// bites first) but small enough that a forged count fails fast.
  static constexpr std::uint64_t kMaxSnapshotAds = std::uint64_t{1} << 20;

  Factory factory_;
  Options opts_;
  mutable std::shared_mutex mutex_;  ///< guards the map + memory meter
  std::unordered_map<std::uint32_t, std::unique_ptr<core::DuplicateDetector>>
      detectors_;
  std::size_t memory_bits_ = 0;
};

}  // namespace ppc::adnet
