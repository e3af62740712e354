// Tests for the Space-Saving heavy-hitters structure: exactness below
// capacity, the frequent-item guarantee, error bounds, Zipf behaviour, and
// a differential check of the flat-array summary against a reference
// Stream-Summary built from std::list buckets.
#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>

#include "analysis/heavy_hitters.hpp"
#include "core/snapshot_io.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace ppc::analysis {
namespace {

// Reference model: the textbook Stream-Summary — a std::list of count
// buckets in ascending order, each a std::list of entries, plus two hash
// maps from key to entry and bucket. Same order rules as SpaceSaving
// (increment and insert at the bucket front, evict the back of the minimum
// bucket, save ascending, restore by appending), same snapshot format.
class ListSpaceSaving {
 public:
  using Entry = SpaceSaving::Entry;

  explicit ListSpaceSaving(std::size_t capacity) : capacity_(capacity) {}

  void offer(std::uint64_t key) {
    ++stream_length_;
    auto it = index_.find(key);
    if (it != index_.end()) {
      increment(bucket_of_[key], it->second);
      return;
    }
    if (index_.size() < capacity_) {
      if (buckets_.empty() || buckets_.front().count != 1) {
        buckets_.insert(buckets_.begin(), Bucket{1, {}});
      }
      auto bucket = buckets_.begin();
      bucket->items.push_front(Entry{key, 1, 0});
      index_[key] = bucket->items.begin();
      bucket_of_[key] = bucket;
      return;
    }
    auto min_bucket = buckets_.begin();
    ItemIter victim = std::prev(min_bucket->items.end());
    index_.erase(victim->key);
    bucket_of_.erase(victim->key);
    victim->key = key;
    victim->error = min_bucket->count;
    index_[key] = victim;
    bucket_of_[key] = min_bucket;
    increment(min_bucket, victim);
  }

  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
      for (const Entry& e : it->items) out.push_back(e);
    }
    return out;
  }

  void clear() {
    buckets_.clear();
    index_.clear();
    bucket_of_.clear();
    stream_length_ = 0;
  }

  void save(std::ostream& out) const {
    core::detail::write_u64(out, 0x50504353'53484831ULL);  // "PPCSSHH1"
    core::detail::write_u64(out, capacity_);
    core::detail::write_u64(out, stream_length_);
    core::detail::write_u64(out, index_.size());
    for (const Bucket& bucket : buckets_) {
      for (const Entry& e : bucket.items) {
        core::detail::write_u64(out, e.key);
        core::detail::write_u64(out, e.count);
        core::detail::write_u64(out, e.error);
      }
    }
  }

 private:
  struct Bucket {
    std::uint64_t count;
    std::list<Entry> items;
  };
  using BucketList = std::list<Bucket>;
  using ItemIter = std::list<Entry>::iterator;

  void increment(BucketList::iterator bucket, ItemIter item) {
    const std::uint64_t new_count = bucket->count + 1;
    auto next = std::next(bucket);
    if (next == buckets_.end() || next->count != new_count) {
      next = buckets_.insert(next, Bucket{new_count, {}});
    }
    next->items.splice(next->items.begin(), bucket->items, item);
    bucket_of_[item->key] = next;
    item->count = new_count;
    if (bucket->items.empty()) buckets_.erase(bucket);
  }

  std::size_t capacity_;
  BucketList buckets_;
  std::unordered_map<std::uint64_t, ItemIter> index_;
  std::unordered_map<std::uint64_t, BucketList::iterator> bucket_of_;
  std::uint64_t stream_length_ = 0;
};

template <typename Summary>
std::string bytes_of(const Summary& s) {
  std::ostringstream out(std::ios::binary);
  s.save(out);
  return out.str();
}

void expect_same_entries(const SpaceSaving& flat, const ListSpaceSaving& ref,
                         const std::string& where) {
  const auto a = flat.entries();
  const auto b = ref.entries();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key) << where << " entry " << i;
    ASSERT_EQ(a[i].count, b[i].count) << where << " entry " << i;
    ASSERT_EQ(a[i].error, b[i].error) << where << " entry " << i;
  }
}

TEST(SpaceSaving, RejectsZeroCapacity) {
  EXPECT_THROW(SpaceSaving(0), std::invalid_argument);
}

TEST(SpaceSaving, ExactWhenUnderCapacity) {
  SpaceSaving ss(16);
  for (int rep = 0; rep < 5; ++rep) {
    for (std::uint64_t key = 0; key < 10; ++key) {
      for (std::uint64_t i = 0; i <= key; ++i) ss.offer(key);
    }
  }
  EXPECT_EQ(ss.monitored(), 10u);
  const auto entries = ss.entries();
  ASSERT_EQ(entries.size(), 10u);
  EXPECT_EQ(entries.front().key, 9u);
  EXPECT_EQ(entries.front().count, 50u);
  EXPECT_EQ(entries.front().error, 0u);
  EXPECT_EQ(entries.back().key, 0u);
  EXPECT_EQ(entries.back().count, 5u);
  // Sorted descending.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].count, entries[i].count);
  }
}

TEST(SpaceSaving, CountsAreUpperBoundsWithBoundedError) {
  // Adversarial-ish stream over a key space 8x the capacity.
  SpaceSaving ss(32);
  std::map<std::uint64_t, std::uint64_t> truth;
  stream::Rng rng(3);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t key = rng.below(256);
    ss.offer(key);
    ++truth[key];
  }
  const std::uint64_t max_error = ss.stream_length() / ss.capacity();
  for (const auto& e : ss.entries()) {
    EXPECT_GE(e.count, truth[e.key]) << "count must upper-bound truth";
    EXPECT_LE(e.count - e.error, truth[e.key])
        << "count - error must lower-bound truth";
    EXPECT_LE(e.error, max_error) << "error beyond the N/m bound";
  }
}

TEST(SpaceSaving, GuaranteesTrueHeavyHitters) {
  // One key is 30% of the stream; with capacity 64 it MUST be tracked and
  // reported on top.
  SpaceSaving ss(64);
  stream::Rng rng(4);
  for (int i = 0; i < 30'000; ++i) {
    ss.offer(rng.chance(0.3) ? 42u : 1000 + rng.below(5000));
  }
  const auto top = ss.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 42u);
  EXPECT_TRUE(ss.guaranteed_frequent(42, ss.stream_length() / 10));
  EXPECT_FALSE(ss.guaranteed_frequent(99999, 0));
}

TEST(SpaceSaving, TopKOnZipfStreamFindsTheHead) {
  SpaceSaving ss(128);
  stream::ZipfSampler zipf(100'000, 1.2);
  stream::Rng rng(5);
  for (int i = 0; i < 200'000; ++i) ss.offer(zipf.sample(rng));
  const auto top = ss.top(5);
  ASSERT_EQ(top.size(), 5u);
  // The five most popular Zipf ranks are 0..4 (in some order).
  for (const auto& e : top) {
    EXPECT_LT(e.key, 8u) << "a tail key displaced the Zipf head";
  }
}

TEST(SpaceSaving, ClearResets) {
  SpaceSaving ss(8);
  ss.offer(1);
  ss.offer(1);
  ss.clear();
  EXPECT_EQ(ss.monitored(), 0u);
  EXPECT_EQ(ss.stream_length(), 0u);
  EXPECT_TRUE(ss.entries().empty());
}

TEST(SpaceSaving, TopMoreThanMonitoredReturnsAll) {
  SpaceSaving ss(8);
  ss.offer(1);
  ss.offer(2);
  EXPECT_EQ(ss.top(100).size(), 2u);
}

TEST(SpaceSaving, SaveRestoreRoundTrip) {
  SpaceSaving ss(32);
  stream::ZipfSampler zipf(10'000, 1.1);
  stream::Rng rng(6);
  for (int i = 0; i < 50'000; ++i) ss.offer(zipf.sample(rng));

  const auto bytes_of = [](const SpaceSaving& s) {
    std::ostringstream out(std::ios::binary);
    s.save(out);
    return out.str();
  };
  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  ss.save(snap);
  SpaceSaving restored(32);
  restored.restore(snap);

  EXPECT_EQ(restored.stream_length(), ss.stream_length());
  EXPECT_EQ(restored.monitored(), ss.monitored());
  // Byte-identical re-save: restore keeps the saved order WITHIN each
  // count bucket, not just the key -> (count, error) content. That order
  // picks the eviction victim, so a reordering restore would make a
  // restored summary diverge from the original on the next new key.
  EXPECT_EQ(bytes_of(restored), bytes_of(ss));
  auto as_map = [](const SpaceSaving& s) {
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> m;
    for (const auto& e : s.entries()) m[e.key] = {e.count, e.error};
    return m;
  };
  EXPECT_EQ(as_map(ss), as_map(restored));

  // A never-seen key forces an eviction; both summaries must drop the
  // same victim.
  constexpr std::uint64_t kNewKey = std::uint64_t{1} << 40;
  const auto before = as_map(ss);
  ss.offer(kNewKey);
  restored.offer(kNewKey);
  std::uint64_t victim_a = kNewKey;
  std::uint64_t victim_b = kNewKey;
  for (const auto& [key, ce] : before) {
    if (!as_map(ss).contains(key)) victim_a = key;
    if (!as_map(restored).contains(key)) victim_b = key;
  }
  ASSERT_NE(victim_a, kNewKey) << "the new key must evict someone";
  EXPECT_EQ(victim_a, victim_b);

  // The restored summary keeps COUNTING identically (buckets rebuilt, not
  // just the flat entries): same stream in, same bytes out.
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    ss.offer(key);
    restored.offer(key);
  }
  EXPECT_EQ(restored.stream_length(), ss.stream_length());
  EXPECT_EQ(bytes_of(restored), bytes_of(ss));
  EXPECT_EQ(ss.top(1).front().key, 0u);
  EXPECT_EQ(restored.top(1).front().key, 0u);
}

TEST(SpaceSaving, RestoreRejectsCapacityMismatchAndCorruption) {
  SpaceSaving ss(16);
  for (std::uint64_t k = 0; k < 10; ++k) ss.offer(k);
  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  ss.save(snap);

  SpaceSaving wrong_capacity(8);
  EXPECT_THROW(wrong_capacity.restore(snap), std::runtime_error);

  std::string bytes = snap.str();
  bytes[bytes.size() - 3] ^= 0xff;  // corrupt an entry near the end
  std::istringstream corrupt(bytes, std::ios::binary);
  SpaceSaving target(16);
  EXPECT_THROW(target.restore(corrupt), std::runtime_error);
  EXPECT_EQ(target.monitored(), 0u) << "failed restore must leave it cleared";
}

struct DiffCase {
  std::size_t capacity;
  bool zipf;
};

class SpaceSavingDiffTest : public ::testing::TestWithParam<DiffCase> {};

// The flat summary must track the reference entry for entry — same keys,
// counts, errors, and order — and save identical bytes, through evictions,
// epoch-style clear(), and a save -> restore -> continue handover.
TEST_P(SpaceSavingDiffTest, MatchesListReference) {
  const DiffCase c = GetParam();
  const std::uint64_t universe = 16 * c.capacity + 64;
  stream::ZipfSampler zipf(universe, 1.1);
  stream::Rng rng(c.capacity * 2 + (c.zipf ? 1 : 0));
  const auto next_key = [&] {
    const std::uint64_t rank = c.zipf ? zipf.sample(rng) : rng.below(universe);
    return rank * 0x100000001ULL;  // spread keys beyond 32 bits
  };

  SpaceSaving flat(c.capacity);
  ListSpaceSaving ref(c.capacity);
  constexpr int kClicks = 60'000;
  for (int i = 1; i <= kClicks; ++i) {
    const std::uint64_t key = next_key();
    flat.offer(key);
    ref.offer(key);
    if (i % 5'000 == 0) {
      expect_same_entries(flat, ref, "click " + std::to_string(i));
      ASSERT_EQ(bytes_of(flat), bytes_of(ref)) << "click " << i;
    }
    if (i == kClicks / 3) {  // an epoch boundary
      flat.clear();
      ref.clear();
    }
  }

  // Save -> restore -> continue: the restored summary must keep evicting
  // exactly as the reference that never left memory.
  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  flat.save(snap);
  SpaceSaving restored(c.capacity);
  restored.restore(snap);
  ASSERT_EQ(bytes_of(restored), bytes_of(ref));
  for (int i = 1; i <= kClicks / 2; ++i) {
    const std::uint64_t key = next_key();
    restored.offer(key);
    ref.offer(key);
    if (i % 5'000 == 0) {
      expect_same_entries(restored, ref, "restored click " + std::to_string(i));
    }
  }
  EXPECT_EQ(restored.stream_length(), kClicks - kClicks / 3 + kClicks / 2);
  EXPECT_EQ(bytes_of(restored), bytes_of(ref));
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndStreams, SpaceSavingDiffTest,
    ::testing::Values(DiffCase{1, true}, DiffCase{1, false},
                      DiffCase{2, true}, DiffCase{2, false},
                      DiffCase{7, true}, DiffCase{7, false},
                      DiffCase{1024, true}, DiffCase{1024, false},
                      DiffCase{4096, true}, DiffCase{4096, false}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(info.param.zipf ? "Zipf" : "Uniform") + "Cap" +
             std::to_string(info.param.capacity);
    });

}  // namespace
}  // namespace ppc::analysis
