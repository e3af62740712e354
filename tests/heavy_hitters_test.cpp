// Tests for the Space-Saving heavy-hitters structure: exactness below
// capacity, the frequent-item guarantee, error bounds, and Zipf behaviour.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "analysis/heavy_hitters.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace ppc::analysis {
namespace {

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

}  // namespace
}  // namespace ppc::analysis
