#include "analysis/heavy_hitters.hpp"

#include <string>

#include "core/snapshot_io.hpp"

namespace ppc::analysis {

namespace {
// "PPCSSHH1" — Space-Saving summary snapshot, little-endian byte tag.
constexpr std::uint64_t kSpaceSavingMagic = 0x50504353'53484831ULL;
}  // namespace

void SpaceSaving::increment(BucketList::iterator bucket, ItemIter item) {
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

void SpaceSaving::offer(std::uint64_t key) {
  ++stream_length_;
  auto it = index_.find(key);
  if (it != index_.end()) {
    increment(bucket_of_[key], it->second);
    return;
  }

  if (index_.size() < capacity_) {
    // Room available: start monitoring at count 1, no error.
    if (buckets_.empty() || buckets_.front().count != 1) {
      buckets_.insert(buckets_.begin(), Bucket{1, {}});
    }
    auto bucket = buckets_.begin();
    bucket->items.push_front(Entry{key, 1, 0});
    index_[key] = bucket->items.begin();
    bucket_of_[key] = bucket;
    return;
  }

  // Evict a minimum-count entry: the newcomer inherits its count as error
  // (the Space-Saving overestimation bound).
  auto min_bucket = buckets_.begin();
  ItemIter victim = std::prev(min_bucket->items.end());
  index_.erase(victim->key);
  bucket_of_.erase(victim->key);
  const std::uint64_t inherited = min_bucket->count;
  victim->key = key;
  victim->error = inherited;
  index_[key] = victim;
  bucket_of_[key] = min_bucket;
  increment(min_bucket, victim);
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries() const {
  std::vector<Entry> out;
  out.reserve(index_.size());
  for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
    for (const Entry& e : it->items) out.push_back(e);
  }
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::top(std::size_t n) const {
  auto all = entries();
  if (all.size() > n) all.resize(n);
  return all;
}

void SpaceSaving::save(std::ostream& out) const {
  core::detail::write_u64(out, kSpaceSavingMagic);
  core::detail::write_u64(out, capacity_);
  core::detail::write_u64(out, stream_length_);
  core::detail::write_u64(out, index_.size());
  // Ascending count order: restore() can rebuild the bucket list by
  // appending, and the monotonicity doubles as a corruption check.
  for (const auto& bucket : buckets_) {
    for (const Entry& e : bucket.items) {
      core::detail::write_u64(out, e.key);
      core::detail::write_u64(out, e.count);
      core::detail::write_u64(out, e.error);
    }
  }
}

void SpaceSaving::restore(std::istream& in) {
  core::detail::expect_magic(in, kSpaceSavingMagic, "SpaceSaving");
  const std::uint64_t capacity = core::detail::read_u64(in);
  if (capacity != capacity_) {
    throw std::runtime_error(
        "SpaceSaving::restore: capacity mismatch (snapshot " +
        std::to_string(capacity) + ", instance " +
        std::to_string(capacity_) + ")");
  }
  const std::uint64_t stream_length = core::detail::read_u64(in);
  const std::uint64_t count = core::detail::read_u64(in);
  if (count > capacity_) {
    throw std::runtime_error("SpaceSaving::restore: " + std::to_string(count) +
                             " entries exceed capacity");
  }
  clear();
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Entry e;
    e.key = core::detail::read_u64(in);
    e.count = core::detail::read_u64(in);
    e.error = core::detail::read_u64(in);
    if (e.count < prev || e.error > e.count || e.count == 0 ||
        index_.contains(e.key)) {
      clear();
      throw std::runtime_error(
          "SpaceSaving::restore: corrupt entry stream at index " +
          std::to_string(i));
    }
    prev = e.count;
    if (buckets_.empty() || buckets_.back().count != e.count) {
      buckets_.push_back(Bucket{e.count, {}});
    }
    // Append in saved order: the in-bucket order picks eviction victims,
    // so a restored summary must keep it to evolve like the original.
    auto bucket = std::prev(buckets_.end());
    bucket->items.push_back(e);
    index_[e.key] = std::prev(bucket->items.end());
    bucket_of_[e.key] = bucket;
  }
  stream_length_ = stream_length;
}

}  // namespace ppc::analysis
