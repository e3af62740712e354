#include "analysis/heavy_hitters.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "core/snapshot_io.hpp"

namespace ppc::analysis {

namespace {
// "PPCSSHH1" — Space-Saving summary snapshot, little-endian byte tag.
constexpr std::uint64_t kSpaceSavingMagic = 0x50504353'53484831ULL;
// Fibonacci hashing multiplier (2^64 / golden ratio): the top bits of
// key * kFib spread sequential ids (ad numbers, IPs) across the index.
constexpr std::uint64_t kFib = 0x9e3779b97f4a7c15ULL;
// Node and bucket indices are 32-bit with kNil reserved.
constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;
}  // namespace

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("SpaceSaving: capacity must be >= 1");
  }
  if (capacity > kMaxCapacity) {
    throw std::invalid_argument("SpaceSaving: capacity must be <= 2^30");
  }
  nodes_.resize(capacity);
  buckets_.resize(capacity + 1);
  slots_.resize(std::bit_ceil(2 * capacity));
  slot_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  clear();
}

void SpaceSaving::clear() {
  std::fill(slots_.begin(), slots_.end(), kNil);
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b].next = static_cast<std::uint32_t>(b + 1);
  }
  buckets_.back().next = kNil;
  free_bucket_ = 0;
  min_bucket_ = kNil;
  max_bucket_ = kNil;
  size_ = 0;
  stream_length_ = 0;
}

std::size_t SpaceSaving::find_slot(std::uint64_t key) const noexcept {
  // At most capacity keys in >= 2·capacity slots: an empty slot always
  // ends the probe.
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = static_cast<std::size_t>((key * kFib) >> slot_shift_);
  while (slots_[s] != kNil && nodes_[slots_[s]].key != key) s = (s + 1) & mask;
  return s;
}

void SpaceSaving::index_erase(std::size_t slot) noexcept {
  // Backward-shift delete: pull each later member of the probe run into
  // the hole unless that would move it before its home slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (slot + 1) & mask; slots_[j] != kNil;
       j = (j + 1) & mask) {
    const std::uint32_t n = slots_[j];
    const auto home =
        static_cast<std::size_t>((nodes_[n].key * kFib) >> slot_shift_);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = n;
      hole = j;
    }
  }
  slots_[hole] = kNil;
}

std::uint32_t SpaceSaving::bucket_after(std::uint32_t b,
                                        std::uint64_t count) {
  // Takes a free bucket and links it after `b` (kNil: as the new minimum).
  const std::uint32_t nb = free_bucket_;
  Bucket& bucket = buckets_[nb];
  free_bucket_ = bucket.next;
  bucket.count = count;
  bucket.head = kNil;
  bucket.tail = kNil;
  bucket.prev = b;
  bucket.next = b == kNil ? min_bucket_ : buckets_[b].next;
  if (bucket.next == kNil) {
    max_bucket_ = nb;
  } else {
    buckets_[bucket.next].prev = nb;
  }
  if (b == kNil) {
    min_bucket_ = nb;
  } else {
    buckets_[b].next = nb;
  }
  return nb;
}

void SpaceSaving::bucket_unlink(std::uint32_t b) noexcept {
  Bucket& bucket = buckets_[b];
  if (bucket.prev == kNil) {
    min_bucket_ = bucket.next;
  } else {
    buckets_[bucket.prev].next = bucket.next;
  }
  if (bucket.next == kNil) {
    max_bucket_ = bucket.prev;
  } else {
    buckets_[bucket.next].prev = bucket.prev;
  }
  bucket.next = free_bucket_;
  free_bucket_ = b;
}

void SpaceSaving::push_front(std::uint32_t b, std::uint32_t n) noexcept {
  Bucket& bucket = buckets_[b];
  Node& node = nodes_[n];
  node.bucket = b;
  node.prev = kNil;
  node.next = bucket.head;
  if (bucket.head == kNil) {
    bucket.tail = n;
  } else {
    nodes_[bucket.head].prev = n;
  }
  bucket.head = n;
}

void SpaceSaving::push_back(std::uint32_t b, std::uint32_t n) noexcept {
  Bucket& bucket = buckets_[b];
  Node& node = nodes_[n];
  node.bucket = b;
  node.prev = bucket.tail;
  node.next = kNil;
  if (bucket.tail == kNil) {
    bucket.head = n;
  } else {
    nodes_[bucket.tail].next = n;
  }
  bucket.tail = n;
}

void SpaceSaving::unlink(std::uint32_t n) noexcept {
  const Node& node = nodes_[n];
  Bucket& bucket = buckets_[node.bucket];
  if (node.prev == kNil) {
    bucket.head = node.next;
  } else {
    nodes_[node.prev].next = node.next;
  }
  if (node.next == kNil) {
    bucket.tail = node.prev;
  } else {
    nodes_[node.next].prev = node.prev;
  }
}

void SpaceSaving::increment(std::uint32_t n) {
  const std::uint32_t b = nodes_[n].bucket;
  const std::uint64_t new_count = buckets_[b].count + 1;
  std::uint32_t next = buckets_[b].next;
  if (next == kNil || buckets_[next].count != new_count) {
    next = bucket_after(b, new_count);
  }
  unlink(n);
  push_front(next, n);
  if (buckets_[b].head == kNil) bucket_unlink(b);
}

void SpaceSaving::offer(std::uint64_t key) {
  ++stream_length_;
  std::size_t slot = find_slot(key);
  if (slots_[slot] != kNil) {
    increment(slots_[slot]);
    return;
  }

  if (size_ < capacity_) {
    // Room available: start monitoring at count 1, no error.
    const auto n = static_cast<std::uint32_t>(size_++);
    nodes_[n].key = key;
    nodes_[n].error = 0;
    std::uint32_t b = min_bucket_;
    if (b == kNil || buckets_[b].count != 1) b = bucket_after(kNil, 1);
    push_front(b, n);
    slots_[slot] = n;
    return;
  }

  // Evict a minimum-count entry: the newcomer inherits its count as error
  // (the Space-Saving overestimation bound).
  const std::uint32_t victim = buckets_[min_bucket_].tail;
  index_erase(find_slot(nodes_[victim].key));
  slot = find_slot(key);  // the erase may have shifted key's probe run
  nodes_[victim].key = key;
  nodes_[victim].error = buckets_[min_bucket_].count;
  slots_[slot] = victim;
  increment(victim);
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries() const {
  std::vector<Entry> out;
  out.reserve(size_);
  for (std::uint32_t b = max_bucket_; b != kNil; b = buckets_[b].prev) {
    for (std::uint32_t n = buckets_[b].head; n != kNil; n = nodes_[n].next) {
      out.push_back(Entry{nodes_[n].key, buckets_[b].count, nodes_[n].error});
    }
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
  core::detail::write_u64(out, size_);
  // Ascending count order: restore() can rebuild the bucket list by
  // appending, and the monotonicity doubles as a corruption check.
  for (std::uint32_t b = min_bucket_; b != kNil; b = buckets_[b].next) {
    for (std::uint32_t n = buckets_[b].head; n != kNil; n = nodes_[n].next) {
      core::detail::write_u64(out, nodes_[n].key);
      core::detail::write_u64(out, buckets_[b].count);
      core::detail::write_u64(out, nodes_[n].error);
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
    const std::size_t slot = find_slot(e.key);
    if (e.count < prev || e.error > e.count || e.count == 0 ||
        slots_[slot] != kNil) {
      clear();
      throw std::runtime_error(
          "SpaceSaving::restore: corrupt entry stream at index " +
          std::to_string(i));
    }
    prev = e.count;
    std::uint32_t b = max_bucket_;
    if (b == kNil || buckets_[b].count != e.count) {
      b = bucket_after(max_bucket_, e.count);
    }
    // Append in saved order: the in-bucket order picks eviction victims,
    // so a restored summary must keep it to evolve like the original.
    const auto n = static_cast<std::uint32_t>(size_++);
    nodes_[n].key = e.key;
    nodes_[n].error = e.error;
    push_back(b, n);
    slots_[slot] = n;
  }
  stream_length_ = stream_length;
}

}  // namespace ppc::analysis
