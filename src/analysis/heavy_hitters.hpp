// Space-Saving heavy hitters (Metwally, Agrawal & El Abbadi, ICDT'05) —
// the same authors' streaming top-k structure, used here to answer the
// follow-up question every flagged duplicate raises: *which* identifiers
// (bot IPs, cookies) are doing the duplicating?
//
// Classic guarantees: with `capacity` counters, any identifier whose true
// frequency exceeds stream_length / capacity is guaranteed to be tracked,
// and every reported count overestimates the true count by at most the
// reported `error`.
//
// Layout: Metwally et al.'s Stream-Summary (a list of count buckets, each
// a list of the entries sharing that count) lives in flat arrays sized once
// at construction, linked by 32-bit indices, so offer() never allocates:
//   * `capacity` entry nodes (key, error, owning bucket, in-bucket links),
//     handed out in order and only returned wholesale by clear();
//   * `capacity + 1` bucket nodes (count, entry head/tail, bucket links) on
//     a free list — at most `capacity` buckets are live, plus the one an
//     increment creates before it empties its old bucket;
//   * an open-addressing key -> entry index of bit_ceil(2·capacity) slots,
//     Fibonacci-hashed, linear probing, backward-shift delete (no
//     tombstones, so probe lengths never degrade over a long stream).
//
// Order invariants (eviction choice and snapshot bytes depend on them):
//   * buckets are linked in ascending count order;
//   * an increment moves the entry to the FRONT of the next bucket;
//   * a new key enters the FRONT of the count-1 bucket;
//   * the eviction victim is the BACK of the minimum bucket;
//   * entries() walks buckets in descending count order, each front to
//     back; save() walks them ascending, each front to back; restore()
//     appends in saved order, so a restored summary evicts like the
//     original.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace ppc::analysis {

class SpaceSaving {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  ///< upper bound on the true frequency
    std::uint64_t error = 0;  ///< count - error lower-bounds the truth
  };

  /// @throws std::invalid_argument if capacity is 0 or does not fit the
  /// 32-bit node indices.
  explicit SpaceSaving(std::size_t capacity);

  /// Records one occurrence of `key`. O(1) expected, never allocates.
  void offer(std::uint64_t key);

  /// All monitored entries, sorted by count descending.
  std::vector<Entry> entries() const;

  /// The top `n` entries (n may exceed the monitored count).
  std::vector<Entry> top(std::size_t n) const;

  /// True iff `key` is *guaranteed* to have frequency > stream/capacity
  /// (count - error still exceeds the threshold).
  bool guaranteed_frequent(std::uint64_t key, std::uint64_t threshold) const {
    const std::uint32_t n = slots_[find_slot(key)];
    if (n == kNil) return false;
    return buckets_[nodes_[n].bucket].count - nodes_[n].error > threshold;
  }

  std::uint64_t stream_length() const noexcept { return stream_length_; }
  std::size_t monitored() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

  void clear();

  /// Serializes the full summary (capacity, stream length, every monitored
  /// entry) so heavy-hitter-driven state — e.g. the tiered pool's
  /// promotion loop — survives a snapshot/restore cycle.
  void save(std::ostream& out) const;

  /// Restores state saved by save() INTO THIS INSTANCE. The snapshot's
  /// capacity must match this instance's; corrupt input (counts out of
  /// order, error > count, too many entries) throws std::runtime_error
  /// and leaves the summary cleared.
  void restore(std::istream& in);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::uint64_t key;
    std::uint64_t error;
    std::uint32_t bucket;
    std::uint32_t prev, next;  ///< neighbours within the bucket
  };
  struct Bucket {
    std::uint64_t count;
    std::uint32_t head, tail;  ///< first/last entry node
    std::uint32_t prev, next;  ///< neighbours in ascending count order
  };

  /// Slot holding `key`, or the empty slot where probing for it stopped.
  std::size_t find_slot(std::uint64_t key) const noexcept;
  void index_erase(std::size_t slot) noexcept;

  std::uint32_t bucket_after(std::uint32_t b, std::uint64_t count);
  void bucket_unlink(std::uint32_t b) noexcept;
  void push_front(std::uint32_t b, std::uint32_t n) noexcept;
  void push_back(std::uint32_t b, std::uint32_t n) noexcept;
  void unlink(std::uint32_t n) noexcept;
  void increment(std::uint32_t n);

  std::size_t capacity_;
  std::vector<Node> nodes_;      // [0, size_) are live
  std::vector<Bucket> buckets_;  // live list + free list (via next)
  std::vector<std::uint32_t> slots_;  // key index, kNil = empty
  unsigned slot_shift_;               // 64 - log2(slots_.size())
  std::size_t size_ = 0;
  std::uint32_t min_bucket_ = kNil;  // ascending list head
  std::uint32_t max_bucket_ = kNil;  // ascending list tail
  std::uint32_t free_bucket_ = kNil;
  std::uint64_t stream_length_ = 0;
};

}  // namespace ppc::analysis
