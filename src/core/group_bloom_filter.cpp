#include "core/group_bloom_filter.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/batch_hash_ring.hpp"
#include "core/snapshot_io.hpp"

namespace ppc::core {

namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

GroupBloomFilter::GroupBloomFilter(WindowSpec window, Options opts)
    : window_(window),
      bits_per_subfilter_(opts.bits_per_subfilter),
      subwindows_(window.kind == WindowKind::kLandmark ? 1u
                                                       : window.subwindows),
      family_(opts.hash_count, opts.bits_per_subfilter, opts.strategy,
              opts.seed),
      matrix_(opts.bits_per_subfilter, subwindows_ + 1) {
  if (window.kind == WindowKind::kSliding) {
    throw std::invalid_argument(
        "GroupBloomFilter: sliding windows need TimingBloomFilter (paper §4)");
  }
  window_.validate();
  if (bits_per_subfilter_ == 0) {
    throw std::invalid_argument("GroupBloomFilter: m must be positive");
  }

  if (window_.basis == WindowBasis::kCount) {
    subwindow_len_ = window_.subwindow_length();
    clean_stride_ = ceil_div(bits_per_subfilter_, subwindow_len_);
  } else {
    const std::uint64_t sub_span_us = window_.length / subwindows_;
    if (sub_span_us == 0 || sub_span_us % window_.time_unit_us != 0) {
      throw std::invalid_argument(
          "GroupBloomFilter: sub-window span must be a positive multiple of "
          "time_unit_us");
    }
    units_per_subwindow_ = sub_span_us / window_.time_unit_us;
    clean_stride_ = ceil_div(bits_per_subfilter_, units_per_subwindow_);
  }
}

void GroupBloomFilter::reset() {
  matrix_.clear();
  current_ = 0;
  cleaning_ = 1;
  clean_row_ = 0;
  fill_count_ = 0;
  current_unit_ = 0;
  units_into_subwindow_ = 0;
  time_started_ = false;
}

void GroupBloomFilter::clean_step(std::uint64_t rows) {
  if (clean_row_ >= bits_per_subfilter_) return;  // slot already clean
  const std::uint64_t end =
      std::min<std::uint64_t>(clean_row_ + rows, bits_per_subfilter_);
  matrix_.clear_slot_rows(cleaning_, clean_row_, end);
  if (ops_ != nullptr) ops_->word_writes += end - clean_row_;
  clean_row_ = end;
}

void GroupBloomFilter::jump() {
  // The cleaning slot must be fully zero before it becomes current: the
  // per-arrival stride guarantees it in the steady state, and finishing any
  // remainder here only fires when a time-based window jumps with no
  // arrivals in between.
  clean_step(bits_per_subfilter_);
  current_ = cleaning_;
  cleaning_ = (cleaning_ + 1) % (subwindows_ + 1);
  clean_row_ = 0;
}

void GroupBloomFilter::advance_time(std::uint64_t time_us) {
  const std::uint64_t unit = time_us / window_.time_unit_us;
  if (!time_started_) {
    current_unit_ = unit;
    time_started_ = true;
    return;
  }
  // A stamp older than the clock is judged at the current unit.
  if (unit <= current_unit_) return;
  const std::uint64_t delta = unit - current_unit_;
  const std::uint64_t R = units_per_subwindow_;
  const std::uint64_t slots = subwindows_ + 1;
  // Sub-window jumps the per-unit walk would make (overflow-safe form of
  // (units_into_subwindow_ + delta) / R).
  const std::uint64_t jumps =
      delta / R + (units_into_subwindow_ + delta % R) / R;
  if (jumps >= slots) {
    // Q+1 jumps with no arrivals: every slot was zeroed after its last
    // insert, so one flat clear plus closed-form cursor arithmetic gives
    // the walk's exact end state at O(m·(Q+1)) cost, whatever the gap.
    matrix_.clear();
    if (ops_ != nullptr) ops_->word_writes += matrix_.raw_words().size();
    current_ = static_cast<std::size_t>((current_ + jumps % slots) % slots);
    cleaning_ = static_cast<std::size_t>((cleaning_ + jumps % slots) % slots);
    units_into_subwindow_ = (units_into_subwindow_ + delta % R) % R;
    clean_row_ = units_into_subwindow_ >= bits_per_subfilter_
                     ? bits_per_subfilter_
                     : std::min<std::uint64_t>(
                           units_into_subwindow_ * clean_stride_,
                           bits_per_subfilter_);
    current_unit_ = unit;
    return;
  }
  // One cleaning step per elapsed time unit; a sub-window jump every R
  // units.
  while (current_unit_ < unit) {
    clean_step(clean_stride_);
    ++current_unit_;
    if (++units_into_subwindow_ == units_per_subwindow_) {
      jump();
      units_into_subwindow_ = 0;
    }
  }
}

bool GroupBloomFilter::probe_and_insert(ClickId id) {
  std::uint64_t rows[hashing::kMaxHashFunctions];
  const std::size_t k = family_.k();
  family_.indices(id, std::span<std::uint64_t>(rows, k));
  if (ops_ != nullptr) ops_->hash_evals += 1;
  return probe_and_insert_rows(rows, k);
}

bool GroupBloomFilter::probe_and_insert_rows(const std::uint64_t* rows,
                                             std::size_t k) {
  using Word = bits::SlicedBitMatrix::Word;
  bool duplicate = false;
  for (std::size_t lane = 0; lane < matrix_.lanes(); ++lane) {
    Word acc = matrix_.probe_and(std::span<const std::uint64_t>(rows, k), lane);
    if (ops_ != nullptr) ops_->word_reads += k;
    // Mask the expired (cleaning) slot out of the verdict: its residual bits
    // are stale data from Q+1 sub-windows ago.
    if (cleaning_ / 64 == lane) {
      acc &= ~(Word{1} << (cleaning_ % 64));
    }
    if (acc != 0) {
      duplicate = true;
      break;
    }
  }
  if (duplicate) return true;

  for (std::size_t i = 0; i < k; ++i) {
    matrix_.set(current_, static_cast<std::size_t>(rows[i]));
  }
  if (ops_ != nullptr) ops_->word_writes += k;
  return false;
}

void GroupBloomFilter::finish_arrival_count_basis() {
  // Count-based windows advance on every *arrival* (§1.2: a count-based
  // window holds the last N items of the stream, duplicates included).
  if (++fill_count_ == subwindow_len_) {
    jump();
    fill_count_ = 0;
  }
}

bool GroupBloomFilter::do_offer(ClickId id, std::uint64_t time_us) {
  if (window_.basis == WindowBasis::kTime) {
    advance_time(time_us);
  } else {
    clean_step(clean_stride_);
  }

  const bool duplicate = probe_and_insert(id);

  if (window_.basis == WindowBasis::kCount) finish_arrival_count_basis();
  return duplicate;
}

void GroupBloomFilter::offer_batch(std::span<const ClickId> ids,
                                   std::span<const std::uint64_t> times,
                                   std::span<bool> out) {
  if (ids.empty()) return;
  if (window_.basis == WindowBasis::kCount) {
    offer_batch_count(ids, out);  // count basis never reads timestamps
    return;
  }
  offer_batch_time(ids, times, out);
}

void GroupBloomFilter::offer_batch_count(std::span<const ClickId> ids,
                                         std::span<bool> out) {
  // Software pipeline: the ring block-hashes ids through the
  // IndexFamily::indices_batch path and keeps one hashed-and-prefetched
  // block ahead of classification, so a DRAM-resident filter has a block's
  // worth of probe lines in flight instead of stalling on each element's k
  // misses in turn. Write intent on the prefetch because a fresh element
  // inserts into the very rows it probed.
  const std::size_t k = family_.k();
  const std::size_t n = ids.size();
  const auto prefetch_rows = [&](const std::uint64_t* r) {
    for (std::size_t h = 0; h < k; ++h) {
      matrix_.prefetch_row_write(static_cast<std::size_t>(r[h]));
    }
  };
  detail::BatchHashRing ring(family_, ids);
  ring.prime(prefetch_rows);

  std::size_t i = 0;
  while (i < n) {
    // Bulk cleaning: every arrival until the next sub-window jump pays its
    // incremental stride up front in one contiguous clear. The cleaning
    // slot is masked out of every verdict, so retiring its rows early is
    // verdict-for-verdict identical to the per-arrival schedule — it just
    // trades n small strided loops for one streaming pass.
    const std::size_t run = static_cast<std::size_t>(
        std::min<std::uint64_t>(n - i, subwindow_len_ - fill_count_));
    clean_step(clean_stride_ * static_cast<std::uint64_t>(run));
    if (matrix_.lanes() == 1) {
      // Single-lane specialization (Q + 1 ≤ 64, the common geometry): the
      // current/cleaning slots are fixed for the whole run, so the verdict
      // is a flat k-word AND against hoisted masks — no lane loop, no
      // per-element op-counter branches (they are folded in per run).
      using Word = bits::SlicedBitMatrix::Word;
      const Word cleaning_mask = ~(Word{1} << cleaning_);
      const Word current_bit = Word{1} << current_;
      std::size_t fresh = 0;
      for (const std::size_t end = i + run; i < end; ++i) {
        const std::uint64_t* r = ring.rows(i);
        Word acc = ~Word{0};
        for (std::size_t h = 0; h < k; ++h) {
          acc &= *matrix_.word_ptr(static_cast<std::size_t>(r[h]));
        }
        acc &= cleaning_mask;
        out[i] = acc != 0;
        // Branchless insert: a duplicate ORs in 0 — physically a redundant
        // store to a line the pipeline already owns exclusive, semantically
        // a no-op — which beats mispredicting the fresh/duplicate branch on
        // a mixed stream.
        const Word insert_bit = acc == 0 ? current_bit : Word{0};
        fresh += acc == 0 ? 1u : 0u;
        for (std::size_t h = 0; h < k; ++h) {
          *matrix_.word_ptr(static_cast<std::size_t>(r[h])) |= insert_bit;
        }
        ring.advance(i, prefetch_rows);
      }
      if (ops_ != nullptr) {  // identical totals to the generic path
        ops_->word_reads += k * run;
        ops_->word_writes += k * fresh;
      }
    } else {
      for (const std::size_t end = i + run; i < end; ++i) {
        out[i] = probe_and_insert_rows(ring.rows(i), k);
        ring.advance(i, prefetch_rows);
      }
    }
    fill_count_ += run;
    if (fill_count_ == subwindow_len_) {
      jump();
      fill_count_ = 0;
    }
  }
  if (ops_ != nullptr) ops_->hash_evals += ring.hashed();
}

void GroupBloomFilter::offer_batch_time(std::span<const ClickId> ids,
                                        std::span<const std::uint64_t> times,
                                        std::span<bool> out) {
  // Time basis with the hash stage batched: index derivation depends only
  // on the key, so hashing a block ahead commutes with the per-element
  // advance_time interleave and verdicts match a sequential replay
  // exactly.
  const std::size_t k = family_.k();
  const auto prefetch_rows = [&](const std::uint64_t* r) {
    for (std::size_t h = 0; h < k; ++h) {
      matrix_.prefetch_row_write(static_cast<std::size_t>(r[h]));
    }
  };
  detail::BatchHashRing ring(family_, ids);
  ring.prime(prefetch_rows);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    advance_time(times[i]);
    out[i] = probe_and_insert_rows(ring.rows(i), k);
    ring.advance(i, prefetch_rows);
  }
  if (ops_ != nullptr) ops_->hash_evals += ring.hashed();
}

namespace {
constexpr std::uint64_t kGbfMagic = 0x50504347'42463031ULL;  // "PPCGBF01"
}  // namespace

void GroupBloomFilter::save(std::ostream& out) const {
  detail::write_u64(out, kGbfMagic);
  detail::write_window(out, window_);
  detail::write_u64(out, bits_per_subfilter_);
  detail::write_u64(out, family_.k());
  detail::write_u64(out, static_cast<std::uint64_t>(family_.strategy()));
  detail::write_u64(out, family_.seed());
  detail::write_u64(out, current_);
  detail::write_u64(out, cleaning_);
  detail::write_u64(out, clean_row_);
  detail::write_u64(out, fill_count_);
  detail::write_u64(out, current_unit_);
  detail::write_u64(out, units_into_subwindow_);
  detail::write_u64(out, time_started_ ? 1 : 0);
  detail::write_words(out, matrix_.raw_words());
  if (!out) throw std::runtime_error("GroupBloomFilter::save: write failed");
}

void GroupBloomFilter::restore(std::istream& in) {
  detail::expect_magic(in, kGbfMagic, "GroupBloomFilter");
  const WindowSpec window = detail::read_window(in);
  const std::uint64_t m = detail::read_u64(in);
  const std::uint64_t k = detail::read_u64(in);
  const std::uint64_t strategy = detail::read_u64(in);
  const std::uint64_t seed = detail::read_u64(in);
  if (window != window_) {
    throw std::runtime_error(
        "GroupBloomFilter::restore: snapshot window [" + window.describe() +
        "] does not match this instance [" + window_.describe() + "]");
  }
  if (m != bits_per_subfilter_ || k != family_.k() ||
      strategy != static_cast<std::uint64_t>(family_.strategy()) ||
      seed != family_.seed()) {
    throw std::runtime_error(
        "GroupBloomFilter::restore: snapshot filter options (m/k/strategy/"
        "seed) do not match this instance");
  }
  const std::uint64_t current = detail::read_u64(in);
  const std::uint64_t cleaning = detail::read_u64(in);
  if (current > subwindows_ || cleaning > subwindows_) {
    throw std::runtime_error("GroupBloomFilter: corrupt slot indices");
  }
  current_ = static_cast<std::size_t>(current);
  cleaning_ = static_cast<std::size_t>(cleaning);
  clean_row_ = detail::read_u64(in);
  fill_count_ = detail::read_u64(in);
  current_unit_ = detail::read_u64(in);
  units_into_subwindow_ = detail::read_u64(in);
  time_started_ = detail::read_u64(in) != 0;
  const auto words = detail::read_words(in);
  matrix_.set_raw_words(words);
}

}  // namespace ppc::core
