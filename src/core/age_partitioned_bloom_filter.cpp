#include "core/age_partitioned_bloom_filter.hpp"

#include <algorithm>
#include <bit>
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

std::size_t checked_hash_count(const AgePartitionedBloomFilter::Options& o) {
  if (o.consecutive == 0) {
    throw std::invalid_argument(
        "AgePartitionedBloomFilter: consecutive (k) must be positive");
  }
  if (o.generations == 0) {
    throw std::invalid_argument(
        "AgePartitionedBloomFilter: generations (l) must be positive");
  }
  if (o.consecutive + o.generations > hashing::kMaxHashFunctions) {
    throw std::invalid_argument(
        "AgePartitionedBloomFilter: k + l exceeds kMaxHashFunctions (" +
        std::to_string(hashing::kMaxHashFunctions) + ")");
  }
  return o.consecutive + o.generations;
}

}  // namespace

AgePartitionedBloomFilter::AgePartitionedBloomFilter(WindowSpec window,
                                                     Options opts)
    : window_(window),
      bits_per_slice_(opts.bits_per_slice),
      k_(opts.consecutive),
      l_(opts.generations),
      gen_span_(0),
      words_per_slice_(
          static_cast<std::size_t>(ceil_div(opts.bits_per_slice, kWordBits))),
      family_(checked_hash_count(opts), opts.bits_per_slice, opts.strategy,
              opts.seed),
      words_() {
  window_.validate();
  if (window_.kind != WindowKind::kSliding) {
    throw std::invalid_argument(
        "AgePartitionedBloomFilter: the age-partitioned design is a sliding "
        "window; use GroupBloomFilter for jumping/landmark windows");
  }
  if (bits_per_slice_ == 0) {
    throw std::invalid_argument(
        "AgePartitionedBloomFilter: bits_per_slice must be positive");
  }
  if (window_.basis == WindowBasis::kCount) {
    // l generations of g arrivals must cover the last N arrivals.
    gen_span_ = ceil_div(window_.length, l_);
  } else {
    // validate() guarantees length is a positive multiple of time_unit_us.
    const std::uint64_t window_units = window_.length / window_.time_unit_us;
    gen_span_ = ceil_div(window_units, l_);
  }
  clean_stride_ = ceil_div(words_per_slice_, gen_span_);
  words_.assign(slice_count() * words_per_slice_, 0);
}

void AgePartitionedBloomFilter::reset() {
  std::fill(words_.begin(), words_.end(), Word{0});
  youngest_ = 0;
  youngest_hash_ = 0;
  fill_in_gen_ = 0;
  clean_word_ = 0;
  current_unit_ = 0;
  units_into_gen_ = 0;
  time_started_ = false;
}

double AgePartitionedBloomFilter::youngest_slice_fill() const {
  const Word* w = slice_words(slot_of(0));
  std::uint64_t ones = 0;
  for (std::size_t i = 0; i < words_per_slice_; ++i) {
    ones += static_cast<std::uint64_t>(std::popcount(w[i]));
  }
  return static_cast<double>(ones) / static_cast<double>(bits_per_slice_);
}

void AgePartitionedBloomFilter::clean_step(std::uint64_t word_count) {
  if (clean_word_ >= words_per_slice_) return;  // slot already clean
  const std::uint64_t end =
      std::min<std::uint64_t>(clean_word_ + word_count, words_per_slice_);
  Word* w = slice_words(slot_of(k_ + l_));
  std::fill(w + clean_word_, w + end, Word{0});
  if (ops_ != nullptr) ops_->word_writes += end - clean_word_;
  clean_word_ = end;
}

void AgePartitionedBloomFilter::shift_generation() {
  // The cleaning slot must be fully zero before it becomes the youngest:
  // the per-arrival stride guarantees it in the steady state, and finishing
  // any remainder here only fires when a time-based window shifts with no
  // arrivals in between.
  clean_step(words_per_slice_);
  youngest_ = youngest_ == 0 ? slice_count() - 1 : youngest_ - 1;
  // The new youngest is one generation younger, so it takes the next hash
  // in the cycle — which is exactly the function the slice that just
  // retired was using, so live slices keep k+l distinct functions.
  youngest_hash_ =
      youngest_hash_ + 1 == hash_functions() ? 0 : youngest_hash_ + 1;
  clean_word_ = 0;
}

void AgePartitionedBloomFilter::advance_time(std::uint64_t time_us) {
  const std::uint64_t unit = time_us / window_.time_unit_us;
  if (!time_started_) {
    current_unit_ = unit;
    time_started_ = true;
    return;
  }
  if (unit <= current_unit_) return;
  const std::uint64_t delta = unit - current_unit_;
  const std::size_t S = slice_count();
  const std::uint64_t shifts = (units_into_gen_ + delta) / gen_span_;
  if (shifts >= S) {
    // Longer than a full ring revolution with no arrivals: every slice has
    // retired, so one flat zeroing pass plus closed-form cursor arithmetic
    // reproduces the per-unit loop's exact end state at O(m) cost.
    std::fill(words_.begin(), words_.end(), Word{0});
    youngest_ = (youngest_ + S - static_cast<std::size_t>(shifts % S)) % S;
    youngest_hash_ = static_cast<std::size_t>(
        (youngest_hash_ + shifts % hash_functions()) % hash_functions());
    units_into_gen_ = (units_into_gen_ + delta) % gen_span_;
    clean_word_ = units_into_gen_ >= words_per_slice_
                      ? words_per_slice_
                      : std::min<std::uint64_t>(units_into_gen_ * clean_stride_,
                                                words_per_slice_);
    current_unit_ = unit;
    if (ops_ != nullptr) ops_->word_writes += words_.size();
    return;
  }
  // One cleaning step per elapsed time unit; a generation shift every
  // gen_span_ units. Idle gaps below a revolution run the loop to catch up.
  while (current_unit_ < unit) {
    clean_step(clean_stride_);
    ++current_unit_;
    if (++units_into_gen_ == gen_span_) {
      shift_generation();
      units_into_gen_ = 0;
    }
  }
}

void AgePartitionedBloomFilter::finish_arrival_count_basis() {
  // Count-based windows advance on every *arrival* (§1.2 of the 2008
  // paper: a count-based window holds the last N items, duplicates
  // included) — g arrivals close a generation.
  if (++fill_in_gen_ == gen_span_) {
    shift_generation();
    fill_in_gen_ = 0;
  }
}

bool AgePartitionedBloomFilter::probe_and_insert(ClickId id) {
  std::uint64_t idx[hashing::kMaxHashFunctions];
  family_.indices(id, std::span<std::uint64_t>(idx, hash_functions()));
  if (ops_ != nullptr) ops_->hash_evals += 1;
  return probe_and_insert_idx(idx);
}

bool AgePartitionedBloomFilter::probe_and_insert_idx(const std::uint64_t* idx) {
  // Duplicate iff some k CONSECUTIVE live slices all contain the element.
  // Logical slice j (0 = youngest) uses hash (youngest_hash_ - j) mod H;
  // idx[] is hash-function-major, so index into it by that rotation.
  const std::size_t H = hash_functions();
  std::size_t run = 0;
  std::size_t probes = 0;
  bool duplicate = false;
  for (std::size_t j = 0; j < H; ++j) {
    const std::size_t v = youngest_hash_ + H - j;
    const std::size_t h = v >= H ? v - H : v;
    ++probes;
    if (slice_test(slot_of(j), idx[h])) {
      if (++run == k_) {
        duplicate = true;
        break;
      }
    } else {
      run = 0;
      if (H - 1 - j < k_) break;  // no room left for a k-run
    }
  }
  if (ops_ != nullptr) ops_->word_reads += probes;
  if (duplicate) return true;

  for (std::size_t j = 0; j < k_; ++j) {
    const std::size_t v = youngest_hash_ + H - j;
    const std::size_t h = v >= H ? v - H : v;
    slice_set(slot_of(j), idx[h]);
  }
  if (ops_ != nullptr) ops_->word_writes += k_;
  return false;
}

void AgePartitionedBloomFilter::prefetch_idx(const std::uint64_t* idx) const {
  // One word per live slice; write intent because a fresh element inserts
  // into the k youngest of the very words it probed. A generation shift
  // between prefetch and classification only mis-aims the hint — the probe
  // itself always recomputes the rotation.
  const std::size_t H = hash_functions();
  for (std::size_t j = 0; j < H; ++j) {
    const std::size_t v = youngest_hash_ + H - j;
    const std::size_t h = v >= H ? v - H : v;
    __builtin_prefetch(slice_words(slot_of(j)) + idx[h] / kWordBits, 1);
  }
}

bool AgePartitionedBloomFilter::do_offer(ClickId id, std::uint64_t time_us) {
  if (window_.basis == WindowBasis::kTime) {
    advance_time(time_us);
  } else {
    clean_step(clean_stride_);
  }

  const bool duplicate = probe_and_insert(id);

  if (window_.basis == WindowBasis::kCount) finish_arrival_count_basis();
  return duplicate;
}

void AgePartitionedBloomFilter::offer_batch(std::span<const ClickId> ids,
                                            std::span<const std::uint64_t> times,
                                            std::span<bool> out) {
  if (ids.empty()) return;
  if (window_.basis == WindowBasis::kCount) {
    offer_batch_count(ids, out);  // count basis never reads timestamps
    return;
  }
  offer_batch_time(ids, times, out);
}

void AgePartitionedBloomFilter::offer_batch_count(std::span<const ClickId> ids,
                                                  std::span<bool> out) {
  // Software pipeline: the ring block-hashes ids through the
  // IndexFamily::indices_batch path (same ring as GBF/TBF) and keeps one
  // hashed-and-prefetched block ahead of classification, so the slices have
  // a block's worth of probe words in flight instead of one element's k+l.
  const auto prefetch = [&](const std::uint64_t* idx) { prefetch_idx(idx); };
  detail::BatchHashRing ring(family_, ids);
  ring.prime(prefetch);

  const std::size_t n = ids.size();
  std::size_t i = 0;
  while (i < n) {
    // Bulk cleaning: every arrival until the next generation shift pays its
    // incremental stride up front in one contiguous clear. The cleaning
    // slot is never probed, so retiring its words early is verdict-for-
    // verdict identical to the per-arrival schedule.
    const std::size_t run = static_cast<std::size_t>(
        std::min<std::uint64_t>(n - i, gen_span_ - fill_in_gen_));
    clean_step(clean_stride_ * static_cast<std::uint64_t>(run));
    for (const std::size_t end = i + run; i < end; ++i) {
      out[i] = probe_and_insert_idx(ring.rows(i));
      ring.advance(i, prefetch);
    }
    fill_in_gen_ += run;
    if (fill_in_gen_ == gen_span_) {
      shift_generation();
      fill_in_gen_ = 0;
    }
  }
  if (ops_ != nullptr) ops_->hash_evals += ring.hashed();
}

void AgePartitionedBloomFilter::offer_batch_time(
    std::span<const ClickId> ids, std::span<const std::uint64_t> times,
    std::span<bool> out) {
  // Time basis with the hash stage batched: index derivation depends only
  // on the key, so hashing a block ahead commutes with the per-element
  // advance_time interleave and verdicts match a sequential replay
  // exactly.
  const auto prefetch = [&](const std::uint64_t* idx) { prefetch_idx(idx); };
  detail::BatchHashRing ring(family_, ids);
  ring.prime(prefetch);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    advance_time(times[i]);
    out[i] = probe_and_insert_idx(ring.rows(i));
    ring.advance(i, prefetch);
  }
  if (ops_ != nullptr) ops_->hash_evals += ring.hashed();
}

void AgePartitionedBloomFilter::write_state(std::ostream& out) const {
  detail::write_window(out, window_);
  detail::write_u64(out, bits_per_slice_);
  detail::write_u64(out, k_);
  detail::write_u64(out, l_);
  detail::write_u64(out, static_cast<std::uint64_t>(family_.strategy()));
  detail::write_u64(out, family_.seed());
  detail::write_u64(out, youngest_);
  detail::write_u64(out, youngest_hash_);
  detail::write_u64(out, fill_in_gen_);
  detail::write_u64(out, clean_word_);
  detail::write_u64(out, current_unit_);
  detail::write_u64(out, units_into_gen_);
  detail::write_u64(out, time_started_ ? 1 : 0);
  detail::write_words(out, words_);
}

void AgePartitionedBloomFilter::save(std::ostream& out) const {
  // Unlike the seed-era GBF/TBF raw layouts, the whole state rides in one
  // versioned CRC-checked section, so corruption anywhere in the payload is
  // caught before a single field is applied.
  detail::write_section(out, detail::kApbfMagic,
                        [this](std::ostream& ps) { write_state(ps); });
}

void AgePartitionedBloomFilter::restore(std::istream& in) {
  detail::read_section(in, detail::kApbfMagic, "AgePartitionedBloomFilter",
                       [this](std::istream& body) {
    const WindowSpec window = detail::read_window(body);
    const std::uint64_t m = detail::read_u64(body);
    const std::uint64_t k = detail::read_u64(body);
    const std::uint64_t l = detail::read_u64(body);
    const std::uint64_t strategy = detail::read_u64(body);
    const std::uint64_t seed = detail::read_u64(body);
    if (window != window_) {
      throw std::runtime_error(
          "AgePartitionedBloomFilter::restore: snapshot window [" +
          window.describe() + "] does not match this instance [" +
          window_.describe() + "]");
    }
    if (m != bits_per_slice_ || k != k_ || l != l_ ||
        strategy != static_cast<std::uint64_t>(family_.strategy()) ||
        seed != family_.seed()) {
      throw std::runtime_error(
          "AgePartitionedBloomFilter::restore: snapshot filter options "
          "(m/k/l/strategy/seed) do not match this instance");
    }
    const std::uint64_t youngest = detail::read_u64(body);
    const std::uint64_t youngest_hash = detail::read_u64(body);
    const std::uint64_t fill = detail::read_u64(body);
    const std::uint64_t clean = detail::read_u64(body);
    if (youngest >= slice_count() || youngest_hash >= hash_functions() ||
        fill >= gen_span_ || clean > words_per_slice_) {
      throw std::runtime_error(
          "AgePartitionedBloomFilter: corrupt ring cursors");
    }
    youngest_ = static_cast<std::size_t>(youngest);
    youngest_hash_ = static_cast<std::size_t>(youngest_hash);
    fill_in_gen_ = fill;
    clean_word_ = clean;
    current_unit_ = detail::read_u64(body);
    units_into_gen_ = detail::read_u64(body);
    if (units_into_gen_ >= gen_span_) {
      throw std::runtime_error(
          "AgePartitionedBloomFilter: corrupt time cursor");
    }
    time_started_ = detail::read_u64(body) != 0;
    auto words = detail::read_words(body);
    if (words.size() != words_.size()) {
      throw std::runtime_error(
          "AgePartitionedBloomFilter: payload size does not match geometry");
    }
    words_ = std::move(words);
  });
}

}  // namespace ppc::core
