#include "core/timing_bloom_filter.hpp"

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

std::size_t bits_for(std::uint64_t distinct_values) {
  // Smallest b with 2^b >= distinct_values.
  return static_cast<std::size_t>(std::bit_width(distinct_values - 1));
}

}  // namespace

TimingBloomFilter::Geometry TimingBloomFilter::resolve_geometry(
    const WindowSpec& window, std::uint64_t c) {
  window.validate();
  if (window.kind == WindowKind::kLandmark) {
    throw std::invalid_argument(
        "TimingBloomFilter: use a plain Bloom filter for landmark windows");
  }
  Geometry g{};
  if (window.basis == WindowBasis::kCount) {
    if (window.kind == WindowKind::kSliding) {
      g.window_ticks = window.length;      // one tick per arrival
      g.granularity = 1;
    } else {                               // jumping: one tick per sub-window
      g.window_ticks = window.subwindows;
      g.granularity = window.subwindow_length();
    }
  } else {
    if (window.kind != WindowKind::kSliding) {
      throw std::invalid_argument(
          "TimingBloomFilter: time basis supports sliding windows "
          "(use GroupBloomFilter for time-based jumping windows)");
    }
    // validate() guarantees length is a positive multiple of time_unit_us,
    // so this division is exact — no truncated tick count can undersize the
    // wrap space and alias timestamps.
    g.window_ticks = window.length / window.time_unit_us;  // R time units
    g.granularity = 1;
  }
  if (g.window_ticks < 1) {
    throw std::invalid_argument(
        "TimingBloomFilter: window shorter than one tick");
  }

  g.c = c != 0 ? c : std::max<std::uint64_t>(1, g.window_ticks - 1);
  g.wrap = g.window_ticks + g.c;
  if (g.wrap < g.window_ticks) {
    throw std::invalid_argument("TimingBloomFilter: window too large");
  }

  // Timestamps take values 0..wrap-1 and all-ones is reserved for EMPTY,
  // so the entry must represent wrap+1 distinct values.
  g.entry_bits = bits_for(g.wrap + 1);
  const std::uint64_t empty =
      g.entry_bits == 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << g.entry_bits) - 1;
  if (g.wrap > empty) {  // max timestamp wrap-1 must stay below empty
    throw std::invalid_argument("TimingBloomFilter: window too large");
  }
  return g;
}

TimingBloomFilter::TimingBloomFilter(WindowSpec window, Options opts)
    : window_(window),
      window_ticks_(0),
      granularity_(1),
      c_(opts.c),
      wrap_(0),
      empty_(0),
      family_(opts.hash_count, opts.entries, opts.strategy, opts.seed),
      table_() {
  if (opts.entries == 0) {
    throw std::invalid_argument("TimingBloomFilter: entries must be positive");
  }
  const Geometry g = resolve_geometry(window_, opts.c);
  window_ticks_ = g.window_ticks;
  granularity_ = g.granularity;
  c_ = g.c;
  wrap_ = g.wrap;
  empty_ = g.entry_bits == 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << g.entry_bits) - 1;
  table_ = bits::PackedIntVector(opts.entries, g.entry_bits, empty_);

  // Cleaning budget: a full pass over all m entries every C ticks, i.e.
  // every C·G arrivals (count basis) or C time units (time basis).
  clean_stride_ = ceil_div(table_.size(), c_ * granularity_);
}

void TimingBloomFilter::reset() {
  table_.fill_all(empty_);
  pos_ = 0;
  arrivals_in_tick_ = 0;
  scan_pos_ = 0;
  last_abs_unit_ = kNoTick;
  started_ = false;
}

double TimingBloomFilter::fill_factor() const {
  std::uint64_t used = 0;
  for (std::uint64_t i = 0; i < table_.size(); ++i) {
    if (table_.get(i) != empty_) ++used;
  }
  return static_cast<double>(used) / static_cast<double>(table_.size());
}

void TimingBloomFilter::clean_entries(std::uint64_t count) {
  const std::uint64_t m = table_.size();
  count = std::min(count, m);  // more than one full pass is redundant
  for (std::uint64_t n = 0; n < count; ++n) {
    const std::uint64_t value = table_.get(scan_pos_);
    if (value != empty_ && !tick_active(value)) {
      table_.set(scan_pos_, empty_);
      if (ops_ != nullptr) ops_->entry_writes += 1;
    }
    if (ops_ != nullptr) ops_->entry_reads += 1;
    scan_pos_ = scan_pos_ + 1 == m ? 0 : scan_pos_ + 1;
  }
}

void TimingBloomFilter::advance_tick() {
  pos_ = pos_ + 1 == wrap_ ? 0 : pos_ + 1;
}

void TimingBloomFilter::advance_time(std::uint64_t time_us) {
  const std::uint64_t abs_unit = time_us / window_.time_unit_us;
  if (last_abs_unit_ == kNoTick) {
    last_abs_unit_ = abs_unit;
    pos_ = abs_unit % wrap_;
    return;
  }
  // A stamp older than the clock is judged at the current unit.
  if (abs_unit <= last_abs_unit_) return;
  std::uint64_t delta = abs_unit - last_abs_unit_;
  last_abs_unit_ = abs_unit;

  if (delta >= wrap_) {
    // Longer than a full counter revolution with no arrivals: every entry
    // has expired; resetting is both correct and the cheapest catch-up.
    table_.fill_all(empty_);
    scan_pos_ = 0;
    pos_ = abs_unit % wrap_;
    return;
  }
  // Advance in chunks of at most C ticks, completing a full reclamation
  // pass after each chunk so no surviving timestamp can age past wrap_-1
  // (the aliasing boundary) unnoticed. For the common delta ≤ a few ticks
  // this degenerates to delta · ⌈m/C⌉ scanned entries.
  while (delta > 0) {
    const std::uint64_t chunk = std::min(delta, c_);
    pos_ = (pos_ + chunk) % wrap_;
    delta -= chunk;
    clean_entries(chunk < c_ ? chunk * clean_stride_ : table_.size());
  }
}

bool TimingBloomFilter::probe_and_insert(ClickId id) {
  std::uint64_t idx[hashing::kMaxHashFunctions];
  const std::size_t k = family_.k();
  family_.indices(id, std::span<std::uint64_t>(idx, k));
  if (ops_ != nullptr) ops_->hash_evals += 1;
  return probe_and_insert_idx(idx, k);
}

bool TimingBloomFilter::probe_and_insert_idx(const std::uint64_t* idx,
                                             std::size_t k) {
  // Duplicate iff present (no EMPTY entry) AND active (every timestamp
  // inside the window) — footnotes 1 and 2 of the paper.
  bool duplicate = true;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t value = table_.get(static_cast<std::size_t>(idx[i]));
    if (ops_ != nullptr) ops_->entry_reads += 1;
    if (value == empty_ || !tick_active(value)) {
      duplicate = false;
      break;
    }
  }
  if (duplicate) return true;

  for (std::size_t i = 0; i < k; ++i) {
    table_.set(static_cast<std::size_t>(idx[i]), pos_);
  }
  if (ops_ != nullptr) ops_->entry_writes += k;
  return false;
}

void TimingBloomFilter::begin_arrival_count_basis() {
  if (!started_) {
    started_ = true;
    arrivals_in_tick_ = 0;
  } else if (++arrivals_in_tick_ == granularity_) {
    advance_tick();
    arrivals_in_tick_ = 0;
  }
  clean_entries(clean_stride_);
}

bool TimingBloomFilter::do_offer(ClickId id, std::uint64_t time_us) {
  if (window_.basis == WindowBasis::kTime) {
    advance_time(time_us);
    // Paper §4.1 runs the cleaning daemon once per time unit; advance_time
    // performed it for the units that elapsed before this arrival.
  } else {
    begin_arrival_count_basis();
  }
  return probe_and_insert(id);
}

void TimingBloomFilter::offer_batch(std::span<const ClickId> ids,
                                    std::span<const std::uint64_t> times,
                                    std::span<bool> out) {
  // Software pipeline: the ring block-hashes ids through the
  // IndexFamily::indices_batch path (same ring as GroupBloomFilter) and
  // keeps one hashed-and-prefetched block ahead of classification, so the
  // table has a block's worth of timestamp entries in flight instead of
  // one element's. Index derivation depends only on the key, so hashing
  // ahead commutes with the per-arrival clock step of either basis and
  // verdicts match a sequential replay exactly.
  if (ids.empty()) return;
  const bool time_basis = window_.basis == WindowBasis::kTime;
  const std::size_t k = family_.k();
  const auto prefetch_idx = [&](const std::uint64_t* idx) {
    for (std::size_t h = 0; h < k; ++h) {
      table_.prefetch(static_cast<std::size_t>(idx[h]));
    }
  };
  detail::BatchHashRing ring(family_, ids);
  ring.prime(prefetch_idx);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // The bases differ only in this clock step; the count basis never
    // reads the timestamps.
    if (time_basis) {
      advance_time(times[i]);
    } else {
      begin_arrival_count_basis();
    }
    out[i] = probe_and_insert_idx(ring.rows(i), k);
    ring.advance(i, prefetch_idx);
  }
  if (ops_ != nullptr) ops_->hash_evals += ring.hashed();
}

namespace {
constexpr std::uint64_t kTbfMagic = 0x50504354'42463031ULL;  // "PPCTBF01"
}  // namespace

void TimingBloomFilter::save(std::ostream& out) const {
  detail::write_u64(out, kTbfMagic);
  detail::write_window(out, window_);
  detail::write_u64(out, table_.size());
  detail::write_u64(out, family_.k());
  detail::write_u64(out, c_);
  detail::write_u64(out, static_cast<std::uint64_t>(family_.strategy()));
  detail::write_u64(out, family_.seed());
  detail::write_u64(out, pos_);
  detail::write_u64(out, arrivals_in_tick_);
  detail::write_u64(out, scan_pos_);
  detail::write_u64(out, last_abs_unit_);
  detail::write_u64(out, started_ ? 1 : 0);
  detail::write_words(out, table_.raw_words());
  if (!out) throw std::runtime_error("TimingBloomFilter::save: write failed");
}

void TimingBloomFilter::restore(std::istream& in) {
  detail::expect_magic(in, kTbfMagic, "TimingBloomFilter");
  const WindowSpec window = detail::read_window(in);
  const std::uint64_t entries = detail::read_u64(in);
  const std::uint64_t k = detail::read_u64(in);
  const std::uint64_t c = detail::read_u64(in);
  const std::uint64_t strategy = detail::read_u64(in);
  const std::uint64_t seed = detail::read_u64(in);
  if (window != window_) {
    throw std::runtime_error(
        "TimingBloomFilter::restore: snapshot window [" + window.describe() +
        "] does not match this instance [" + window_.describe() + "]");
  }
  if (entries != table_.size() || k != family_.k() || c != c_ ||
      strategy != static_cast<std::uint64_t>(family_.strategy()) ||
      seed != family_.seed()) {
    throw std::runtime_error(
        "TimingBloomFilter::restore: snapshot filter options (m/k/C/strategy/"
        "seed) do not match this instance");
  }
  const std::uint64_t pos = detail::read_u64(in);
  const std::uint64_t arrivals = detail::read_u64(in);
  const std::uint64_t scan = detail::read_u64(in);
  if (pos >= wrap_ || scan >= table_.size()) {
    throw std::runtime_error("TimingBloomFilter: corrupt cursor state");
  }
  pos_ = pos;
  arrivals_in_tick_ = arrivals;
  scan_pos_ = scan;
  last_abs_unit_ = detail::read_u64(in);
  started_ = detail::read_u64(in) != 0;
  const auto words = detail::read_words(in);
  table_.set_raw_words(words);
}

}  // namespace ppc::core
