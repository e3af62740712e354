#include "core/sharded_detector.hpp"

#include <sstream>
#include <stdexcept>

#include "core/snapshot_io.hpp"

namespace ppc::core {

namespace {

/// Per-thread bucketization scratch, reused across batches so the steady
/// state allocates nothing. thread_local (not a member) keeps concurrent
/// offer_batch callers on the same detector from sharing buffers.
struct BatchScratch {
  std::vector<std::uint32_t> shard_index;  ///< shard_of(ids[i]) per element
  std::vector<std::size_t> offsets;        ///< bucket start per shard (+end)
  std::vector<std::size_t> cursor;         ///< fill cursor per shard
  std::vector<ClickId> bucketed;           ///< ids grouped by shard
  std::vector<std::uint64_t> bucketed_times;  ///< times, same grouping
  std::vector<std::uint32_t> origin;       ///< caller index per bucketed slot
  std::vector<char> verdicts;              ///< bool-sized verdict scratch
  std::vector<std::uint32_t> active;       ///< shards with non-empty buckets
};

/// Leases one scratch per nesting level (a ShardedDetector whose shards
/// are themselves ShardedDetectors re-enters offer_batch on the same
/// thread), so the buffers are reused across batches but never aliased.
class ScratchLease {
 public:
  ScratchLease() {
    Stack& stack = stack_for_thread();
    if (stack.depth == stack.levels.size()) {
      stack.levels.push_back(std::make_unique<BatchScratch>());
    }
    scratch_ = stack.levels[stack.depth++].get();
  }
  ~ScratchLease() { --stack_for_thread().depth; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  BatchScratch& operator*() const noexcept { return *scratch_; }

 private:
  struct Stack {
    std::vector<std::unique_ptr<BatchScratch>> levels;
    std::size_t depth = 0;
  };
  static Stack& stack_for_thread() {
    static thread_local Stack stack;
    return stack;
  }

  BatchScratch* scratch_;
};

}  // namespace

ShardedDetector::ShardedDetector(std::size_t shards, const Factory& factory)
    : ShardedDetector(shards, factory, Options{}) {}

ShardedDetector::ShardedDetector(std::size_t shards, const Factory& factory,
                                 Options opts)
    : shards_(shards == 0 ? throw std::invalid_argument(
                                "ShardedDetector: shards must be >= 1")
                          : shards) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].detector = factory(s);
    if (shards_[s].detector == nullptr) {
      throw std::invalid_argument("ShardedDetector: factory returned null");
    }
  }
  if (opts.threads == 0) {
    throw std::invalid_argument("ShardedDetector: threads must be >= 1");
  }
  if (opts.threads > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(opts.threads);
  }
}

bool ShardedDetector::do_offer(ClickId id, std::uint64_t time_us) {
  const std::size_t s = shard_of(id);
  Shard& shard = shards_[s];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.detector->offer(id, time_us);
}

void ShardedDetector::offer_batch(std::span<const ClickId> ids,
                                  std::span<bool> out, std::uint64_t time_us) {
  offer_batch_impl(ids, nullptr, time_us, out);
}

void ShardedDetector::offer_batch(std::span<const ClickId> ids,
                                  std::span<const std::uint64_t> times,
                                  std::span<bool> out) {
  offer_batch_impl(ids, times.data(), 0, out);
}

void ShardedDetector::offer_batch_impl(std::span<const ClickId> ids,
                                       const std::uint64_t* times,
                                       std::uint64_t time_us,
                                       std::span<bool> out) {
  const std::size_t n = ids.size();
  if (n == 0) return;
  const std::size_t shard_count = shards_.size();
  if (shard_count == 1) {
    Shard& shard = shards_.front();
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (times != nullptr) {
      shard.detector->offer_batch(
          ids, std::span<const std::uint64_t>(times, n), out);
    } else {
      shard.detector->offer_batch(ids, out, time_us);
    }
    return;
  }

  // Pass 1 — route: compute each element's shard once and histogram the
  // bucket sizes (counting-sort layout, no per-shard vectors).
  const ScratchLease lease;
  BatchScratch& scratch = *lease;
  scratch.shard_index.resize(n);
  scratch.offsets.assign(shard_count + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::uint32_t>(shard_of(ids[i]));
    scratch.shard_index[i] = s;
    ++scratch.offsets[s + 1];
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    scratch.offsets[s + 1] += scratch.offsets[s];
  }

  // Pass 2 — scatter ids (and per-click timestamps, when given) into
  // shard-contiguous order, remembering where each slot came from so
  // verdicts can be returned in caller order. Within a shard the scatter
  // is stable, so each bucket's timestamps stay monotone like the input.
  scratch.cursor.assign(scratch.offsets.begin(),
                        scratch.offsets.end() - 1);
  scratch.bucketed.resize(n);
  scratch.origin.resize(n);
  scratch.verdicts.resize(n);
  if (times != nullptr) scratch.bucketed_times.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = scratch.cursor[scratch.shard_index[i]]++;
    scratch.bucketed[p] = ids[i];
    if (times != nullptr) scratch.bucketed_times[p] = times[i];
    scratch.origin[p] = static_cast<std::uint32_t>(i);
  }
  scratch.active.clear();
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (scratch.offsets[s + 1] > scratch.offsets[s]) {
      scratch.active.push_back(static_cast<std::uint32_t>(s));
    }
  }

  // Pass 3 — drain each shard's bucket: ONE lock acquisition per bucket
  // through the inner pipelined batch path, optionally fanned out over
  // the pool.
  auto drain_bucket = [&](std::size_t task) {
    const std::uint32_t s = scratch.active[task];
    const std::size_t begin = scratch.offsets[s];
    const std::size_t count = scratch.offsets[s + 1] - begin;
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const std::span<const ClickId> bucket_ids(
        scratch.bucketed.data() + begin, count);
    const std::span<bool> bucket_out(
        reinterpret_cast<bool*>(scratch.verdicts.data()) + begin, count);
    if (times != nullptr) {
      shard.detector->offer_batch(
          bucket_ids,
          std::span<const std::uint64_t>(
              scratch.bucketed_times.data() + begin, count),
          bucket_out);
    } else {
      shard.detector->offer_batch(bucket_ids, bucket_out, time_us);
    }
  };
  if (pool_ != nullptr && scratch.active.size() > 1) {
    pool_->parallel_for_each(scratch.active.size(), drain_bucket);
  } else {
    for (std::size_t t = 0; t < scratch.active.size(); ++t) drain_bucket(t);
  }

  // Pass 4 — gather verdicts back to caller order.
  for (std::size_t p = 0; p < n; ++p) {
    out[scratch.origin[p]] = scratch.verdicts[p] != 0;
  }
}

WindowSpec ShardedDetector::window() const {
  WindowSpec spec = shards_.front().detector->window();
  if (spec.basis == WindowBasis::kCount) {
    // Each shard holds N/S arrivals, so the ensemble approximates a global
    // window S times the shard spec. Returning the front shard's spec here
    // (the old behaviour) understated the window by a factor of S.
    spec.length *= shards_.size();
  }
  return spec;
}

std::size_t ShardedDetector::memory_bits() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.detector->memory_bits();
  return total;
}

void ShardedDetector::set_op_counter(OpCounter* ops) noexcept {
  ops_ = ops;
  for (Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.ops.reset();
    s.detector->set_op_counter(ops != nullptr ? &s.ops : nullptr);
  }
}

OpCounter ShardedDetector::op_totals() const {
  OpCounter total;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mutex);
    total += s.ops;
  }
  if (ops_ != nullptr) *ops_ = total;
  return total;
}

void ShardedDetector::save(std::ostream& out) const {
  std::ostringstream payload(std::ios::binary);
  detail::write_u64(payload, shards_.size());
  // Engine-flag word, always 0: kept so the format stays byte-identical
  // (restore still accepts 1).
  detail::write_u64(payload, 0);
  const WindowSpec agg = window();
  detail::write_u64(payload, static_cast<std::uint64_t>(agg.kind));
  detail::write_u64(payload, static_cast<std::uint64_t>(agg.basis));
  detail::write_u64(payload, agg.length);
  detail::write_u64(payload, agg.subwindows);
  detail::write_u64(payload, agg.time_unit_us);
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.detector->save(payload);
  }
  detail::write_section(out, detail::kShardedMagic, payload.str());
  if (!out) throw std::runtime_error("ShardedDetector::save: write failed");
}

void ShardedDetector::restore(std::istream& in) {
  const std::string payload =
      detail::read_section(in, detail::kShardedMagic, "ShardedDetector");
  std::istringstream ps(payload, std::ios::binary);

  const std::uint64_t shard_count = detail::read_u64(ps);
  if (shard_count != shards_.size()) {
    throw std::runtime_error(
        "ShardedDetector::restore: snapshot has " +
        std::to_string(shard_count) + " shards but this instance has " +
        std::to_string(shards_.size()));
  }
  const std::uint64_t engine_flag = detail::read_u64(ps);
  if (engine_flag > 1) {
    throw std::runtime_error(
        "ShardedDetector::restore: corrupt engine-mode flag");
  }
  // The engine flag (1 = written by the retired lock-free engine) is
  // informational: verdicts never depended on it. The window must match:
  // a count window of a different aggregate length or a different basis
  // silently changes every verdict.
  WindowSpec saved;
  const std::uint64_t kind = detail::read_u64(ps);
  const std::uint64_t basis = detail::read_u64(ps);
  if (kind > static_cast<std::uint64_t>(WindowKind::kSliding) ||
      basis > static_cast<std::uint64_t>(WindowBasis::kTime)) {
    throw std::runtime_error(
        "ShardedDetector::restore: corrupt window header");
  }
  saved.kind = static_cast<WindowKind>(kind);
  saved.basis = static_cast<WindowBasis>(basis);
  saved.length = detail::read_u64(ps);
  saved.subwindows = static_cast<std::uint32_t>(detail::read_u64(ps));
  saved.time_unit_us = detail::read_u64(ps);
  const WindowSpec agg = window();
  if (saved.kind != agg.kind || saved.basis != agg.basis ||
      saved.length != agg.length || saved.subwindows != agg.subwindows ||
      saved.time_unit_us != agg.time_unit_us) {
    throw std::runtime_error(
        "ShardedDetector::restore: snapshot window [" + saved.describe() +
        "] does not match this instance [" + agg.describe() + "]");
  }

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    try {
      const std::lock_guard<std::mutex> lock(shards_[s].mutex);
      shards_[s].detector->restore(ps);
    } catch (const std::exception& e) {
      throw std::runtime_error("ShardedDetector::restore: shard " +
                               std::to_string(s) + ": " + e.what());
    }
  }
  if (ps.peek() != std::istringstream::traits_type::eof()) {
    throw std::runtime_error(
        "ShardedDetector::restore: trailing bytes after last shard");
  }
}

void ShardedDetector::reset() {
  for (Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.detector->reset();
    s.ops.reset();
  }
}

}  // namespace ppc::core
