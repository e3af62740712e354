#include "hashing/index_family.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>

namespace ppc::hashing {

IndexFamily::IndexFamily(std::size_t k, std::uint64_t range,
                         IndexStrategy strategy, std::uint64_t seed)
    : k_(k), range_(range), strategy_(strategy), seed_(seed) {
  if (k == 0 || k > kMaxHashFunctions) {
    throw std::invalid_argument("IndexFamily: k must be in [1, 64]");
  }
  if (range == 0) {
    throw std::invalid_argument("IndexFamily: range must be positive");
  }
  if (strategy == IndexStrategy::kTabulation) {
    tab1_ = std::make_unique<TabulationHash64>(seed);
    tab2_ = std::make_unique<TabulationHash64>(fmix64(seed + 1));
  }
}

void IndexFamily::fill_independent(Bytes key,
                                   std::span<std::uint64_t> out) const noexcept {
  assert(out.size() >= k_);
  for (std::size_t i = 0; i < k_; ++i) {
    out[i] = fast_range(xxh64(key, seed_ + 0x9e3779b97f4a7c15ULL * (i + 1)),
                        range_);
  }
}

void IndexFamily::indices(Bytes key, std::span<std::uint64_t> out) const noexcept {
  switch (strategy_) {
    case IndexStrategy::kDoubleHashing:
      fill_double_hashing(murmur3_x64_128(key, seed_), out);
      return;
    case IndexStrategy::kIndependentHashes:
      fill_independent(key, out);
      return;
    case IndexStrategy::kTabulation: {
      // Compress the byte key to 64 bits first; tabulation then supplies the
      // (h1, h2) pair. For already-64-bit keys use the overload below.
      const std::uint64_t compressed = murmur3_64(key, seed_);
      fill_double_hashing(Hash128{(*tab1_)(compressed), (*tab2_)(compressed)},
                          out);
      return;
    }
  }
}

void IndexFamily::indices_independent_u64(
    std::uint64_t key, std::span<std::uint64_t> out) const noexcept {
  fill_independent(as_bytes(key), out);
}

std::vector<std::uint64_t> IndexFamily::indices(Bytes key) const {
  std::vector<std::uint64_t> out(k_);
  indices(key, std::span<std::uint64_t>(out));
  return out;
}

}  // namespace ppc::hashing
