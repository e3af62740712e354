// Landmark-window duplicate detector: the direct Bloom-filter deployment of
// Metwally et al. [21] that the paper describes in §3.1 ("To detect
// duplicates in click streams over a landmark window, Bloom filters can be
// directly deployed"). The filter is cleared when the landmark window ends
// (N arrivals or T elapsed time), which costs an O(m) burst — the weakness
// GBF's incremental cleaning removes.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "baseline/bloom_filter.hpp"
#include "core/duplicate_detector.hpp"

namespace ppc::baseline {

class LandmarkBloomDetector final : public core::DuplicateDetector {
 public:
  struct Options {
    std::uint64_t bits = 1u << 20;
    std::size_t hash_count = 7;
    hashing::IndexStrategy strategy = hashing::IndexStrategy::kDoubleHashing;
    std::uint64_t seed = 0;
  };

  LandmarkBloomDetector(core::WindowSpec window, Options opts)
      : window_(window),
        filter_(opts.bits, opts.hash_count, opts.strategy, opts.seed) {
    if (window_.kind != core::WindowKind::kLandmark) {
      throw std::invalid_argument(
          "LandmarkBloomDetector: window must be landmark");
    }
    window_.validate();
  }

  bool do_offer(core::ClickId id, std::uint64_t time_us) override {
    if (window_.basis == core::WindowBasis::kCount) {
      if (arrivals_ == window_.length) {
        filter_.clear();  // O(m) burst at the landmark boundary
        arrivals_ = 0;
      }
      ++arrivals_;
    } else {
      // A stamp older than the current epoch is judged in it.
      const std::uint64_t epoch = time_us / window_.length;
      if (!started_ || epoch > epoch_) {
        if (started_) filter_.clear();
        epoch_ = epoch;
        started_ = true;
      }
    }
    return filter_.test_and_insert(id);
  }

  core::WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override { return filter_.size_bits(); }
  bool zero_false_negatives() const override { return true; }
  std::string name() const override { return "Landmark-BF"; }
  void reset() override {
    filter_.clear();
    arrivals_ = 0;
    epoch_ = 0;
    started_ = false;
  }

 private:
  core::WindowSpec window_;
  BloomFilter filter_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t epoch_ = 0;
  bool started_ = false;
};

}  // namespace ppc::baseline
