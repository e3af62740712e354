// Exact (hash-table) duplicate detectors: zero false positives AND zero
// false negatives, at the O(N·identifier) memory cost the paper's
// algorithms exist to avoid.
//
// They serve three roles: ground truth for every property test (a sketch
// detector must never say "fresh" where the exact detector says
// "duplicate"), the memory/throughput foil in the benchmarks, and the
// advertiser-side auditor in the adnet examples.
//
// Window semantics (shared with GBF/TBF — see DESIGN.md):
//  * count-based windows advance on every arrival, duplicates included;
//  * only *valid* (non-duplicate) clicks are remembered — a duplicate does
//    not refresh the original click's position (Definition 1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/duplicate_detector.hpp"

namespace ppc::baseline {

/// Sliding count-based window of the last N arrivals.
class ExactSlidingDetector final : public core::DuplicateDetector {
 public:
  explicit ExactSlidingDetector(core::WindowSpec window) : window_(window) {
    if (window_.kind != core::WindowKind::kSliding ||
        window_.basis != core::WindowBasis::kCount) {
      throw std::invalid_argument(
          "ExactSlidingDetector: count-based sliding windows only");
    }
    window_.validate();
  }

  bool do_offer(core::ClickId id, std::uint64_t /*time_us*/) override {
    if (ring_.size() == window_.length) {
      const Entry old = ring_.front();
      ring_.pop_front();
      if (old.valid) forget(old.id);
    }
    const bool duplicate = valid_counts_.contains(id);
    ring_.push_back({id, !duplicate});
    if (!duplicate) ++valid_counts_[id];
    return duplicate;
  }

  core::WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override {
    // Honest lower bound: one 64-bit id + validity bit per window item plus
    // the map's ids; the real std:: containers overhead is larger.
    return ring_.size() * 65 + valid_counts_.size() * 64;
  }
  bool zero_false_negatives() const override { return true; }
  std::string name() const override { return "Exact-sliding"; }
  void reset() override {
    ring_.clear();
    valid_counts_.clear();
  }

 private:
  struct Entry {
    core::ClickId id;
    bool valid;
  };

  void forget(core::ClickId id) {
    auto it = valid_counts_.find(id);
    if (it != valid_counts_.end() && --it->second == 0) {
      valid_counts_.erase(it);
    }
  }

  core::WindowSpec window_;
  std::deque<Entry> ring_;
  std::unordered_map<core::ClickId, std::uint32_t> valid_counts_;
};

/// Jumping count-based window: current partial sub-window + Q-1 full ones.
class ExactJumpingDetector final : public core::DuplicateDetector {
 public:
  explicit ExactJumpingDetector(core::WindowSpec window) : window_(window) {
    if (window_.kind != core::WindowKind::kJumping ||
        window_.basis != core::WindowBasis::kCount) {
      throw std::invalid_argument(
          "ExactJumpingDetector: count-based jumping windows only");
    }
    window_.validate();
    subwindow_len_ = window_.subwindow_length();
  }

  bool do_offer(core::ClickId id, std::uint64_t /*time_us*/) override {
    const bool duplicate = valid_counts_.contains(id);
    if (!duplicate) {
      current_.push_back(id);
      ++valid_counts_[id];
    }
    if (++fill_count_ == subwindow_len_) {
      jump();
      fill_count_ = 0;
    }
    return duplicate;
  }

  core::WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override {
    std::size_t ids = current_.size();
    for (const auto& s : full_) ids += s.size();
    return ids * 64 + valid_counts_.size() * 64;
  }
  bool zero_false_negatives() const override { return true; }
  std::string name() const override { return "Exact-jumping"; }
  void reset() override {
    current_.clear();
    full_.clear();
    valid_counts_.clear();
    fill_count_ = 0;
  }

 private:
  void jump() {
    full_.push_back(std::move(current_));
    current_.clear();
    if (full_.size() == window_.subwindows) {
      for (core::ClickId id : full_.front()) forget(id);
      full_.pop_front();
    }
  }

  void forget(core::ClickId id) {
    auto it = valid_counts_.find(id);
    if (it != valid_counts_.end() && --it->second == 0) {
      valid_counts_.erase(it);
    }
  }

  core::WindowSpec window_;
  std::uint64_t subwindow_len_ = 0;
  std::uint64_t fill_count_ = 0;
  std::vector<core::ClickId> current_;
  std::deque<std::vector<core::ClickId>> full_;
  std::unordered_map<core::ClickId, std::uint32_t> valid_counts_;
};

/// Landmark count-based window: forget everything every N arrivals.
class ExactLandmarkDetector final : public core::DuplicateDetector {
 public:
  explicit ExactLandmarkDetector(core::WindowSpec window) : window_(window) {
    if (window_.kind != core::WindowKind::kLandmark ||
        window_.basis != core::WindowBasis::kCount) {
      throw std::invalid_argument(
          "ExactLandmarkDetector: count-based landmark windows only");
    }
    window_.validate();
  }

  bool do_offer(core::ClickId id, std::uint64_t /*time_us*/) override {
    if (arrivals_ == window_.length) {
      seen_.clear();
      arrivals_ = 0;
    }
    ++arrivals_;
    return !seen_.insert(id).second;
  }

  core::WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override { return seen_.size() * 64; }
  bool zero_false_negatives() const override { return true; }
  std::string name() const override { return "Exact-landmark"; }
  void reset() override {
    seen_.clear();
    arrivals_ = 0;
  }

 private:
  core::WindowSpec window_;
  std::uint64_t arrivals_ = 0;
  std::unordered_set<core::ClickId> seen_;
};

/// Time-based sliding window at time-unit granularity: a click is active
/// while (current_unit - its_unit) < R, matching TBF's tick semantics so
/// the two can be property-tested against each other.
class ExactTimeSlidingDetector final : public core::DuplicateDetector {
 public:
  explicit ExactTimeSlidingDetector(core::WindowSpec window)
      : window_(window) {
    if (window_.kind != core::WindowKind::kSliding ||
        window_.basis != core::WindowBasis::kTime) {
      throw std::invalid_argument(
          "ExactTimeSlidingDetector: time-based sliding windows only");
    }
    window_.validate();
    window_units_ = window_.length / window_.time_unit_us;
  }

  bool do_offer(core::ClickId id, std::uint64_t time_us) override {
    // A stamp older than the clock is judged at the current unit.
    now_unit_ = std::max(now_unit_, time_us / window_.time_unit_us);
    const std::uint64_t unit = now_unit_;
    // Expire everything whose age in units is >= R.
    while (!items_.empty() &&
           unit - items_.front().unit >= window_units_) {
      if (items_.front().valid) forget(items_.front().id);
      items_.pop_front();
    }
    const bool duplicate = valid_counts_.contains(id);
    items_.push_back({id, unit, !duplicate});
    if (!duplicate) ++valid_counts_[id];
    return duplicate;
  }

  core::WindowSpec window() const override { return window_; }
  std::size_t memory_bits() const override {
    return items_.size() * 129 + valid_counts_.size() * 64;
  }
  bool zero_false_negatives() const override { return true; }
  std::string name() const override { return "Exact-time-sliding"; }
  void reset() override {
    items_.clear();
    valid_counts_.clear();
    now_unit_ = 0;
  }

 private:
  struct Item {
    core::ClickId id;
    std::uint64_t unit;
    bool valid;
  };

  void forget(core::ClickId id) {
    auto it = valid_counts_.find(id);
    if (it != valid_counts_.end() && --it->second == 0) {
      valid_counts_.erase(it);
    }
  }

  core::WindowSpec window_;
  std::uint64_t window_units_ = 0;
  std::uint64_t now_unit_ = 0;
  std::deque<Item> items_;
  std::unordered_map<core::ClickId, std::uint32_t> valid_counts_;
};

}  // namespace ppc::baseline
