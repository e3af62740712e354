// Decaying-window models from §1.2 of the paper.
//
// A WindowSpec describes which prefix of the stream an algorithm must treat
// as "fresh". Count-based windows hold the last N elements; time-based
// windows hold everything that arrived in the last T time units. Jumping
// windows additionally split the span into Q equal sub-windows that expire
// together.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ppc::core {

enum class WindowKind : std::uint8_t { kLandmark, kJumping, kSliding };
enum class WindowBasis : std::uint8_t { kCount, kTime };

struct WindowSpec {
  WindowKind kind = WindowKind::kSliding;
  WindowBasis basis = WindowBasis::kCount;

  /// Count basis: window length in elements. Time basis: length in
  /// microseconds.
  std::uint64_t length = 0;

  /// Jumping windows only: number of sub-windows Q (≥ 1).
  std::uint32_t subwindows = 1;

  /// Time basis only: duration of one "time unit" in microseconds — the
  /// granularity at which time-based cleaning runs (§3.1/§4.1: "the
  /// cleaning procedure executes once in each time unit").
  std::uint64_t time_unit_us = 1'000'000;

  static WindowSpec sliding_count(std::uint64_t n) {
    return {WindowKind::kSliding, WindowBasis::kCount, n, 1, 0};
  }
  static WindowSpec jumping_count(std::uint64_t n, std::uint32_t q) {
    return {WindowKind::kJumping, WindowBasis::kCount, n, q, 0};
  }
  static WindowSpec landmark_count(std::uint64_t n) {
    return {WindowKind::kLandmark, WindowBasis::kCount, n, 1, 0};
  }
  static WindowSpec sliding_time(std::uint64_t span_us, std::uint64_t unit_us) {
    return {WindowKind::kSliding, WindowBasis::kTime, span_us, 1, unit_us};
  }
  static WindowSpec jumping_time(std::uint64_t span_us, std::uint32_t q,
                                 std::uint64_t unit_us) {
    return {WindowKind::kJumping, WindowBasis::kTime, span_us, q, unit_us};
  }

  /// Count-based jumping windows: elements per sub-window (rounded up; the
  /// final partial sub-window of a non-divisible N jumps early, which only
  /// shrinks the window and therefore never creates false negatives).
  std::uint64_t subwindow_length() const {
    if (subwindows == 0) throw std::invalid_argument("subwindows must be >= 1");
    return (length + subwindows - 1) / subwindows;
  }

  bool operator==(const WindowSpec&) const = default;

  /// Validates invariants; throws std::invalid_argument on nonsense specs.
  void validate() const;

  std::string describe() const;
};

}  // namespace ppc::core
