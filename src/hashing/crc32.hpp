// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the one checksum
// of the project: the wire protocol's frame trailer (server/wire.hpp) and
// the snapshot section header (core/snapshot_io.hpp) both use it.
//
// crc32 is slicing-by-8: eight compile-time tables let the hot loop fold 8
// input bytes per iteration (~4x fewer dependent table lookups than the
// classic byte-at-a-time form, which survives as crc32_bytewise — the
// reference the fuzz test checks the sliced kernel against). CLICK_BATCH
// bodies are CRC'd on both ends of every frame, so this is on the wire
// hot path.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace ppc::hashing {

namespace detail {
struct Crc32Table {
  std::uint32_t entry[8][256] = {};
  constexpr Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entry[0][i] = c;
    }
    for (std::uint32_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        entry[k][i] =
            entry[0][entry[k - 1][i] & 0xFFu] ^ (entry[k - 1][i] >> 8);
      }
    }
  }
};
inline constexpr Crc32Table kCrc32Table{};

/// Little-endian u32 load: byte k of the stream lands in bits [8k, 8k+8)
/// on every host — the order the reflected CRC update assumes. One
/// unaligned mov on little-endian hosts.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  }
}
}  // namespace detail

/// Byte-at-a-time reference implementation (identical results to crc32).
inline std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c = detail::kCrc32Table.entry[0][(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = detail::kCrc32Table.entry;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ c;
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ppc::hashing
