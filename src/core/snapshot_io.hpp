// Internal binary-IO helpers shared by the detector snapshot formats.
// Little-endian, length-checked; corrupt input surfaces as
// std::runtime_error rather than silently wrong filter state.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hashing/crc32.hpp"

namespace ppc::core::detail {

inline void write_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.write(buf, 8);
}

inline std::uint64_t read_u64(std::istream& in) {
  char buf[8];
  in.read(buf, 8);
  if (!in) throw std::runtime_error("snapshot: truncated input");
  std::uint64_t v;
  std::memcpy(&v, buf, 8);
  return v;
}

inline void write_words(std::ostream& out, std::span<const std::uint64_t> w) {
  write_u64(out, w.size());
  out.write(reinterpret_cast<const char*>(w.data()),
            static_cast<std::streamsize>(w.size() * 8));
}

/// Hard cap on one word block: 2 GiB of filter payload. Real snapshots sit
/// far below this (the DetectorPool budget caps live filters at 1 GiB);
/// a count beyond it can only come from corruption, and rejecting it here
/// keeps a forged header from turning into a multi-GiB allocation.
inline constexpr std::uint64_t kMaxSnapshotWords = std::uint64_t{1} << 28;

inline std::vector<std::uint64_t> read_words(std::istream& in) {
  const std::uint64_t count = read_u64(in);
  if (count > kMaxSnapshotWords) {
    throw std::runtime_error("snapshot: implausible word count " +
                             std::to_string(count));
  }
  // Where the stream is seekable (files, stringstreams), bound the count
  // by the bytes actually remaining BEFORE allocating: a corrupt header
  // must fail cleanly, not reserve gigabytes and then hit EOF.
  const std::istream::pos_type pos = in.tellg();
  if (pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(pos);
    if (end != std::istream::pos_type(-1) &&
        count * 8 > static_cast<std::uint64_t>(end - pos)) {
      throw std::runtime_error("snapshot: word count exceeds stream size");
    }
  }
  std::vector<std::uint64_t> w(count);
  in.read(reinterpret_cast<char*>(w.data()),
          static_cast<std::streamsize>(count * 8));
  if (!in) throw std::runtime_error("snapshot: truncated word block");
  return w;
}

inline void expect_magic(std::istream& in, std::uint64_t magic,
                         const char* what) {
  if (read_u64(in) != magic) {
    throw std::runtime_error(std::string("snapshot: bad magic for ") + what);
  }
}

// ---------------------------------------------------------------------------
// Versioned, CRC-checked composite sections.
//
// Single-filter snapshots (GBF/TBF) keep their original raw field layout for
// compatibility; everything built ON TOP of them — ShardedDetector,
// DetectorPool, and the ppcd snapshot file envelope — wraps its payload in a
// section header so corruption anywhere in a multi-filter file is caught
// before any state is applied:
//
//   u64 magic       section type (see the registry below)
//   u64 version     format version, currently kSnapshotFormatVersion
//   u64 byte_count  payload length in bytes
//   u64 crc         CRC-32 (hashing::crc32, the wire protocol's checksum)
//                   of the payload bytes, stored in the low 32 bits; high
//                   32 bits must be zero
//   u8[byte_count]  payload
// ---------------------------------------------------------------------------

/// Registry of section/filter magics ("PPC..." tags in little-endian bytes).
inline constexpr std::uint64_t kShardedMagic = 0x50504353'48443031ULL;  // "PPCSHD01"
inline constexpr std::uint64_t kPoolMagic = 0x50504350'4F4F4C31ULL;     // "PPCPOOL1"
inline constexpr std::uint64_t kServerSnapshotMagic =
    0x50504353'52563031ULL;  // "PPCSRV01"
inline constexpr std::uint64_t kApbfMagic = 0x50504341'50424631ULL;  // "PPCAPBF1"
inline constexpr std::uint64_t kTieredPoolMagic =
    0x50504354'49455231ULL;  // "PPCTIER1"
inline constexpr std::uint64_t kEnforceMagic =
    0x50504345'4E463031ULL;  // "PPCENF01"

inline constexpr std::uint64_t kSnapshotFormatVersion = 1;

/// Hard cap on one section payload: 2 GiB, matching kMaxSnapshotWords.
inline constexpr std::uint64_t kMaxSectionBytes = std::uint64_t{1} << 31;

/// Section checksum: the same CRC-32 the wire protocol uses.
inline std::uint32_t section_crc32(const std::string& payload) {
  return hashing::crc32({reinterpret_cast<const std::uint8_t*>(payload.data()),
                         payload.size()});
}

/// Wraps `payload` in a section header (magic, version, length, CRC) and
/// writes it to `out`.
inline void write_section(std::ostream& out, std::uint64_t magic,
                          const std::string& payload) {
  write_u64(out, magic);
  write_u64(out, kSnapshotFormatVersion);
  write_u64(out, payload.size());
  write_u64(out, section_crc32(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Reads and validates one section from `in`; returns the payload bytes.
/// Rejects wrong magic, unknown version, implausible length (absolute cap
/// plus, on seekable streams, the bytes actually remaining — a forged count
/// must fail before allocation), and any CRC mismatch.
inline std::string read_section(std::istream& in, std::uint64_t magic,
                                const char* what) {
  expect_magic(in, magic, what);
  const std::uint64_t version = read_u64(in);
  if (version != kSnapshotFormatVersion) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": unsupported format version " +
                             std::to_string(version));
  }
  const std::uint64_t bytes = read_u64(in);
  if (bytes > kMaxSectionBytes) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": implausible section size " +
                             std::to_string(bytes));
  }
  const std::uint64_t stored_crc = read_u64(in);
  if (stored_crc > 0xFFFFFFFFull) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": corrupt checksum field");
  }
  const std::istream::pos_type pos = in.tellg();
  if (pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(pos);
    if (end != std::istream::pos_type(-1) &&
        bytes > static_cast<std::uint64_t>(end - pos)) {
      throw std::runtime_error(std::string("snapshot: ") + what +
                               ": section size exceeds stream size");
    }
  }
  std::string payload(static_cast<std::size_t>(bytes), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(bytes));
  if (!in) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": truncated section payload");
  }
  if (section_crc32(payload) != stored_crc) {
    throw std::runtime_error(std::string("snapshot: ") + what +
                             ": checksum mismatch (corrupt snapshot)");
  }
  return payload;
}

}  // namespace ppc::core::detail
