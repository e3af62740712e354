// Internal binary-IO helpers shared by the detector snapshot formats.
// Little-endian, length-checked; corrupt input surfaces as
// std::runtime_error rather than silently wrong filter state.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/window.hpp"
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

/// Bytes between the read position and the end of a seekable stream, or
/// -1 where the stream cannot tell. Counts read from a snapshot are bounded
/// by this BEFORE allocating: a corrupt header must fail cleanly, not
/// reserve gigabytes and then hit EOF.
inline std::streamoff bytes_left(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  return end == std::istream::pos_type(-1) ? -1 : end - pos;
}

inline std::vector<std::uint64_t> read_words(std::istream& in) {
  const std::uint64_t count = read_u64(in);
  if (count > kMaxSnapshotWords) {
    throw std::runtime_error("snapshot: implausible word count " +
                             std::to_string(count));
  }
  const std::streamoff left = bytes_left(in);
  if (left >= 0 && count * 8 > static_cast<std::uint64_t>(left)) {
    throw std::runtime_error("snapshot: word count exceeds stream size");
  }
  std::vector<std::uint64_t> w(count);
  in.read(reinterpret_cast<char*>(w.data()),
          static_cast<std::streamsize>(count * 8));
  if (!in) throw std::runtime_error("snapshot: truncated word block");
  return w;
}

/// A WindowSpec as five u64s: kind, basis, length, subwindows, time unit.
inline void write_window(std::ostream& out, const WindowSpec& w) {
  for (const std::uint64_t field :
       {static_cast<std::uint64_t>(w.kind), static_cast<std::uint64_t>(w.basis),
        w.length, std::uint64_t{w.subwindows}, w.time_unit_us}) {
    write_u64(out, field);
  }
}

inline WindowSpec read_window(std::istream& in) {
  const std::uint64_t kind = read_u64(in);
  const std::uint64_t basis = read_u64(in);
  if (kind > static_cast<std::uint64_t>(WindowKind::kSliding) ||
      basis > static_cast<std::uint64_t>(WindowBasis::kTime)) {
    throw std::runtime_error("snapshot: corrupt window header");
  }
  WindowSpec w;
  w.kind = static_cast<WindowKind>(kind);
  w.basis = static_cast<WindowBasis>(basis);
  w.length = read_u64(in);
  w.subwindows = static_cast<std::uint32_t>(read_u64(in));
  w.time_unit_us = read_u64(in);
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
// compatibility; everything built ON TOP of them (and APBF) wraps its payload
// in a section header so corruption anywhere in a multi-filter file is
// caught before any state is applied:
//
//   u64 magic       section type (see the registry below)
//   u64 version     format version, currently kSnapshotFormatVersion
//   u64 byte_count  payload length in bytes
//   u64 crc         CRC-32 (hashing::crc32, the wire protocol's checksum)
//                   of the payload bytes, stored in the low 32 bits; high
//                   32 bits must be zero
//   u8[byte_count]  payload
//
// This file alone knows the framing: a layer streams its own fields in
// write_section's body and parses them in read_section's body. Nesting
// never copies a payload: a nested writer back-patches its header inside
// the enclosing std::stringbuf, and a nested reader's bounded stream is a
// view of the enclosing payload's bytes.
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

/// The "PPCSHD01"-style tag of a magic, for messages.
inline std::string section_name(std::uint64_t magic) {
  std::string name(8, '\0');
  for (int i = 0; i < 8; ++i) {
    name[i] = static_cast<char>(magic >> (56 - 8 * i));
  }
  return name;
}

inline std::uint32_t section_crc32(std::string_view payload) {
  return hashing::crc32({reinterpret_cast<const std::uint8_t*>(payload.data()),
                         payload.size()});
}

/// The bounded stream a section body reads: a seekable, read-only view of
/// the payload bytes, so bytes_left bounds every nested count by what is
/// left of THIS payload.
class SectionBuf final : public std::streambuf {
 public:
  explicit SectionBuf(std::string_view bytes) {
    char* p = const_cast<char*>(bytes.data());  // get area only: never written
    setg(p, p, p + bytes.size());
  }
  std::string_view unread() const {
    return {gptr(), static_cast<std::size_t>(egptr() - gptr())};
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode) override {
    off += dir == std::ios_base::beg   ? 0
           : dir == std::ios_base::cur ? gptr() - eback()
                                       : egptr() - eback();
    if (off < 0 || off > egptr() - eback()) return pos_type(off_type(-1));
    setg(eback(), eback() + off, egptr());
    return pos_type(off);
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

/// Writes one section whose payload is what `body(stream)` writes: header
/// with zero length and CRC, then the payload, then both fields patched in
/// place. A std::stringbuf-backed `out` (every nested level, any
/// ostringstream) is written directly; any other stream receives the
/// section built once in a local buffer.
template <class Body>
  requires std::invocable<Body&, std::ostream&>
void write_section(std::ostream& out, std::uint64_t magic, Body&& body) {
  auto* buf = dynamic_cast<std::stringbuf*>(out.rdbuf());
  if (buf == nullptr) {
    std::ostringstream local(std::ios::binary);
    write_section(local, magic, body);
    out.write(local.view().data(),
              static_cast<std::streamsize>(local.view().size()));
  } else {
    const std::streamoff start = out.tellp();
    for (const std::uint64_t field : {magic, kSnapshotFormatVersion,
                                      std::uint64_t{0}, std::uint64_t{0}}) {
      write_u64(out, field);
    }
    body(out);
    const std::streamoff end = out.tellp();
    if (out && start >= 0) {
      const std::string_view payload = buf->view().substr(
          static_cast<std::size_t>(start + 32),
          static_cast<std::size_t>(end - start - 32));
      const std::uint32_t crc = section_crc32(payload);
      out.seekp(start + 16);
      write_u64(out, payload.size());
      write_u64(out, crc);
      out.seekp(end);
    }
  }
  if (!out) {
    throw std::runtime_error("snapshot: " + section_name(magic) +
                             " section: write failed");
  }
}

/// Wraps an already-built `payload` in a section.
inline void write_section(std::ostream& out, std::uint64_t magic,
                          const std::string& payload) {
  write_section(out, magic, [&](std::ostream& o) {
    o.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  });
}

/// Reads one section and runs `body` on a stream bounded to exactly its
/// payload, with `in` already past the section. Wrong magic, unknown
/// version, an implausible length (the absolute cap, or more than the
/// stream holds — checked before allocating) and a CRC mismatch all throw
/// before `body` runs; a payload `body` leaves unread throws after. Where
/// `in` already holds the bytes in memory (an enclosing section, or a
/// std::stringbuf) the payload is a view of them; otherwise it is read once.
template <class Body>
  requires std::invocable<Body&, std::istream&>
void read_section(std::istream& in, std::uint64_t magic, const char* what,
                  Body&& body) {
  const auto fail = [what](const std::string& why) {
    throw std::runtime_error(std::string("snapshot: ") + what + ": " + why);
  };
  expect_magic(in, magic, what);
  if (const std::uint64_t version = read_u64(in);
      version != kSnapshotFormatVersion) {
    fail("unsupported format version " + std::to_string(version));
  }
  const std::uint64_t bytes = read_u64(in);
  if (bytes > kMaxSectionBytes) {
    fail("implausible section size " + std::to_string(bytes));
  }
  const std::uint64_t stored_crc = read_u64(in);
  if (stored_crc > 0xFFFFFFFFull) fail("corrupt checksum field");
  const std::streamoff left = bytes_left(in);
  if (left >= 0 && bytes > static_cast<std::uint64_t>(left)) {
    fail("section size exceeds stream size");
  }

  std::string owned;
  std::string_view payload;
  if (const auto* outer = dynamic_cast<SectionBuf*>(in.rdbuf())) {
    payload = outer->unread();
  } else if (const auto* sb = dynamic_cast<std::stringbuf*>(in.rdbuf())) {
    payload = sb->view().substr(static_cast<std::size_t>(in.tellg()));
  }
  if (!payload.empty()) {  // in memory: bytes_left vouched for the length
    payload = payload.substr(0, static_cast<std::size_t>(bytes));
    in.seekg(static_cast<std::streamoff>(bytes), std::ios::cur);
  } else {
    owned.resize(static_cast<std::size_t>(bytes));
    in.read(owned.data(), static_cast<std::streamsize>(bytes));
    payload = owned;
  }
  if (!in) fail("truncated section payload");
  if (section_crc32(payload) != stored_crc) {
    fail("checksum mismatch (corrupt snapshot)");
  }
  SectionBuf bounded(payload);
  std::istream body_in(&bounded);
  body(body_in);
  if (!bounded.unread().empty()) fail("trailing bytes");
}

}  // namespace ppc::core::detail
