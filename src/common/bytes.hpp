// Little-endian byte codec, CRC-framed records and whole-file reads.
//
// Every HPAS binary format -- the sweep/search/server/dataset journals,
// dataset shards, trace files and the server's wire length prefix -- is
// encoded with these helpers, so a field has exactly one byte layout,
// independent of the host's byte order and struct layout. The codec is
// header-only; read_file lives in bytes.cpp.
//
// The journal and the dataset shards share one frame layout:
//
//   frame := len:u32 payload[len] crc:u32        crc = CRC32(payload)
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/crc32.hpp"

namespace hpas {

// --- encoders: append little-endian fields to a byte string ------------

inline void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

inline void put_u8(std::string& out, std::uint8_t v) { put_le(out, v, 1); }
inline void put_u16(std::string& out, std::uint16_t v) { put_le(out, v, 2); }
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v, 4); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v, 8); }

inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// u32 length, then the raw bytes.
inline void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// --- decoders: read fields the caller has already bounds-checked -------

inline std::uint64_t get_le(const unsigned char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

inline std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(get_le(p, 4));
}

inline std::uint64_t get_u64(const unsigned char* p) { return get_le(p, 8); }

inline double get_f64(const unsigned char* p) {
  return std::bit_cast<double>(get_u64(p));
}

/// Bounds-checked cursor over a payload. A read past the end sets `ok`
/// false and returns zeros, so a decoder can read every field
/// unconditionally and check once at the end.
struct ByteCursor {
  const unsigned char* p;
  std::size_t n;
  std::size_t off = 0;
  bool ok = true;

  bool take(std::size_t k) {
    if (!ok || n - off < k) ok = false;
    return ok;
  }
  std::uint64_t le(int bytes) {
    if (!take(static_cast<std::size_t>(bytes))) return 0;
    const std::uint64_t v = get_le(p + off, bytes);
    off += static_cast<std::size_t>(bytes);
    return v;
  }
  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  double f64() { return std::bit_cast<double>(le(8)); }
  std::string str() {
    const std::uint32_t len = u32();
    if (!take(len)) return {};
    std::string s(reinterpret_cast<const char*>(p + off), len);
    off += len;
    return s;
  }
};

// --- frames ------------------------------------------------------------

/// Bytes a frame adds around its payload (length + CRC).
inline constexpr std::size_t kFrameOverhead = 8;

/// Opens a frame at the end of `out`: reserves the length field and
/// returns the payload offset to hand to end_frame() once the payload has
/// been appended.
inline std::size_t begin_frame(std::string& out) {
  put_u32(out, 0);
  return out.size();
}

/// Closes the frame opened at `payload_begin`: fills in its length and
/// appends the payload's CRC32.
inline void end_frame(std::string& out, std::size_t payload_begin) {
  const std::size_t len = out.size() - payload_begin;
  for (int i = 0; i < 4; ++i)
    out[payload_begin - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xffu);
  put_u32(out, crc32(out.data() + payload_begin, len));
}

/// Checks the frame at the head of `data[0, avail)`. Returns nullptr
/// when it is intact -- a payload of get_u32(data) bytes at data + 4 --
/// and otherwise why it is not. A length above `max_len` is garbage, not
/// a record.
inline const char* frame_damage(const unsigned char* data, std::size_t avail,
                                std::uint32_t max_len) {
  if (avail < 4) return "torn frame length at tail";
  const std::uint32_t len = get_u32(data);
  if (len > max_len) return "implausible frame length (corrupt file)";
  if (avail - 4 < std::size_t{len} + 4) return "torn frame payload at tail";
  if (crc32(data + 4, len) != get_u32(data + 4 + len))
    return "frame CRC mismatch";
  return nullptr;
}

// --- files -------------------------------------------------------------

/// The whole content of the file at `path`; std::nullopt when it cannot
/// be opened or read (missing, a directory, permission denied).
std::optional<std::string> read_file(const std::string& path);

}  // namespace hpas
