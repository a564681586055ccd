// io-internal helpers shared by the two CHNK-framed containers: the v2
// raw chunk layer (chunked.cpp) and the v3 compressed columnar layer
// (v3.cpp), and by everything that reads them back (strict index,
// salvage, follower). Not installed API — nothing outside
// src/fluxtrace/io may include this.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "fluxtrace/io/chunked.hpp"

namespace fluxtrace::io::detail {

/// CHNK frame header: magic + type + count + size + header/payload CRCs.
inline constexpr std::size_t kChunkHeaderBytes = 21;

/// Hard per-chunk record cap, enforced on every decode of a *compressed*
/// chunk (a raw chunk's count is already pinned by payload_bytes /
/// record size; a compressed chunk's is not — without this cap a forged
/// count with a valid CRC could demand an arbitrarily large allocation).
/// Writers chunk far below this.
inline constexpr std::uint32_t kMaxRecordsPerChunk = 1u << 20;

// --- little-endian append/peek over an in-memory buffer ---------------

inline void app_u8(std::string& b, std::uint8_t v) {
  b.push_back(static_cast<char>(v));
}

inline void app_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) app_u8(b, static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void app_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) app_u8(b, static_cast<std::uint8_t>(v >> (8 * i)));
}

inline std::uint8_t peek_u8(std::string_view b, std::size_t at) {
  return static_cast<std::uint8_t>(b[at]);
}

inline std::uint32_t peek_u32(std::string_view b, std::size_t at) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, b.data() + at, sizeof v);
    return v;
  } else {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               peek_u8(b, at + static_cast<std::size_t>(i)))
           << (8 * i);
    }
    return v;
  }
}

inline std::uint64_t peek_u64(std::string_view b, std::size_t at) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, b.data() + at, sizeof v);
    return v;
  } else {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               peek_u8(b, at + static_cast<std::size_t>(i)))
           << (8 * i);
    }
    return v;
  }
}

/// One complete CHNK frame: header (with both CRCs) + payload.
/// Implemented in chunked.cpp.
[[nodiscard]] std::string make_chunk(std::uint8_t type,
                                     std::uint32_t n_records,
                                     const std::string& payload);

// --- the frame parser and the payload decoder -------------------------
// Every reader of a chunked image goes through these two: the strict
// index (index_trace_v2), salvage_trace, the per-chunk decodes and the
// live follower. What differs between them is only what each does with
// a torn or damaged frame.

enum class FrameStatus : std::uint8_t {
  Torn,      ///< the buffer ends inside the header or the payload
  BadHeader, ///< no chunk magic, or the header CRC does not match
  Ok,        ///< a whole frame; its payload CRC is not checked yet
};

/// One CHNK frame as parse_frame() found it. The fields other than
/// `status` are set only when status == Ok.
struct Frame {
  FrameStatus status = FrameStatus::Torn;
  std::uint8_t type = 0;
  std::uint32_t n_records = 0;
  std::uint32_t payload_crc = 0; ///< as stored in the header
  std::string_view payload;

  /// Header plus payload: how far the walk advances past this frame.
  [[nodiscard]] std::size_t bytes() const {
    return kChunkHeaderBytes + payload.size();
  }
  /// The payload CRC check: the one pass over the payload bytes that
  /// every reader makes before it trusts them.
  [[nodiscard]] bool payload_intact() const {
    return payload_crc == crc32(payload.data(), payload.size());
  }
  /// The eof sentinel: type 2, no records, an empty payload whose stored
  /// CRC is crc32 of nothing.
  [[nodiscard]] bool is_eof() const {
    return type == kChunkTypeEof && n_records == 0 && payload.empty() &&
           payload_crc == 0;
  }
};

/// Read the 21-byte CHNK header at `at` (magic, type, count, payload
/// size, header CRC, payload CRC) and frame its payload.
[[nodiscard]] inline Frame parse_frame(std::string_view buf, std::size_t at) {
  Frame f;
  if (at > buf.size() || buf.size() - at < kChunkHeaderBytes) return f;
  if (peek_u32(buf, at) != kChunkMagic ||
      peek_u32(buf, at + 13) != crc32(buf.data() + at, 13)) {
    f.status = FrameStatus::BadHeader;
    return f;
  }
  const std::uint32_t payload_bytes = peek_u32(buf, at + 9);
  if (buf.size() - at - kChunkHeaderBytes < payload_bytes) return f;
  f.status = FrameStatus::Ok;
  f.type = peek_u8(buf, at + 4);
  f.n_records = peek_u32(buf, at + 5);
  f.payload_crc = peek_u32(buf, at + 17);
  f.payload = buf.substr(at + kChunkHeaderBytes, payload_bytes);
  return f;
}

/// The one switch over data chunk types: appends the `n` records of a
/// CRC-checked payload to the matching stream of `out` (markers,
/// samples, wait edges, or any v3 compressed type). Returns false on a
/// malformed payload or an unknown type and then leaves `out` exactly as
/// it was. Implemented in chunked.cpp.
[[nodiscard]] bool decode_chunk_payload(std::uint8_t type,
                                        std::string_view payload,
                                        std::uint32_t n, TraceData& out);

/// The payload of the indexed chunk `ref`: its frame re-parsed at
/// ref.offset, checked against the ref, and its payload CRC verified.
/// Throws TraceIoError when any of that fails. Implemented in
/// chunked.cpp.
[[nodiscard]] std::string_view checked_payload(std::string_view file,
                                               const V2ChunkRef& ref);

} // namespace fluxtrace::io::detail
