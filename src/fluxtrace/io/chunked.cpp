#include "fluxtrace/io/chunked.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <new>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fluxtrace/io/chunk_util.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/rt/thread_pool.hpp"

namespace fluxtrace::io {

namespace {

using detail::app_u8;
using detail::app_u32;
using detail::app_u64;
using detail::kChunkHeaderBytes;
using detail::make_chunk;
using detail::peek_u8;
using detail::peek_u32;
using detail::peek_u64;

// Self-telemetry: chunks the strict read decoded.
struct V2Metrics {
  obs::Counter& chunks = obs::metrics().counter("io.v2.chunks_decoded");

  static V2Metrics& get() {
    static V2Metrics m;
    return m;
  }
};

constexpr std::size_t kMarkerBytes = 8 + 8 + 4 + 1;
constexpr std::size_t kSampleBytes =
    8 + 8 + 4 + sizeof(RegisterFile{}.v); // tsc + ip + core + GPRs
constexpr std::size_t kWaitEdgeBytes =
    8 + 8 + 8 + 4 + 4 + 4 + 1; // enter+leave+item+waiter+holder+resource+cause

// --- record encode/decode (v1 field layout) ---------------------------

// Room for n more records: exact on an empty vector (a chunk decoding
// into its own part), geometric on one that is growing chunk by chunk.
// An exact reserve(size + n) per chunk would copy the whole vector on
// every chunk and make a many-chunk read quadratic.
template <typename V>
void reserve_more(V& v, std::size_t n) {
  if (v.capacity() - v.size() < n) {
    v.reserve(std::max(v.size() + n, 2 * v.capacity()));
  }
}

void encode_marker(std::string& b, const Marker& m) {
  app_u64(b, m.tsc);
  app_u64(b, m.item);
  app_u32(b, m.core);
  app_u8(b, static_cast<std::uint8_t>(m.kind));
}

void encode_sample(std::string& b, const PebsSample& s) {
  app_u64(b, s.tsc);
  app_u64(b, s.ip);
  app_u32(b, s.core);
  for (const std::uint64_t r : s.regs.v) app_u64(b, r);
}

void encode_wait_edge(std::string& b, const WaitEdge& e) {
  app_u64(b, e.enter);
  app_u64(b, e.leave);
  app_u64(b, e.item);
  app_u32(b, e.waiter_core);
  app_u32(b, e.holder_core);
  app_u32(b, e.resource);
  app_u8(b, static_cast<std::uint8_t>(e.cause));
}

bool decode_markers(std::string_view payload, std::uint32_t n,
                    std::vector<Marker>& out) {
  if (payload.size() != static_cast<std::size_t>(n) * kMarkerBytes) return false;
  reserve_more(out, n);
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    Marker m;
    m.tsc = peek_u64(payload, at);
    m.item = peek_u64(payload, at + 8);
    m.core = peek_u32(payload, at + 16);
    const std::uint8_t kind = peek_u8(payload, at + 20);
    if (kind > static_cast<std::uint8_t>(MarkerKind::Leave)) return false;
    m.kind = static_cast<MarkerKind>(kind);
    out.push_back(m);
    at += kMarkerBytes;
  }
  return true;
}

bool decode_samples(std::string_view payload, std::uint32_t n,
                    SampleVec& out) {
  if (payload.size() != static_cast<std::size_t>(n) * kSampleBytes) return false;
  reserve_more(out, n);
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    PebsSample s;
    s.tsc = peek_u64(payload, at);
    s.ip = peek_u64(payload, at + 8);
    s.core = peek_u32(payload, at + 16);
    std::size_t r_at = at + 20;
    for (std::uint64_t& r : s.regs.v) {
      r = peek_u64(payload, r_at);
      r_at += 8;
    }
    out.push_back(s);
    at += kSampleBytes;
  }
  return true;
}

bool decode_wait_edges(std::string_view payload, std::uint32_t n,
                       std::vector<WaitEdge>& out) {
  if (payload.size() != static_cast<std::size_t>(n) * kWaitEdgeBytes) {
    return false;
  }
  reserve_more(out, n);
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    WaitEdge e;
    e.enter = peek_u64(payload, at);
    e.leave = peek_u64(payload, at + 8);
    e.item = peek_u64(payload, at + 16);
    e.waiter_core = peek_u32(payload, at + 24);
    e.holder_core = peek_u32(payload, at + 28);
    e.resource = peek_u32(payload, at + 32);
    const std::uint8_t cause = peek_u8(payload, at + 36);
    if (cause >= kNumWaitCauses) return false;
    e.cause = static_cast<WaitCause>(cause);
    out.push_back(e);
    at += kWaitEdgeBytes;
  }
  return true;
}

void write_chunk(std::ostream& os, std::uint8_t type, std::uint32_t n_records,
                 const std::string& payload) {
  const std::string chunk = make_chunk(type, n_records, payload);
  os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

std::string read_rest(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return std::move(buf).str();
}

// Reserve each stream of `out` once from the record counts of the chunks
// about to be decoded (V2ChunkRefs or Frames), so the decode appends
// without reallocating. A count is only header-CRC-checked, not yet
// proven by a decode, so each stream is capped at one record per file
// byte (compressed chunks can hold more records than bytes, so a tighter
// cap would cut short real v3 files). What a forged count reserves
// beyond that is address space no record is ever decoded into; if even
// that cannot be had, the streams grow geometrically instead.
template <typename Chunks>
void reserve_streams(TraceData& out, const Chunks& chunks,
                     std::size_t file_bytes) {
  std::size_t n_markers = 0;
  std::size_t n_samples = 0;
  std::size_t n_waits = 0;
  for (const auto& c : chunks) {
    std::size_t& n = is_marker_chunk_type(c.type)   ? n_markers
                     : is_sample_chunk_type(c.type) ? n_samples
                                                    : n_waits;
    n += c.n_records;
  }
  try {
    out.markers.reserve(std::min(n_markers, file_bytes));
    out.samples.reserve(std::min(n_samples, file_bytes));
    out.wait_edges.reserve(std::min(n_waits, file_bytes));
  } catch (const std::bad_alloc&) {
    // decode without the reservation
  }
}

// The strict read's error: one salvage pass over the image says what is
// damaged and how much salvage_trace()/flxt_recover would get back.
TraceIoError damaged_trace_error(std::string_view file) {
  const SalvageReport rep = salvage_trace(file);
  std::string why = std::to_string(rep.chunks_corrupt) + " corrupt chunks, " +
                    std::to_string(rep.bytes_truncated) + " truncated bytes";
  if (!rep.eof_ok) why += ", missing end-of-file sentinel (torn write)";
  if (rep.chunks_past_eof != 0) {
    why += ", " + std::to_string(rep.chunks_past_eof) +
           " chunks past the end-of-file sentinel";
  }
  return TraceIoError("damaged v2 trace (" + why +
                      "); use salvage_trace()/flxt_recover to recover " +
                      std::to_string(rep.chunks_ok) + " intact chunks");
}

} // namespace

bool detail::decode_chunk_payload(std::uint8_t type, std::string_view payload,
                                  std::uint32_t n, TraceData& out) {
  const std::size_t m0 = out.markers.size();
  const std::size_t s0 = out.samples.size();
  const std::size_t w0 = out.wait_edges.size();
  bool ok = false;
  switch (type) {
    case kChunkTypeMarkers: ok = decode_markers(payload, n, out.markers); break;
    case kChunkTypeSamples: ok = decode_samples(payload, n, out.samples); break;
    case kChunkTypeWaitEdges:
      ok = decode_wait_edges(payload, n, out.wait_edges);
      break;
    default:
      ok = is_compressed_chunk_type(type) &&
           decode_compressed_chunk(type, payload, n, out);
      break;
  }
  if (!ok) {
    // A record decoder may fail part-way through its payload: drop what
    // it appended so a skipped chunk leaves no partial records behind.
    out.markers.resize(m0);
    out.samples.resize(s0);
    out.wait_edges.resize(w0);
  }
  return ok;
}

std::string_view detail::checked_payload(std::string_view file,
                                         const V2ChunkRef& ref) {
  const Frame f = parse_frame(file, ref.offset);
  if (f.status != FrameStatus::Ok || f.type != ref.type ||
      f.n_records != ref.n_records || f.payload.size() != ref.payload_bytes) {
    throw TraceIoError("chunk ref does not match the file image at offset " +
                       std::to_string(ref.offset));
  }
  if (!f.payload_intact()) {
    throw TraceIoError("chunk payload CRC mismatch at offset " +
                       std::to_string(ref.offset));
  }
  return f.payload;
}

std::string detail::make_chunk(std::uint8_t type, std::uint32_t n_records,
                               const std::string& payload) {
  std::string out;
  out.reserve(kChunkHeaderBytes + payload.size());
  app_u32(out, kChunkMagic);
  app_u8(out, type);
  app_u32(out, n_records);
  app_u32(out, static_cast<std::uint32_t>(payload.size()));
  app_u32(out, crc32(out.data(), out.size()));
  app_u32(out, crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

std::uint32_t crc32(const void* data, std::size_t len) {
  // IEEE 802.3 reflected polynomial, slice-by-16: sixteen table lookups
  // per 16-byte step instead of one per byte. Same values as the classic
  // byte-at-a-time loop (table[0] *is* that table), roughly 2x the
  // slice-by-8 throughput on wide cores because the two 8-byte halves
  // have no data dependency between their lookups — this runs over every
  // payload byte of every chunk, so it dominates cold-open time on
  // multi-hundred-MB traces.
  static const std::array<std::array<std::uint32_t, 256>, 16> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 16> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t s = 1; s < 16; ++s) {
        c = t[0][c & 0xffu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  while (len >= 16) {
    std::uint64_t w1, w2;
    std::memcpy(&w1, p, 8);
    std::memcpy(&w2, p + 8, 8);
    if constexpr (std::endian::native == std::endian::big) {
      w1 = __builtin_bswap64(w1);
      w2 = __builtin_bswap64(w2);
    }
    w1 ^= crc;
    crc = tables[15][w1 & 0xffu] ^ tables[14][(w1 >> 8) & 0xffu] ^
          tables[13][(w1 >> 16) & 0xffu] ^ tables[12][(w1 >> 24) & 0xffu] ^
          tables[11][(w1 >> 32) & 0xffu] ^ tables[10][(w1 >> 40) & 0xffu] ^
          tables[9][(w1 >> 48) & 0xffu] ^ tables[8][(w1 >> 56) & 0xffu] ^
          tables[7][w2 & 0xffu] ^ tables[6][(w2 >> 8) & 0xffu] ^
          tables[5][(w2 >> 16) & 0xffu] ^ tables[4][(w2 >> 24) & 0xffu] ^
          tables[3][(w2 >> 32) & 0xffu] ^ tables[2][(w2 >> 40) & 0xffu] ^
          tables[1][(w2 >> 48) & 0xffu] ^ tables[0][(w2 >> 56) & 0xffu];
    p += 16;
    len -= 16;
  }
  while (len-- > 0) {
    crc = tables[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string encode_v2_file_header() {
  std::string header;
  app_u32(header, kTraceMagic);
  app_u32(header, kTraceVersion2);
  return header;
}

std::string encode_marker_chunk(const Marker* ms, std::size_t n) {
  std::string payload;
  payload.reserve(n * kMarkerBytes);
  for (std::size_t i = 0; i < n; ++i) encode_marker(payload, ms[i]);
  return make_chunk(kChunkTypeMarkers, static_cast<std::uint32_t>(n), payload);
}

std::string encode_sample_chunk(const PebsSample* ss, std::size_t n) {
  std::string payload;
  payload.reserve(n * kSampleBytes);
  for (std::size_t i = 0; i < n; ++i) encode_sample(payload, ss[i]);
  return make_chunk(kChunkTypeSamples, static_cast<std::uint32_t>(n), payload);
}

std::string encode_wait_chunk(const WaitEdge* es, std::size_t n) {
  std::string payload;
  payload.reserve(n * kWaitEdgeBytes);
  for (std::size_t i = 0; i < n; ++i) encode_wait_edge(payload, es[i]);
  return make_chunk(kChunkTypeWaitEdges, static_cast<std::uint32_t>(n),
                    payload);
}

std::string encode_eof_chunk() {
  return make_chunk(kChunkTypeEof, 0, std::string{});
}

void write_trace_v2(std::ostream& os, const TraceData& data,
                    std::size_t records_per_chunk) {
  if (records_per_chunk == 0) records_per_chunk = 1;
  // As in write_trace: surface the failing section with the errno text
  // instead of leaving a silently truncated file (save_trace_v2 appends
  // the path).
  const auto check = [&os](const char* section) {
    if (os.good()) return;
    std::string msg = std::string("write failed (") + section + ")";
    if (errno != 0) msg += std::string(": ") + std::strerror(errno);
    throw TraceIoError(msg);
  };
  errno = 0;
  std::string header;
  app_u32(header, kTraceMagic);
  app_u32(header, kTraceVersion2);
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  check("header");

  std::string payload;
  for (std::size_t at = 0; at < data.markers.size();
       at += records_per_chunk) {
    const std::size_t n =
        std::min(records_per_chunk, data.markers.size() - at);
    payload.clear();
    for (std::size_t i = 0; i < n; ++i) {
      encode_marker(payload, data.markers[at + i]);
    }
    write_chunk(os, kChunkTypeMarkers, static_cast<std::uint32_t>(n), payload);
  }
  check("marker chunks");
  for (std::size_t at = 0; at < data.samples.size();
       at += records_per_chunk) {
    const std::size_t n =
        std::min(records_per_chunk, data.samples.size() - at);
    payload.clear();
    for (std::size_t i = 0; i < n; ++i) {
      encode_sample(payload, data.samples[at + i]);
    }
    write_chunk(os, kChunkTypeSamples, static_cast<std::uint32_t>(n), payload);
  }
  check("sample chunks");
  for (std::size_t at = 0; at < data.wait_edges.size();
       at += records_per_chunk) {
    const std::size_t n =
        std::min(records_per_chunk, data.wait_edges.size() - at);
    payload.clear();
    for (std::size_t i = 0; i < n; ++i) {
      encode_wait_edge(payload, data.wait_edges[at + i]);
    }
    write_chunk(os, kChunkTypeWaitEdges, static_cast<std::uint32_t>(n),
                payload);
  }
  check("wait-edge chunks");
  // Torn-write detector: a crash cutting the file at an exact chunk
  // boundary would otherwise look like a complete shorter file.
  write_chunk(os, kChunkTypeEof, 0, std::string{});
  os.flush();
  check("eof chunk");
}

SalvageReport salvage_trace(std::istream& is) {
  return salvage_trace(std::string_view(read_rest(is)));
}

SalvageReport salvage_trace(std::string_view buf) {
  using detail::FrameStatus;
  SalvageReport rep;

  // File header: 8 bytes of magic + version. Versions 2 and 3 are one
  // chunk family (v3.hpp), so salvage accepts either. A damaged header
  // does not stop salvage — chunks are self-delimiting — but it is
  // reported.
  std::size_t pos = 0;
  if (buf.size() >= 8 && peek_u32(buf, 0) == kTraceMagic &&
      (peek_u32(buf, 4) == kTraceVersion2 ||
       peek_u32(buf, 4) == kTraceVersion3)) {
    rep.header_ok = true;
    pos = 8;
  }

  // Walk the frames first, then decode the ones found: the decode can
  // then reserve each stream once instead of growing it chunk by chunk.
  std::vector<detail::Frame> frames;
  while (pos < buf.size()) {
    const detail::Frame f = detail::parse_frame(buf, pos);
    if (f.status == FrameStatus::Torn) {
      rep.bytes_truncated += buf.size() - pos; // torn mid-header or payload
      break;
    }
    if (f.status == FrameStatus::BadHeader) {
      // Damaged header: resynchronize at the next chunk magic. A false
      // positive inside payload bytes fails its own header CRC and the
      // scan simply continues.
      const char magic_bytes[4] = {'C', 'H', 'N', 'K'};
      const std::size_t next = buf.find(magic_bytes, pos + 1, 4);
      ++rep.chunks_resynced;
      if (next == std::string_view::npos) {
        rep.bytes_truncated += buf.size() - pos;
        break;
      }
      rep.bytes_skipped += next - pos;
      pos = next;
      continue;
    }
    pos += f.bytes();
    // A clean file ends at its eof sentinel (index_trace_v2): anything
    // framed after it is still recovered, but marks the file not clean.
    if (rep.eof_ok) ++rep.chunks_past_eof;
    if (f.is_eof()) {
      rep.eof_ok = true;
      continue;
    }
    frames.push_back(f);
  }

  reserve_streams(rep.data, frames, buf.size());
  for (const detail::Frame& f : frames) {
    // An unknown type (a future writer's) or a malformed eof sentinel
    // fails the decode and is skipped like any damaged payload.
    if (f.payload_intact() &&
        detail::decode_chunk_payload(f.type, f.payload, f.n_records,
                                     rep.data)) {
      ++rep.chunks_ok;
    } else {
      ++rep.chunks_corrupt;
      rep.bytes_skipped += f.bytes();
    }
  }
  return rep;
}

SalvageReport salvage_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw TraceIoError("cannot open for reading: " + path + ": " +
                       std::strerror(errno));
  }
  return salvage_trace(is);
}

std::vector<V2ChunkRef> index_trace_v2(std::string_view file) {
  if (file.size() < 8 || peek_u32(file, 0) != kTraceMagic ||
      (peek_u32(file, 4) != kTraceVersion2 &&
       peek_u32(file, 4) != kTraceVersion3)) {
    throw TraceIoError("not a chunked trace (bad file header)");
  }
  std::vector<V2ChunkRef> out;
  std::size_t pos = 8;
  bool saw_eof = false;
  while (pos < file.size()) {
    if (saw_eof) throw TraceIoError("data past the v2 eof sentinel");
    const detail::Frame f = detail::parse_frame(file, pos);
    if (f.status == detail::FrameStatus::Torn) {
      throw TraceIoError("truncated v2 chunk");
    }
    if (f.status == detail::FrameStatus::BadHeader) {
      throw TraceIoError("damaged v2 chunk header");
    }
    if (f.type == kChunkTypeEof) {
      if (!f.is_eof()) throw TraceIoError("malformed v2 eof sentinel");
      saw_eof = true;
    } else if (f.type == kChunkTypeMarkers || f.type == kChunkTypeSamples ||
               f.type == kChunkTypeWaitEdges ||
               is_compressed_chunk_type(f.type)) {
      out.push_back(V2ChunkRef{pos, f.type, f.n_records,
                               static_cast<std::uint32_t>(f.payload.size())});
    } else {
      throw TraceIoError("unknown v2 chunk type");
    }
    pos += f.bytes();
  }
  if (!saw_eof) {
    throw TraceIoError("missing v2 end-of-file sentinel (torn write)");
  }
  return out;
}

void decode_trace_v2_chunk(std::string_view file, const V2ChunkRef& ref,
                           TraceData& out) {
  const std::string_view payload = detail::checked_payload(file, ref);
  if (!detail::decode_chunk_payload(ref.type, payload, ref.n_records, out)) {
    throw TraceIoError("malformed v2 chunk records at offset " +
                       std::to_string(ref.offset));
  }
}

TraceData read_trace_chunked(std::string_view file, unsigned n_threads) {
  try {
    const std::vector<V2ChunkRef> refs = index_trace_v2(file);
    TraceData out;
    if (n_threads <= 1 || refs.size() <= 1) {
      reserve_streams(out, refs, file.size());
      for (const V2ChunkRef& r : refs) decode_trace_v2_chunk(file, r, out);
    } else {
      // Each chunk decodes into its own part; parallel_for rethrows the
      // first failure in chunk order, as the inline loop would meet it.
      // The output is reserved only once the parts exist: taking its
      // pages first measurably slowed later passes over the heap (the
      // postmortem workload's core::diagnose, 4-CPU host).
      std::vector<TraceData> parts(refs.size());
      rt::ThreadPool pool(
          static_cast<unsigned>(std::min<std::size_t>(n_threads, refs.size())));
      pool.parallel_for(refs.size(), [&](std::size_t i) {
        decode_trace_v2_chunk(file, refs[i], parts[i]);
      });
      reserve_streams(out, refs, file.size());
      for (const TraceData& p : parts) {
        out.markers.insert(out.markers.end(), p.markers.begin(),
                           p.markers.end());
        out.samples.insert(out.samples.end(), p.samples.begin(),
                           p.samples.end());
        out.wait_edges.insert(out.wait_edges.end(), p.wait_edges.begin(),
                              p.wait_edges.end());
      }
    }
    V2Metrics::get().chunks.inc(refs.size());
    return out;
  } catch (const TraceIoError&) {
    throw damaged_trace_error(file);
  }
}

void decode_trace_v2_samples_slice(std::string_view file,
                                   const V2ChunkRef& ref,
                                   const SampleColumnSlice& out) {
  if (ref.type != kChunkTypeSamples) {
    throw TraceIoError("columnar decode on a non-sample chunk");
  }
  const std::string_view payload = detail::checked_payload(file, ref);
  const std::uint32_t n = ref.n_records;
  if (payload.size() != static_cast<std::size_t>(n) * kSampleBytes ||
      out.reg_index >= kNumRegs) {
    throw TraceIoError("malformed v2 chunk records");
  }
  const std::size_t reg_off = 20 + std::size_t{out.reg_index} * 8;
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.tsc[i] = static_cast<std::int64_t>(peek_u64(payload, at));
    out.ip[i] = static_cast<std::int64_t>(peek_u64(payload, at + 8));
    out.core[i] = static_cast<std::int64_t>(peek_u32(payload, at + 16));
    if (out.reg != nullptr) {
      out.reg[i] = static_cast<std::int64_t>(peek_u64(payload, at + reg_off));
    }
    at += kSampleBytes;
  }
}

void save_trace_v2(const std::string& path, const TraceData& data,
                   std::size_t records_per_chunk) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw TraceIoError("cannot open for writing: " + path + ": " +
                       std::strerror(errno));
  }
  try {
    write_trace_v2(os, data, records_per_chunk);
  } catch (const TraceIoError& e) {
    throw TraceIoError(std::string(e.what()) + ": " + path);
  }
  os.close();
  if (!os) {
    throw TraceIoError("write failed (close): " + path + ": " +
                       std::strerror(errno));
  }
}

} // namespace fluxtrace::io
