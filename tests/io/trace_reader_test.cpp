// io::TraceReader facade: autodetection across all three containers,
// parallel == sequential reads, salvage behaviour per format, and the
// hostile-input contract — arbitrary bytes may fail read() with
// TraceIoError but must never crash, and salvage() never throws on
// content at all.
#include "fluxtrace/io/trace_reader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "fluxtrace/io/compact.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/query/columnar.hpp"
#include "support/test_dir.hpp"

namespace fluxtrace::io {
namespace {

TraceData sample_data(std::size_t n_markers, std::size_t n_samples,
                      std::uint64_t seed = 1) {
  auto rnd = [state = seed]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  TraceData d;
  for (std::size_t i = 0; i < n_markers; ++i) {
    Marker m;
    m.tsc = rnd();
    m.item = rnd();
    m.core = static_cast<std::uint32_t>(rnd() % 16);
    m.kind = (rnd() % 2 == 0) ? MarkerKind::Enter : MarkerKind::Leave;
    d.markers.push_back(m);
  }
  for (std::size_t i = 0; i < n_samples; ++i) {
    PebsSample s;
    s.tsc = rnd();
    s.ip = rnd();
    s.core = static_cast<std::uint32_t>(rnd() % 16);
    for (std::uint64_t& r : s.regs.v) r = rnd();
    d.samples.push_back(s);
  }
  return d;
}

std::string v1_bytes(const TraceData& d) {
  std::ostringstream os;
  write_trace(os, d);
  return std::move(os).str();
}

std::string v2_bytes(const TraceData& d, std::size_t per_chunk = 64) {
  std::ostringstream os;
  write_trace_v2(os, d, per_chunk);
  return std::move(os).str();
}

std::string flxz_bytes(const TraceData& d) {
  std::ostringstream os;
  write_compact(os, d);
  return std::move(os).str();
}

// --- autodetection ----------------------------------------------------

TEST(TraceReader, DetectsFlxtV1) {
  const TraceData d = sample_data(30, 100);
  const TraceReader r = open_trace_bytes(v1_bytes(d));
  EXPECT_EQ(r.format(), TraceFormat::FlxtV1);
  EXPECT_EQ(r.read(), d);
}

TEST(TraceReader, DetectsFlxtV2) {
  const TraceData d = sample_data(30, 100);
  const TraceReader r = open_trace_bytes(v2_bytes(d));
  EXPECT_EQ(r.format(), TraceFormat::FlxtV2);
  EXPECT_EQ(r.read(), d);
}

TEST(TraceReader, DetectsFlxz) {
  const TraceData d = sample_data(30, 100, 3);
  const TraceReader r = open_trace_bytes(flxz_bytes(d));
  EXPECT_EQ(r.format(), TraceFormat::Flxz);
  // Compact is lossy/re-sorting; counts must survive exactly.
  const TraceData back = r.read();
  EXPECT_EQ(back.markers.size(), d.markers.size());
  EXPECT_EQ(back.samples.size(), d.samples.size());
}

TEST(TraceReader, FormatNames) {
  EXPECT_EQ(to_string(TraceFormat::FlxtV1), "flxt-v1");
  EXPECT_EQ(to_string(TraceFormat::FlxtV2), "flxt-v2");
  EXPECT_EQ(to_string(TraceFormat::Flxz), "flxz");
  EXPECT_EQ(to_string(TraceFormat::Unknown), "unknown");
}

TEST(TraceReader, OpensFromFile) {
  const TraceData d = sample_data(10, 40);
  const std::string path = test_support::test_path("reader_test.flxt");
  save_trace(path, d);
  const TraceReader r = open_trace(path);
  EXPECT_EQ(r.format(), TraceFormat::FlxtV1);
  EXPECT_EQ(r.path(), path);
  EXPECT_GT(r.size_bytes(), 0u);
  EXPECT_EQ(r.read(), d);
}

TEST(TraceReader, MissingFileThrowsWithPath) {
  try {
    (void)open_trace("/nonexistent/dir/x.trace");
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/x.trace"),
              std::string::npos);
  }
}

TEST(TraceReader, FileReadErrorsCarryThePath) {
  const std::string path = test_support::test_path("reader_garbage.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << std::string(64, '\x11');
  }
  try {
    (void)open_trace(path).read();
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

// --- parallel == sequential -------------------------------------------

TEST(TraceReader, ParallelReadMatchesSequentialV1) {
  const TraceData d = sample_data(500, 3000, 7);
  const TraceReader r = open_trace_bytes(v1_bytes(d));
  for (const unsigned n : {0u, 1u, 2u, 4u}) {
    EXPECT_EQ(r.read_parallel(n), d) << "threads=" << n;
  }
}

TEST(TraceReader, ParallelReadMatchesSequentialV2) {
  const TraceData d = sample_data(500, 3000, 8);
  // Small chunks so the parallel path actually fans out.
  const TraceReader r = open_trace_bytes(v2_bytes(d, 128));
  for (const unsigned n : {0u, 1u, 2u, 4u}) {
    EXPECT_EQ(r.read_parallel(n), d) << "threads=" << n;
  }
}

TEST(TraceReader, ParallelReadFallsBackForFlxz) {
  const TraceData d = sample_data(50, 200, 9);
  const TraceReader r = open_trace_bytes(flxz_bytes(d));
  EXPECT_EQ(r.read_parallel(4), r.read());
}

// What one strict-read call made of a trace: its data, or its error.
struct Outcome {
  bool ok = false;
  TraceData data;
  std::string error;
};

template <typename Read>
Outcome outcome_of(Read&& read) {
  Outcome o;
  try {
    o.data = read();
    o.ok = true;
  } catch (const TraceIoError& e) {
    o.error = e.what();
  }
  return o;
}

// Every strict read of a chunked trace is one path: read(), read_parallel
// at any thread count, the columnar open, and classify_trace must agree
// on accept or reject, on the data, and on the error text.
TEST(TraceReader, ParallelReadOfDamagedV2ThrowsLikeSequential) {
  TraceData d = sample_data(100, 400, 10);
  for (std::uint64_t i = 0; i < 50; ++i) {
    WaitEdge e;
    e.enter = 1000 + i * 10;
    e.leave = 1005 + i * 10;
    e.item = i;
    e.waiter_core = static_cast<std::uint32_t>(i % 4);
    e.holder_core = static_cast<std::uint32_t>((i + 1) % 4);
    e.resource = static_cast<std::uint32_t>(i % 3);
    e.cause = static_cast<WaitCause>(i % kNumWaitCauses);
    d.wait_edges.push_back(e);
  }
  const std::string clean_v2 = v2_bytes(d, 32);
  std::ostringstream v3os;
  write_trace_v3(v3os, d, 64);
  const std::string clean_v3 = std::move(v3os).str();
  // A v2 file whose samples a v3 writer appended: one chunk family.
  std::string mixed = encode_v2_file_header();
  mixed += encode_marker_chunk(d.markers.data(), d.markers.size());
  mixed += encode_sample_chunk(d.samples.data(), 200);
  mixed += encode_sample_chunk_v3(d.samples.data() + 200, 200);
  mixed += encode_wait_chunk_v3(d.wait_edges.data(), d.wait_edges.size());
  mixed += encode_eof_chunk();
  const std::vector<V2ChunkRef> refs = index_trace_v2(clean_v2);
  ASSERT_GT(refs.size(), 4u);
  const std::size_t mid = refs[refs.size() / 2].offset;
  std::string flipped = clean_v2;
  flipped[mid + 21 + 3] ^= 0x40; // a payload byte of a middle chunk
  std::string no_header = clean_v2;
  no_header.replace(mid, 4, "XXXX"); // a middle chunk's magic
  const std::string past_eof =
      clean_v2 + encode_sample_chunk(d.samples.data(), 8);

  struct Fixture {
    const char* name;
    std::string bytes;
    bool clean;
  };
  const Fixture fixtures[] = {
      {"clean v2", clean_v2, true},
      {"clean v3", clean_v3, true},
      {"mixed v2+v3", mixed, true},
      {"torn tail", clean_v2.substr(0, clean_v2.size() * 2 / 3), false},
      {"flipped payload byte", flipped, false},
      {"destroyed chunk header", no_header, false},
      {"chunk after the eof sentinel", past_eof, false},
  };
  SymbolTable symtab;
  (void)symtab.add("fn", 0x4000);
  for (const Fixture& f : fixtures) {
    SCOPED_TRACE(f.name);
    const TraceReader r = open_trace_bytes(f.bytes);
    const Outcome seq = outcome_of([&] { return r.read(); });
    ASSERT_EQ(seq.ok, f.clean) << seq.error;
    if (f.clean) {
      EXPECT_EQ(seq.data, d);
    } else {
      EXPECT_NE(seq.error.find("damaged v2 trace"), std::string::npos)
          << seq.error;
    }
    for (const unsigned n : {1u, 2u, 4u}) {
      const Outcome par = outcome_of([&] { return r.read_parallel(n); });
      EXPECT_EQ(par.ok, seq.ok) << n << " threads";
      EXPECT_EQ(par.data, seq.data) << n << " threads";
      EXPECT_EQ(par.error, seq.error) << "damage diagnostics must not depend "
                                         "on the thread count ("
                                      << n << ")";
    }

    const TraceTriage t = classify_trace(r);
    EXPECT_EQ(t.health == TraceHealth::Clean, seq.ok);
    if (seq.ok) {
      EXPECT_EQ(t.report.data, seq.data);
    }

    const query::ColumnarTrace want = query::ColumnarTrace::build(
        seq.ok ? seq.data : t.report.data, symtab, {});
    for (const unsigned n : {1u, 4u}) {
      const query::ColumnarTrace got =
          query::ColumnarTrace::from_reader(r, symtab, {}, n);
      EXPECT_EQ(got.salvaged(), !seq.ok) << n << " threads";
      ASSERT_EQ(got.rows(), want.rows()) << n << " threads";
      for (std::size_t c = 0; c < query::kNumFields; ++c) {
        const auto field = static_cast<query::Field>(c);
        EXPECT_TRUE(std::ranges::equal(got.col(field), want.col(field)))
            << n << " threads, column " << c;
      }
    }
  }
}

// The strict read and salvage are linear in chunks: 40K one-record
// chunks once took 13-24 s in an unoptimized build, because each chunk
// decode reserved exactly its own records on top of the output and so
// copied the whole output again.
TEST(TraceReader, ManyTinyChunksReadInLinearTime) {
  const TraceData d = sample_data(0, 40000, 15);
  const TraceReader r = open_trace_bytes(v2_bytes(d, 1));
  const auto timed = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    auto out = fn();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    EXPECT_LT(took.count(), 3.0);
    return out;
  };
  EXPECT_EQ(timed([&] { return r.read(); }), d);
  EXPECT_EQ(timed([&] { return r.read_parallel(1); }), d);
  const SalvageReport rep = timed([&] { return r.salvage(); });
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.data, d);
  const TraceTriage t = timed([&] { return classify_trace(r); });
  EXPECT_EQ(t.health, TraceHealth::Clean);
  EXPECT_EQ(t.report.data, d);
}

// --- salvage ----------------------------------------------------------

TEST(TraceReader, SalvageRecoversTornV2) {
  const TraceData d = sample_data(100, 400, 11);
  const std::string bytes = v2_bytes(d, 32);
  const TraceReader r =
      open_trace_bytes(bytes.substr(0, bytes.size() * 2 / 3));
  const SalvageReport rep = r.salvage();
  EXPECT_FALSE(rep.clean());
  EXPECT_GT(rep.chunks_ok, 0u);
  EXPECT_FALSE(rep.data.markers.empty());
  for (std::size_t i = 0; i < rep.data.markers.size(); ++i) {
    EXPECT_EQ(rep.data.markers[i], d.markers[i]);
  }
}

TEST(TraceReader, SalvageScansV2WithDestroyedHeader) {
  const TraceData d = sample_data(60, 200, 12);
  std::string bytes = v2_bytes(d, 32);
  for (int i = 0; i < 8; ++i) bytes[static_cast<std::size_t>(i)] = '\x5c';
  const TraceReader r = open_trace_bytes(bytes);
  EXPECT_EQ(r.format(), TraceFormat::Unknown);
  EXPECT_THROW((void)r.read(), TraceIoError);
  const SalvageReport rep = r.salvage();
  EXPECT_FALSE(rep.header_ok);
  EXPECT_EQ(rep.data.markers.size(), d.markers.size());
  EXPECT_EQ(rep.data.samples.size(), d.samples.size());
}

TEST(TraceReader, SalvageOfCleanV1IsAllOrNothing) {
  const TraceData d = sample_data(20, 80, 13);
  const TraceReader intact = open_trace_bytes(v1_bytes(d));
  const SalvageReport ok = intact.salvage();
  EXPECT_TRUE(ok.clean());
  EXPECT_EQ(ok.data, d);

  const std::string cut = v1_bytes(d).substr(0, v1_bytes(d).size() / 2);
  const SalvageReport bad = open_trace_bytes(cut).salvage();
  EXPECT_FALSE(bad.clean());
  EXPECT_TRUE(bad.data.markers.empty());
  EXPECT_TRUE(bad.data.samples.empty());
}

// --- hostile input ----------------------------------------------------

TEST(TraceReader, HostileInputsThrowButNeverCrash) {
  std::vector<std::string> inputs;
  inputs.emplace_back();                     // empty
  inputs.emplace_back("x");                  // shorter than any magic
  inputs.emplace_back("FLXT");               // magic alone, no version
  inputs.emplace_back(std::string(7, '\0')); // short zeros
  inputs.emplace_back("definitely not a trace, just text");
  {
    std::string bad_version = v1_bytes(sample_data(1, 1));
    bad_version[4] = 99;
    inputs.push_back(std::move(bad_version)); // FLXT magic, version 99
  }
  {
    const std::string whole = v1_bytes(sample_data(5, 5));
    inputs.push_back(whole.substr(0, whole.size() - 3)); // truncated v1
  }
  {
    const std::string whole = v2_bytes(sample_data(5, 5));
    inputs.push_back(whole.substr(0, whole.size() - 3)); // truncated v2
  }
  // Seeded random garbage, including high-bit runs that stress the
  // varint probe.
  std::uint64_t state = 0xdeadbeef;
  for (int round = 0; round < 8; ++round) {
    std::string garbage(257, '\0');
    for (char& c : garbage) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      c = static_cast<char>(state >> 33);
    }
    inputs.push_back(std::move(garbage));
  }
  inputs.emplace_back(300, '\xff'); // varint continuation-bit bomb

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const TraceReader r = open_trace_bytes(std::string(inputs[i]));
    try {
      (void)r.read();
      // Some corrupt v1 bodies still parse (no checksums) — acceptable,
      // the contract is "throw TraceIoError or parse", never crash.
    } catch (const TraceIoError&) {
      // expected for most inputs
    }
    try {
      (void)r.read_parallel(4);
    } catch (const TraceIoError&) {
    }
    EXPECT_NO_THROW((void)r.salvage()) << "salvage must not throw, input " << i;
  }
}

TEST(TraceReader, UnknownFormatErrorsMatchLegacyReader) {
  try {
    (void)open_trace_bytes("garbage bytes here").read();
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_STREQ(e.what(), "not a fluxtrace file (bad magic)");
  }
  std::string bad_version = v1_bytes(TraceData{});
  bad_version[4] = 99;
  try {
    (void)open_trace_bytes(std::move(bad_version)).read();
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_STREQ(e.what(), "unsupported trace version 99");
  }
}

} // namespace
} // namespace fluxtrace::io
