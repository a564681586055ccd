#include "fluxtrace/query/columnar.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "fluxtrace/base/regs.hpp"
#include "fluxtrace/core/integrator.hpp"
#include "fluxtrace/core/trace_table.hpp"
#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/span.hpp"
#include "fluxtrace/rt/thread_pool.hpp"

namespace fluxtrace::query {

namespace {

constexpr std::size_t idx(Field f) { return static_cast<std::size_t>(f); }

// Per-core windows with the same innermost-cover probe the integrator
// uses (integrator.cpp `locate`), so `item` here always agrees with what
// flxt_report would print for the same trace.
struct CoreWindows {
  std::vector<core::ItemWindow> ws;
  std::vector<Tsc> prefix_max_leave;
};

std::map<std::uint32_t, CoreWindows> windows_by_core(
    const std::vector<Marker>& markers) {
  std::map<std::uint32_t, CoreWindows> out;
  for (const core::ItemWindow& w :
       core::TraceIntegrator::windows_from_markers(markers)) {
    out[w.core].ws.push_back(w);
  }
  for (auto& [c, cw] : out) {
    std::sort(cw.ws.begin(), cw.ws.end(),
              [](const core::ItemWindow& a, const core::ItemWindow& b) {
                return a.enter < b.enter;
              });
    cw.prefix_max_leave.resize(cw.ws.size());
    Tsc running = 0;
    for (std::size_t i = 0; i < cw.ws.size(); ++i) {
      running = std::max(running, cw.ws[i].leave);
      cw.prefix_max_leave[i] = running;
    }
  }
  return out;
}

// Everything the attribution loop tracks per core: the window cursor
// (samples are near-sorted in time per core, so the previous row's
// window almost always covers the next row too) and the open {item,
// func} bucket run (consecutive same-item samples reuse the bucket
// without touching the global map).
struct CoreState {
  const CoreWindows* windows = nullptr;
  std::size_t cursor = 0;
  std::int64_t run_item = -1;
  std::vector<std::int32_t> fn_bucket; // per func id: bucket index or -1
  std::vector<std::int32_t> fn_span;   // per func id: span slot in bucket
  std::vector<std::uint32_t> touched;  // func ids to reset on item change
};

// The integrator's innermost-cover probe with a cursor fast path. The
// fast path fires only when the cursor window provably *is* the
// innermost cover (it contains tsc and the next window starts strictly
// later), so the result is identical to the full backward walk.
ItemId locate(CoreState& cs, Tsc tsc) {
  if (cs.windows == nullptr) return kNoItem;
  const std::vector<core::ItemWindow>& ws = cs.windows->ws;
  const std::vector<Tsc>& pmax = cs.windows->prefix_max_leave;
  const std::size_t cur = cs.cursor;
  if (cur < ws.size() && ws[cur].enter <= tsc && tsc <= ws[cur].leave &&
      (cur + 1 == ws.size() || tsc < ws[cur + 1].enter)) {
    return ws[cur].item;
  }
  auto wit = std::upper_bound(
      ws.begin(), ws.end(), tsc,
      [](Tsc t, const core::ItemWindow& w) { return t < w.enter; });
  while (wit != ws.begin()) {
    const std::size_t i = static_cast<std::size_t>(wit - ws.begin()) - 1;
    if (pmax[i] < tsc) break;
    --wit;
    if (tsc <= wit->leave) {
      cs.cursor = static_cast<std::size_t>(wit - ws.begin());
      return wit->item;
    }
  }
  return kNoItem;
}

} // namespace

void ColumnarTrace::attribute(const std::vector<Marker>& markers,
                              const SymbolTable& symtab,
                              const BuildOptions& opts) {
  const std::size_t n = n_rows_;
  const std::int64_t* ts = cols_[idx(Field::Ts)].data();
  const std::int64_t* ip = cols_[idx(Field::Ip)].data();
  const std::int64_t* core_c = cols_[idx(Field::Core)].data();
  std::int64_t* item_c = cols_[idx(Field::Item)].data();
  std::int64_t* func_c = cols_[idx(Field::Func)].data();
  std::int64_t* dur_c = cols_[idx(Field::Dur)].data();

  const std::map<std::uint32_t, CoreWindows> win_by_core =
      opts.use_register_ids ? std::map<std::uint32_t, CoreWindows>{}
                            : windows_by_core(markers);
  const std::size_t n_funcs = symtab.size();

  // {item, func} buckets, one CoreSpan per core that sampled the bucket
  // (usually one). Mirrors TraceTable's layout so dur sums per-core
  // spans exactly like TraceTable::elapsed.
  struct CoreSpan {
    std::uint32_t core;
    Tsc first;
    Tsc last;
    std::uint64_t samples;
  };
  struct Bucket {
    std::int64_t elapsed = 0;
    std::vector<CoreSpan> spans;
  };
  struct PairHash {
    std::size_t operator()(
        const std::pair<std::uint64_t, std::uint64_t>& p) const {
      return std::hash<std::uint64_t>{}(p.first * 0x9e3779b97f4a7c15ull ^
                                        p.second);
    }
  };
  std::vector<Bucket> buckets;
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t,
                     PairHash>
      bucket_ids;
  std::vector<std::int32_t> row_bucket(n, -1);

  std::unordered_map<std::uint32_t, CoreState> cores;
  CoreState* cs = nullptr;
  std::uint32_t cs_core = 0;
  // One-entry ip -> func cache: PEBS ips repeat heavily (hot loops), and
  // symtab.resolve is a binary search per miss.
  std::uint64_t cached_ip = ~std::uint64_t{0};
  std::int64_t cached_fn = -1;
  bool cache_valid = false;

  for (std::size_t i = 0; i < n; ++i) {
    const auto core = static_cast<std::uint32_t>(core_c[i]);
    if (cs == nullptr || core != cs_core) {
      CoreState& state = cores[core];
      if (state.fn_bucket.empty() && n_funcs > 0) {
        state.fn_bucket.assign(n_funcs, -1);
        state.fn_span.assign(n_funcs, -1);
      }
      if (!opts.use_register_ids && state.windows == nullptr) {
        const auto wit = win_by_core.find(core);
        if (wit != win_by_core.end()) state.windows = &wit->second;
      }
      cs = &state;
      cs_core = core;
    }
    const Tsc tsc = static_cast<Tsc>(ts[i]);

    std::int64_t item;
    if (opts.use_register_ids) {
      item = item_c[i]; // pre-filled from the sampled register
    } else {
      item = static_cast<std::int64_t>(locate(*cs, tsc));
      item_c[i] = item;
    }

    const auto uip = static_cast<std::uint64_t>(ip[i]);
    std::int64_t fn;
    if (cache_valid && uip == cached_ip) {
      fn = cached_fn;
    } else {
      const auto r = symtab.resolve(uip);
      fn = r.has_value() ? static_cast<std::int64_t>(*r) : -1;
      cached_ip = uip;
      cached_fn = fn;
      cache_valid = true;
    }
    func_c[i] = fn;

    if (item != -1 && fn >= 0) {
      if (item != cs->run_item) {
        for (const std::uint32_t f : cs->touched) cs->fn_bucket[f] = -1;
        cs->touched.clear();
        cs->run_item = item;
      }
      const auto fi = static_cast<std::size_t>(fn);
      std::int32_t b = cs->fn_bucket[fi];
      if (b < 0) {
        const auto [it, inserted] = bucket_ids.try_emplace(
            {static_cast<std::uint64_t>(item), static_cast<std::uint64_t>(fn)},
            static_cast<std::uint32_t>(buckets.size()));
        if (inserted) buckets.emplace_back();
        b = static_cast<std::int32_t>(it->second);
        Bucket& bk = buckets[static_cast<std::size_t>(b)];
        std::int32_t si = -1;
        for (std::size_t k = 0; k < bk.spans.size(); ++k) {
          if (bk.spans[k].core == core) {
            si = static_cast<std::int32_t>(k);
            break;
          }
        }
        if (si < 0) {
          si = static_cast<std::int32_t>(bk.spans.size());
          bk.spans.push_back(CoreSpan{core, tsc, tsc, 0});
        }
        cs->fn_bucket[fi] = b;
        cs->fn_span[fi] = si;
        cs->touched.push_back(static_cast<std::uint32_t>(fi));
      }
      CoreSpan& sp = buckets[static_cast<std::size_t>(b)]
                         .spans[static_cast<std::size_t>(cs->fn_span[fi])];
      if (tsc < sp.first) sp.first = tsc;
      if (tsc > sp.last) sp.last = tsc;
      ++sp.samples;
      row_bucket[i] = b;
    }
  }

  // Per-bucket elapsed (>=2 samples per core, summed over cores), then
  // one gather broadcasts it onto the rows.
  for (Bucket& bk : buckets) {
    std::uint64_t total = 0;
    for (const CoreSpan& sp : bk.spans) {
      if (sp.samples >= 2) total += sp.last - sp.first;
    }
    bk.elapsed = static_cast<std::int64_t>(total);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (row_bucket[i] >= 0) {
      dur_c[i] = buckets[static_cast<std::size_t>(row_bucket[i])].elapsed;
    }
  }
}

void ColumnarTrace::build_zones() {
  zones_.clear();
  if (n_rows_ == 0 || zone_rows_ == 0) return;
  const std::size_t nz = (n_rows_ + zone_rows_ - 1) / zone_rows_;
  zones_.resize(nz);
  for (std::size_t z = 0; z < nz; ++z) {
    const std::size_t b = z * zone_rows_;
    const std::size_t e = std::min(b + zone_rows_, n_rows_);
    ZoneMap& zm = zones_[z];
    for (std::size_t f = 0; f < kNumFields; ++f) {
      const std::int64_t* c = cols_[f].data();
      std::int64_t mn = c[b];
      std::int64_t mx = c[b];
      for (std::size_t i = b + 1; i < e; ++i) {
        mn = std::min(mn, c[i]);
        mx = std::max(mx, c[i]);
      }
      zm.min[f] = mn;
      zm.max[f] = mx;
    }
  }
}

ColumnarTrace ColumnarTrace::build(const io::TraceData& data,
                                   const SymbolTable& symtab,
                                   const BuildOptions& opts) {
  OBS_SPAN("query.columnar_build");
  ColumnarTrace t;
  t.zone_rows_ = opts.zone_rows != 0 ? opts.zone_rows : 65536;
  const std::size_t n = data.samples.size();
  t.n_rows_ = n;
  for (auto& c : t.cols_) c.resize(n);

  std::int64_t* ts = t.cols_[idx(Field::Ts)].data();
  std::int64_t* ip = t.cols_[idx(Field::Ip)].data();
  std::int64_t* core_c = t.cols_[idx(Field::Core)].data();
  std::int64_t* item_c = t.cols_[idx(Field::Item)].data();
  for (std::size_t i = 0; i < n; ++i) {
    const PebsSample& s = data.samples[i];
    ts[i] = static_cast<std::int64_t>(s.tsc);
    ip[i] = static_cast<std::int64_t>(s.ip);
    core_c[i] = static_cast<std::int64_t>(s.core);
    if (opts.use_register_ids) {
      item_c[i] = static_cast<std::int64_t>(s.regs.get(kItemIdReg));
    }
  }
  t.attribute(data.markers, symtab, opts);
  t.build_zones();
  return t;
}

ColumnarTrace ColumnarTrace::from_reader(const io::TraceReader& reader,
                                         const SymbolTable& symtab,
                                         const BuildOptions& opts,
                                         unsigned n_threads) {
  if (io::is_chunked_format(reader.format())) {
    // Column-direct decode for the common case: a clean chunked image
    // (raw v2 or compressed v3 sample chunks — one chunk family). Any
    // structural or payload damage drops to the generic read-or-salvage
    // path below, which reproduces the old behaviour (and diagnostics)
    // exactly.
    try {
      OBS_SPAN("query.columnar_build");
      const std::string_view bytes = reader.bytes();
      const std::vector<io::V2ChunkRef> refs = io::index_trace_v2(bytes);
      ColumnarTrace t;
      t.zone_rows_ = opts.zone_rows != 0 ? opts.zone_rows : 65536;
      // Split the walk: markers decode inline (they feed attribution),
      // sample chunks get a prefix-summed row offset each so their
      // decodes can run concurrently into disjoint column slices.
      // Wait-edge chunks are skipped outright — attribution never reads
      // them, and inflating them here was pure waste.
      struct SampleChunk {
        const io::V2ChunkRef* ref;
        std::size_t row0;
      };
      std::vector<SampleChunk> schunks;
      std::size_t total_rows = 0;
      io::TraceData marker_data;
      for (const io::V2ChunkRef& ref : refs) {
        if (io::is_sample_chunk_type(ref.type)) {
          schunks.push_back({&ref, total_rows});
          total_rows += ref.n_records;
        } else if (io::is_marker_chunk_type(ref.type)) {
          io::decode_trace_v2_chunk(bytes, ref, marker_data);
        }
      }
      t.n_rows_ = total_rows;
      for (auto& c : t.cols_) c.resize(total_rows);
      const bool want_reg = opts.use_register_ids;
      const auto slice_for = [&](const SampleChunk& sc) {
        io::SampleColumnSlice s;
        s.tsc = t.cols_[idx(Field::Ts)].data() + sc.row0;
        s.ip = t.cols_[idx(Field::Ip)].data() + sc.row0;
        s.core = t.cols_[idx(Field::Core)].data() + sc.row0;
        if (want_reg) {
          s.reg = t.cols_[idx(Field::Item)].data() + sc.row0;
          s.reg_index = static_cast<unsigned>(kItemIdReg);
        }
        return s;
      };
      const auto decode_one = [&](const SampleChunk& sc) {
        const io::SampleColumnSlice s = slice_for(sc);
        if (sc.ref->type == io::kChunkTypeSamples) {
          io::decode_trace_v2_samples_slice(bytes, *sc.ref, s);
        } else {
          io::decode_v3_samples_into(bytes, *sc.ref, s);
        }
      };
      const unsigned n =
          n_threads != 0 ? n_threads
                         : std::max(1u, std::thread::hardware_concurrency());
      if (n <= 1 || schunks.size() <= 1) {
        for (const SampleChunk& sc : schunks) decode_one(sc);
      } else {
        // parallel_for rethrows a worker's TraceIoError once every chunk
        // is done; the catch below then takes the read-or-salvage path.
        rt::ThreadPool pool(std::min<std::size_t>(n, schunks.size()));
        pool.parallel_for(schunks.size(),
                          [&](std::size_t k) { decode_one(schunks[k]); });
      }
      t.attribute(marker_data.markers, symtab, opts);
      t.build_zones();
      return t;
    } catch (const io::TraceIoError&) {
      // fall through
    }
  }
  const io::TraceReader::ReadResult rr = reader.read_or_salvage(n_threads);
  ColumnarTrace t = build(rr.data, symtab, opts);
  t.salvaged_ = rr.salvaged;
  return t;
}

ColumnarTrace ColumnarTrace::open(const std::string& path,
                                  const SymbolTable& symtab,
                                  const BuildOptions& opts,
                                  unsigned n_threads) {
  return from_reader(io::open_trace(path), symtab, opts, n_threads);
}

} // namespace fluxtrace::query
