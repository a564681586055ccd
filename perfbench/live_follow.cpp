// live_follow: a capture stream fed in timestamp order through
// io::ResilientWriter (Block policy, fsync per chunk) while, in the same
// thread, io::TraceFollower tails the spool and feeds two
// query::StreamingQuery instances (a group-by and the outliers stage).
//
// Round = one whole pass over the stream into a fresh spool.
//
// The stream is held in the generator's compact form (24 bytes a
// sample) and turned into PebsSamples one hand-off at a time, so the
// benchmark's own input adds ~30 MiB, not ~150 MiB, to peak_rss_mib.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "fluxtrace/io/follower.hpp"
#include "fluxtrace/io/resilient.hpp"
#include "fluxtrace/query/stream.hpp"
#include "fluxtrace/sim/pebs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fx = fluxtrace;

namespace {

constexpr std::size_t kSamples = 1'000'000;
constexpr std::size_t kInjections = 8;
/// Samples handed to the writer between two follower polls: one drain
/// of a PEBS buffer (sim::PebsConfig's default capacity, 512 records).
/// Each core fills its own buffer, and the samples are spread evenly
/// over the cores, so the machine as a whole drains one buffer about
/// every 512 samples of the merged stream. Markers and wait edges
/// recorded meanwhile go with the drain.
constexpr std::size_t kDrainSamples = fx::sim::PebsConfig{}.buffer_capacity;

enum class Kind : std::uint8_t { Marker, Sample, Wait };

/// `n` consecutive records of one kind in the merged stream.
struct Piece {
  Kind kind;
  std::uint32_t n;
};

/// The three streams merged by time (a wait edge is recorded when it
/// closes), as pieces of one kind each; within a kind the records come
/// in their stream's order.
std::vector<Piece> merge_by_time(const Capture& d) {
  std::vector<Piece> out;
  std::size_t m = 0, s = 0, w = 0;
  const auto t = [&](Kind k) -> Tsc {
    switch (k) {
      case Kind::Marker:
        return m < d.markers.size() ? d.markers[m].tsc : ~Tsc{0};
      case Kind::Sample:
        return s < d.samples.size() ? d.samples[s].tsc : ~Tsc{0};
      case Kind::Wait:
        return w < d.wait_edges.size() ? d.wait_edges[w].leave : ~Tsc{0};
    }
    return ~Tsc{0};
  };
  while (m < d.markers.size() || s < d.samples.size() ||
         w < d.wait_edges.size()) {
    Kind k = Kind::Marker;
    if (t(Kind::Sample) < t(k)) k = Kind::Sample;
    if (t(Kind::Wait) < t(k)) k = Kind::Wait;
    ++(k == Kind::Marker ? m : k == Kind::Sample ? s : w);
    if (out.empty() || out.back().kind != k) out.push_back({k, 0});
    ++out.back().n;
  }
  return out;
}

std::uint64_t clock_ns() { return static_cast<std::uint64_t>(now_ns()); }

} // namespace

void run_live_follow(Bench& b) {
  Tracer& tr = b.tracer();
  const fx::SymbolTable symtab = make_symtab();

  const Capture cap = generate(GenSpec{b.args().seed, b.args().seed,
                                       kSamples, 0, 1'000'000, kInjections});
  const std::vector<Piece> feed = merge_by_time(cap);
  b.setup_done();

  const Reference ref = reference_of(cap);
  const Capture& d = cap;
  std::vector<fx::PebsSample> drain(kDrainSamples);
  const std::uint64_t records =
      d.markers.size() + d.samples.size() + d.wait_edges.size();
  std::unordered_map<ItemId, std::int64_t> handed_off;
  handed_off.reserve(cap.items.size());
  std::vector<double> lags;
  lags.reserve(cap.items.size());
  int spool_no = 0;

  const auto round = [&](bool traced) {
    Figures fig;
    const std::string spool =
        b.args().work_dir + "/spool-" + std::to_string(spool_no++) + ".flxt";
    handed_off.clear();
    lags.clear();

    fx::io::ResilientWriterConfig wc;
    wc.overflow = fx::io::OverflowPolicy::Block;
    wc.sync_each_chunk = true;
    fx::io::ResilientWriter writer(
        wc, std::make_unique<fx::io::FileSpoolSink>(spool));
    fx::io::TraceFollowerConfig fc;
    fc.producer_alive = [] { return true; };
    fx::io::TraceFollower follower = fx::io::TraceFollower::open(spool, fc);
    // As flxt_query --follow: keep samples pending long enough (in trace
    // time) for a marker chunk that lags the sample chunks to arrive.
    fx::query::StreamOptions so;
    so.attribution_slack = 50'000'000;
    fx::query::StreamingQuery group(
        fx::query::parse_query("group func: count, sum(dur)", &symtab), symtab,
        so);
    fx::query::StreamingQuery outliers(
        fx::query::parse_query("outliers", &symtab), symtab, so);

    std::uint64_t rows_windowed = 0, polls = 0, productive = 0;
    std::set<std::pair<ItemId, SymbolId>> alerted;
    const auto take = [&](const std::vector<fx::query::WindowResult>& ws,
                          bool timed) {
      const std::int64_t now = now_ns();
      for (const fx::query::WindowResult& w : ws) {
        rows_windowed += w.rows;
        const auto it = handed_off.find(w.item);
        if (timed && it != handed_off.end()) {
          lags.push_back(static_cast<double>(now - it->second) / 1e6);
        }
      }
    };
    const auto take_alerts =
        [&](const std::vector<fx::query::WindowResult>& ws) {
      for (const fx::query::WindowResult& w : ws) {
        for (const fx::query::StreamAlert& a : w.alerts) {
          alerted.insert({a.item, a.func});
        }
      }
    };
    const auto stream = [&](const fx::io::TraceFollower::PollResult& pr) {
      ++polls;
      if (pr.chunks > 0) ++productive;
      if (pr.data.markers.empty() && pr.data.samples.empty() &&
          pr.data.wait_edges.empty()) {
        return;
      }
      Tracer::Scope s(tr, "query.stream");
      take(group.ingest(pr.data), true);
      take_alerts(outliers.ingest(pr.data));
    };
    const auto poll = [&] {
      fx::io::TraceFollower::PollResult pr;
      {
        Tracer::Scope s(tr, "io.follower");
        pr = follower.poll(clock_ns());
      }
      stream(pr);
    };

    const std::int64_t t0 = now_ns();
    b.op([&] {
      // Next record of each kind, and samples in the current drain.
      std::size_t next[3] = {0, 0, 0};
      std::size_t drained = 0;
      const auto end_drain = [&] {
        {
          Tracer::Scope s(tr, "io.writer");
          writer.pump(clock_ns());
        }
        poll();
        drained = 0;
      };
      for (const Piece& p : feed) {
        std::size_t& i = next[static_cast<int>(p.kind)];
        for (std::size_t left = p.n; left > 0;) {
          const std::size_t n =
              p.kind == Kind::Sample ? std::min(left, kDrainSamples - drained)
                                     : left;
          if (p.kind == Kind::Sample) to_pebs(&d.samples[i], n, drain.data());
          {
            Tracer::Scope s(tr, "io.writer");
            switch (p.kind) {
              case Kind::Marker: {
                const fx::Marker* m = &d.markers[i];
                const std::int64_t now = now_ns();
                for (std::size_t k = 0; k < n; ++k) {
                  if (m[k].kind == fx::MarkerKind::Leave) {
                    handed_off[m[k].item] = now;
                  }
                }
                writer.add_markers(m, n, static_cast<std::uint64_t>(now));
                break;
              }
              case Kind::Sample:
                writer.add_samples(drain.data(), n, clock_ns());
                break;
              case Kind::Wait:
                writer.add_wait_edges(&d.wait_edges[i], n, clock_ns());
                break;
            }
          }
          i += n;
          left -= n;
          if (p.kind == Kind::Sample && (drained += n) == kDrainSamples) {
            end_drain();
          }
        }
      }
      end_drain();
      {
        Tracer::Scope s(tr, "io.writer");
        if (!writer.close(clock_ns())) {
          throw std::runtime_error("spool did not close clean");
        }
      }
      while (!follower.finished()) poll();
      Tracer::Scope s(tr, "query.stream");
      take(group.flush(), false);
      take_alerts(outliers.flush());
    });
    const double round_ms = ms_since(t0);

    const auto& ws = writer.stats();
    const auto& fs = follower.stats();
    const auto& gs = group.stats();
    const std::uint64_t spool_bytes = file_size(spool);
    std::remove(spool.c_str());

    fig["round_ms"] = round_ms;
    fig["live_rows_per_s"] =
        static_cast<double>(d.samples.size()) / (round_ms / 1e3);
    fig["window_lag_ms"] = median(lags);
    fig["first_answer_ms"] = fig["window_lag_ms"];
    fig["spool_bytes_per_sample"] =
        static_cast<double>(spool_bytes) /
        static_cast<double>(d.samples.size());
    fig["bytes_per_sample"] = fig["spool_bytes_per_sample"];

    b.check(ws.closed_clean && ws.reconciled() &&
                ws.records_committed == records,
            "writer committed every record fed");
    b.check(follower.finish_reason() == fx::io::FollowFinish::CleanEof &&
                fs.reconciled() && fs.records_samples == d.samples.size() &&
                fs.records_markers == d.markers.size() &&
                fs.records_wait_edges == d.wait_edges.size(),
            "follower delivered every committed record");
    b.check(gs.samples == d.samples.size() &&
                rows_windowed + gs.rows_unattributed == d.samples.size(),
            "stream accounted every sample fed");
    b.check(gs.windows_closed == ref.windows &&
                outliers.stats().windows_closed == ref.windows,
            "windows closed == items generated");
    // The stream pass is one operation of its own. It fails, on every
    // seed, when samples still in the writer's partial sample chunk
    // reach the stream after the marker chunk that sealed their window
    // (see README.md, "Known faults"). Its answers must equal the
    // reference when it attributes every sample; with that loss they
    // must still be what losing samples can make of the reference.
    const bool attributed = gs.rows_unattributed == 0;
    b.count_op(attributed,
               "stream left " + std::to_string(gs.rows_unattributed) +
                   " of " + std::to_string(d.samples.size()) +
                   " samples unattributed");
    const auto snap = group_rows(group.snapshot(), symtab);
    if (attributed) {
      b.check(snap == ref.per_func, "stream snapshot == reference group-by");
      b.check(alerted == ref.injected &&
                  outliers.stats().alerts == alerted.size(),
              "stream alerts name exactly the injected fluctuations");
    } else {
      // A lost sample removes a row and can only shorten its bucket's
      // elapsed estimate; the injected runs are far out even so.
      std::uint64_t snap_rows = 0;
      bool within = snap.size() == ref.per_func.size();
      for (const auto& [f, a] : snap) {
        snap_rows += a.count;
        const auto it = ref.per_func.find(f);
        within = within && it != ref.per_func.end() &&
                 a.count <= it->second.count &&
                 a.sum_dur <= it->second.sum_dur;
      }
      b.check(within && snap_rows == rows_windowed,
              "stream snapshot == attributed rows, each function at most "
              "the reference count and sum(dur)");
      b.check(std::includes(alerted.begin(), alerted.end(),
                            ref.injected.begin(), ref.injected.end()),
              "stream alerts include every injected fluctuation");
    }

    if (traced) {
      const double n_rec = static_cast<double>(records);
      fig["io.writer_ns_per_record"] = tr.total_ms("io.writer") * 1e6 / n_rec;
      fig["io.follower_ns_per_record"] =
          tr.total_ms("io.follower") * 1e6 / n_rec;
      fig["query.stream_ns_per_row"] =
          tr.total_ms("query.stream") * 1e6 /
          static_cast<double>(d.samples.size());
    }
    fig["io.writer_chunks_committed"] =
        static_cast<double>(ws.chunks_committed);
    fig["io.follower_productive_poll_ratio"] =
        polls == 0 ? 0
                   : static_cast<double>(productive) /
                         static_cast<double>(polls);
    fig["query.stream_windows_closed"] = static_cast<double>(gs.windows_closed);
    fig["query.stream_alerts"] = static_cast<double>(outliers.stats().alerts);
    fig["io.spool_bytes"] = static_cast<double>(spool_bytes);
    return fig;
  };

  b.run(round);
}

} // namespace perfbench
