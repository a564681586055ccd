// postmortem: one large FLXT v2 capture diagnosed offline at 2 threads.
//
// Round = the `flxt_report --diagnose` path, cold query, warm mix, and
// reopen + selective query, each on a fresh engine or reader. Diagnosis
// comes first so it starts from the heap the round loop trimmed: the
// warm mix's row-mode top-k leaves the heap fragmented in a way that
// depends on the data, and a diagnosis after it would make the run's
// peak memory depend on the seed.
#include <cstdio>
#include <optional>

#include "fluxtrace/core/diagnosis.hpp"
#include "fluxtrace/core/parallel_integrator.hpp"
#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/query/columnar.hpp"
#include "fluxtrace/query/flxi.hpp"
#include "fluxtrace/query/waitgraph.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fx = fluxtrace;
using fx::query::QueryEngine;
using fx::query::QueryResult;

namespace {

constexpr unsigned kThreads = 2;
constexpr std::size_t kSamples = 1'000'000;
constexpr std::size_t kInjections = 8;

constexpr const char* kGroup = "group func: count, sum(dur)";
constexpr const char* kGroupPct =
    "group func: count, sum(dur), p50(dur), p99(dur)";
constexpr const char* kOutliers = "outliers";
constexpr const char* kTopK = "select item, func, dur | top 20 by dur";
constexpr const char* kCriticalPath = "critical_path";

std::string selective(ItemId item) {
  return "filter item == " + std::to_string(item) + " | " + kGroup;
}

} // namespace

void run_postmortem(Bench& b) {
  Tracer& tr = b.tracer();
  const fx::SymbolTable symtab = make_symtab();
  const std::string path = b.args().work_dir + "/capture.flxt";

  Capture cap = generate(GenSpec{b.args().seed, b.args().seed, kSamples, 0,
                                 1'000'000, kInjections});
  fx::io::save_trace_v2(path, cap.trace_data());
  b.setup_done();

  const Reference ref = reference_of(cap);
  const std::vector<ItemId> items = std::move(cap.items);
  const double bytes_per_sample =
      static_cast<double>(file_size(path)) / static_cast<double>(ref.samples);
  cap = Capture{};

  const auto p50 = reference_percentile(ref, 50);
  const auto p99 = reference_percentile(ref, 99);
  std::int64_t max_dur = 0;
  for (const auto& key : ref.injected) {
    max_dur = std::max(max_dur, ref.buckets.at(key).dur);
  }

  fx::query::EngineOptions eo;
  eo.threads = kThreads;
  Rng pick(b.args().seed ^ 0x5e1ec71e);

  const auto round = [&](bool traced) {
    Figures fig;
    const ItemId item = items[pick.below(items.size())];
    const std::string sel = selective(item);
    std::remove(fx::query::flxi_path(path).c_str());

    // flxt_report --diagnose: strict-or-salvage read, integrate, diagnose,
    // wait diagnosis.
    fx::io::TraceReader::ReadResult rr;
    fx::core::TraceTable table;
    fx::core::DiagnosisReport rep;
    QueryResult waits;
    std::int64_t t0 = now_ns();
    b.op([&] {
      {
        Tracer::Scope s(tr, "io.read_parallel");
        rr = fx::io::open_trace(path).read_or_salvage(kThreads);
      }
      {
        Tracer::Scope s(tr, "core.integrate");
        const fx::core::ParallelIntegrator integ(symtab, {}, kThreads);
        table = integ.integrate(rr.data.markers, rr.data.samples);
      }
      {
        Tracer::Scope s(tr, "core.diagnose");
        rep = fx::core::diagnose(table, fx::CpuSpec{});
      }
      Tracer::Scope s(tr, "query.wait_graph");
      fx::query::WaitGraph g;
      for (const fx::WaitEdge& e : rr.data.wait_edges) g.observe(e);
      waits = fx::query::finish_critical_path(std::move(g));
    });
    fig["diagnose_ms"] = ms_since(t0);
    const bool salvaged = rr.salvaged;
    rr = {};
    table = {};

    // Cold: open without a sidecar, first full group-by.
    std::optional<QueryEngine> eng;
    QueryResult cold;
    t0 = now_ns();
    b.op([&] {
      Tracer::Scope s(tr, "query.engine_open");
      eng.emplace(QueryEngine::open(path, symtab, eo));
    });
    if (eng) {
      b.op([&] {
        Tracer::Scope s(tr, "query.group_cold");
        cold = eng->run(kGroup);
      });
    }
    fig["cold_query_ms"] = ms_since(t0);

    // Warm mix on the same engine.
    QueryResult grp, out, top, sel_full, cp;
    const std::int64_t faults0 = minor_faults();
    t0 = now_ns();
    if (eng) {
      b.op([&] {
        Tracer::Scope s(tr, "query.group");
        grp = eng->run(kGroupPct);
      });
      b.op([&] {
        Tracer::Scope s(tr, "query.outliers");
        out = eng->run(kOutliers);
      });
      b.op([&] {
        Tracer::Scope s(tr, "query.topk");
        top = eng->run(kTopK);
      });
      b.op([&] {
        Tracer::Scope s(tr, "query.selective");
        sel_full = eng->run(sel);
      });
      b.op([&] {
        Tracer::Scope s(tr, "query.critical_path");
        cp = eng->run(kCriticalPath);
      });
    }
    fig["warm_mix_ms"] = ms_since(t0);
    fig["query.warm_minor_faults"] =
        static_cast<double>(minor_faults() - faults0);
    eng.reset();

    // Reopen with the sidecar the cold scan wrote, selective query.
    QueryResult pruned;
    t0 = now_ns();
    b.op([&] {
      std::optional<QueryEngine> again;
      {
        Tracer::Scope s(tr, "query.engine_open");
        again.emplace(QueryEngine::open(path, symtab, eo));
      }
      Tracer::Scope s(tr, "query.selective_pruned");
      pruned = again->run(sel);
    });
    fig["reopen_query_ms"] = ms_since(t0);

    fig["round_ms"] = fig["cold_query_ms"] + fig["warm_mix_ms"] +
                      fig["reopen_query_ms"] + fig["diagnose_ms"];
    fig["first_answer_ms"] = fig["cold_query_ms"];
    fig["bytes_per_sample"] = bytes_per_sample;

    // Answers against the reference.
    b.check(group_matches(cold, ref.per_func, symtab), "cold group-by");
    b.check(group_matches(grp, ref.per_func, symtab), "warm group-by");
    bool pct_ok = grp.columns.size() == 5;
    for (const auto& row : grp.rows) {
      const SymbolId f = symtab.find(row[0].s).value_or(fx::kInvalidSymbol);
      pct_ok = pct_ok && p50.count(f) && row[3].i == p50.at(f) &&
               row[4].i == p99.at(f);
    }
    b.check(pct_ok, "warm group-by percentiles");
    b.check(outliers_match(out, ref.injected, symtab), "outliers");
    bool top_ok = top.rows.size() == 20 && top.rows[0][2].i == max_dur;
    for (const auto& row : top.rows) {
      const SymbolId f = symtab.find(row[1].s).value_or(fx::kInvalidSymbol);
      top_ok = top_ok && ref.injected.count({static_cast<ItemId>(row[0].i), f});
    }
    b.check(top_ok, "top-k rows come from injected fluctuations");
    b.check(group_matches(sel_full, ref.per_func_of(item), symtab),
            "selective group-by");
    b.check(critical_path_matches(cp, ref.blocked), "critical_path");
    b.check(pruned.columns == sel_full.columns && pruned.rows == sel_full.rows,
            "pruned selective == full scan restricted to the item");
    b.check(pruned.stats.index_used && pruned.stats.chunks_pruned > 0,
            "reopen used the sidecar to prune");
    b.check(!salvaged, "strict read of the capture");
    std::set<std::pair<ItemId, SymbolId>> flagged;
    for (const auto& o : rep.outliers) flagged.insert({o.item, o.dominant_fn});
    b.check(flagged.size() == rep.outliers.size() && flagged == ref.injected,
            "diagnose flags exactly the injected items and functions");
    b.check(critical_path_matches(waits, ref.blocked), "wait diagnosis");

    fig["query.selective_chunks_read"] =
        static_cast<double>(pruned.stats.chunks_read);
    fig["query.selective_chunks_pruned"] =
        static_cast<double>(pruned.stats.chunks_pruned);
    fig["query.selective_blocks_skipped"] =
        static_cast<double>(sel_full.stats.blocks_skipped);
    fig["query.selective_match_ratio"] =
        pruned.stats.rows_scanned == 0
            ? 0
            : static_cast<double>(pruned.stats.rows_matched) /
                  static_cast<double>(pruned.stats.rows_scanned);

    if (traced) {
      fig["query.engine_open_ms"] = tr.total_ms("query.engine_open") / 2;
      for (const char* q : {"group", "outliers", "topk", "selective",
                            "critical_path"}) {
        fig[std::string("query.") + q + "_ms"] =
            tr.total_ms(std::string("query.") + q);
      }
      fig["io.read_parallel_ms"] = tr.total_ms("io.read_parallel");
      fig["core.integrate_ms"] = tr.total_ms("core.integrate");
      fig["core.diagnose_ms"] = tr.total_ms("core.diagnose");

      // Probe: the columnar build alone, which the cold query does
      // inside QueryEngine.
      const Tracer::Probe probe(tr);
      const std::int64_t f0 = minor_faults();
      b.op([&] {
        const fx::io::TraceReader reader = fx::io::open_trace(path);
        Tracer::Scope s(tr, "query.columnar_build");
        (void)fx::query::ColumnarTrace::from_reader(reader, symtab, {},
                                                    kThreads);
      });
      fig["query.columnar_build_minor_faults"] =
          static_cast<double>(minor_faults() - f0);
      fig["query.columnar_build_ms"] = tr.total_ms("query.columnar_build");
    }
    return fig;
  };

  b.run(round);
}

} // namespace perfbench
