#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

// The metrics each mode prints, by name. run.py checks them against
// BENCHMARK.json and adds the units from there.
constexpr const char* kEndToEnd[] = {
    "setup_s",
    "peak_rss_mib",
    "round_ms",
    "first_answer_ms",
    "bytes_per_sample",
};

constexpr const char* kPerLayer[] = {
    "query.engine_open_ms",
    "query.columnar_build_ms",
    "query.columnar_build_minor_faults",
    "query.group_ms",
    "query.outliers_ms",
    "query.topk_ms",
    "query.selective_ms",
    "query.critical_path_ms",
    "query.warm_minor_faults",
    "query.selective_chunks_read",
    "query.selective_chunks_pruned",
    "query.selective_blocks_skipped",
    "query.selective_match_ratio",
    "io.read_parallel_ms",
    "core.integrate_ms",
    "core.diagnose_ms",
    "io.writer_ns_per_record",
    "io.writer_chunks_committed",
    "io.follower_ns_per_record",
    "io.follower_productive_poll_ratio",
    "query.stream_ns_per_row",
    "query.stream_windows_closed",
    "query.stream_alerts",
    "io.spool_bytes",
    "hub.catalog_open_ms",
    "hub.ingest_ms",
    "io.triage_v2_ms",
    "io.triage_v3_ms",
    "io.v2_build_ms",
    "codec.v3_build_ms",
    "io.v2_bytes_per_sample",
    "codec.v3_bytes_per_sample",
    "query.federated_group_fanout1_ms",
    "query.federated_group_fanout2_ms",
    "query.federated_outliers_ms",
    "query.federated_selective_ms",
    "io.self_ms",
    "query.self_ms",
    "hub.self_ms",
    "core.self_ms",
    "trace.overhead_pct",
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

void Bench::setup_done() {
  setup_s_ = static_cast<double>(now_ns() - start_ns_) / 1e9;
  setup_peak_rss_mib_ = peak_rss_mib();
}

bool Bench::op(const std::function<void()>& fn) {
  ++attempted_;
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    ++failed_;
    std::fprintf(stderr, "operation failed: %s\n", e.what());
    return false;
  }
}

void Bench::count_op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (failed_ == 0) {
    std::fprintf(stderr, "operation failed: %s\n", what.c_str());
  }
  ++failed_;
}

void Bench::check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct_) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  correct_ = false;
}

void Bench::run(const std::function<Figures(bool traced)>& round) {
  std::vector<Figures> plain, traced;
  tracer_.set_enabled(false);
  tracer_.set_round(-1);
  malloc_trim(0);
  (void)round(false); // warm-up, discarded
  // Peak memory of set-up plus one whole round. Later rounds only add
  // allocator fragmentation left by earlier ones, which differs from
  // run to run.
  peak_rss_mib_ = peak_rss_mib();

  const std::int64_t start = now_ns();
  for (std::int32_t r = 0;; ++r) {
    const bool on = args_.trace && r % 2 == 1;
    tracer_.set_enabled(on);
    tracer_.set_round(r);
    // Hand the previous round's freed heap back to the kernel, so every
    // round starts from the memory state a fresh process would have.
    malloc_trim(0);
    Figures f = round(on);
    std::fprintf(stderr, "round %d%s: %.3f ms\n", r, on ? " (traced)" : "",
                 f["round_ms"]);
    if (on) {
      for (const auto& [layer, ms] : tracer_.self_ms_by_layer(r)) {
        f[layer + ".self_ms"] = ms;
      }
      traced.push_back(std::move(f));
    } else {
      plain.push_back(std::move(f));
    }
    const bool enough = plain.size() >= kMinRounds &&
                        (!args_.trace || traced.size() >= kMinRounds);
    if (enough &&
        static_cast<double>(now_ns() - start) / 1e9 >= args_.seconds) {
      break;
    }
  }
  tracer_.set_enabled(false);
  finish(plain, traced);
}

void Bench::finish(const std::vector<Figures>& plain,
                   const std::vector<Figures>& traced) {
  // The workload's own figures, by the names its phases have.
  std::set<std::string> names;
  for (const Figures& f : plain) {
    for (const auto& [k, v] : f) names.insert(k);
  }
  std::string line = "{\"workload\": \"" + args_.workload +
                     "\", \"seed\": " + std::to_string(args_.seed) +
                     ", \"rounds\": " + std::to_string(plain.size()) +
                     ", \"traced_rounds\": " + std::to_string(traced.size()) +
                     ", \"figures\": {\"setup_peak_rss_mib\": " +
                     json_number(setup_peak_rss_mib_);
  bool first = false;
  for (const std::string& n : names) {
    line += (first ? "\"" : ", \"") + n + "\": " +
            json_number(median_of(plain, n));
    first = false;
  }
  std::printf("%s}}\n", line.c_str());

  std::map<std::string, double> e2e = {{"setup_s", setup_s_},
                                       {"peak_rss_mib", peak_rss_mib_}};
  for (const char* n : {"round_ms", "first_answer_ms", "bytes_per_sample"}) {
    e2e[n] = median_of(plain, n);
  }

  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  first = true;
  const auto emit = [&](const char* name, double v) {
    out += std::string(first ? "\"" : ", \"") + name + "\": " + json_number(v);
    first = false;
  };
  if (!args_.trace) {
    for (const char* name : kEndToEnd) emit(name, e2e[name]);
  } else {
    const double gap = (median_of(traced, "round_ms") /
                            median_of(plain, "round_ms") -
                        1.0) *
                       100.0;
    std::printf("traced round %.3f ms, untraced %.3f ms: tracing adds "
                "%.2f%%\n",
                median_of(traced, "round_ms"), median_of(plain, "round_ms"),
                gap);
    std::printf("self time per layer, median over traced rounds:");
    for (const char* layer : {"io", "query", "hub", "core"}) {
      std::printf(" %s %.3f ms", layer,
                  median_of(traced, std::string(layer) + ".self_ms"));
    }
    std::printf("\n");
    for (const char* name : kPerLayer) {
      emit(name, std::string(name) == "trace.overhead_pct"
                     ? gap
                     : median_of(traced, name));
    }
    tracer_.write_json(args_.work_dir + "/../spans-" + args_.workload +
                       ".jsonl");
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    os << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns - t0
       << ", \"end_ns\": " << s.end_ns - t0 << ", \"parent\": " << s.parent
       << ", \"round\": " << s.round << "}\n";
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double median_of(const std::vector<Figures>& rounds, const std::string& name) {
  std::vector<double> v;
  for (const Figures& f : rounds) {
    const auto it = f.find(name);
    if (it != f.end()) v.push_back(it->second);
  }
  return median(std::move(v));
}

namespace {

SymbolId func_id(const fluxtrace::query::Cell& c,
                 const fluxtrace::SymbolTable& symtab) {
  if (c.kind != fluxtrace::query::Cell::Kind::Text) {
    return fluxtrace::kInvalidSymbol;
  }
  return symtab.find(c.s).value_or(fluxtrace::kInvalidSymbol);
}

} // namespace

std::map<SymbolId, Reference::FuncAgg> group_rows(
    const fluxtrace::query::QueryResult& r,
    const fluxtrace::SymbolTable& symtab) {
  std::map<SymbolId, Reference::FuncAgg> got;
  if (r.columns.size() < 3 || r.columns[0] != "func" ||
      r.columns[1] != "count" || r.columns[2] != "sum_dur") {
    return got;
  }
  for (const auto& row : r.rows) {
    got[func_id(row[0], symtab)] = Reference::FuncAgg{
        static_cast<std::uint64_t>(row[1].i), row[2].i};
  }
  return got;
}

bool group_matches(const fluxtrace::query::QueryResult& r,
                   const std::map<SymbolId, Reference::FuncAgg>& expect,
                   const fluxtrace::SymbolTable& symtab) {
  return group_rows(r, symtab) == expect;
}

bool outliers_match(const fluxtrace::query::QueryResult& r,
                    const std::set<std::pair<ItemId, SymbolId>>& injected,
                    const fluxtrace::SymbolTable& symtab) {
  if (r.columns.size() < 2 || r.columns[0] != "item" ||
      r.columns[1] != "func") {
    return false;
  }
  std::set<std::pair<ItemId, SymbolId>> got;
  for (const auto& row : r.rows) {
    got.insert({static_cast<ItemId>(row[0].i), func_id(row[1], symtab)});
  }
  return got.size() == r.rows.size() && got == injected;
}

bool critical_path_matches(
    const fluxtrace::query::QueryResult& r,
    const std::map<std::int64_t, Reference::Blocked>& expect) {
  if (r.columns.size() < 3 || r.columns[0] != "item" ||
      r.columns[1] != "blocked" || r.columns[2] != "edges" ||
      r.rows.size() != expect.size()) {
    return false;
  }
  for (const auto& row : r.rows) {
    const auto it = expect.find(row[0].i);
    if (it == expect.end() ||
        it->second.blocked != static_cast<std::uint64_t>(row[1].i) ||
        it->second.edges != static_cast<std::uint64_t>(row[2].i)) {
      return false;
    }
  }
  return true;
}

std::map<SymbolId, std::int64_t> reference_percentile(const Reference& ref,
                                                      unsigned p) {
  std::map<SymbolId, std::vector<std::pair<std::int64_t, std::uint64_t>>> by;
  for (const auto& [key, b] : ref.buckets) {
    by[key.second].emplace_back(b.dur, b.rows);
  }
  std::map<SymbolId, std::int64_t> out;
  for (auto& [f, v] : by) {
    std::sort(v.begin(), v.end());
    std::uint64_t n = 0;
    for (const auto& e : v) n += e.second;
    // Nearest rank: the smallest value with at least ceil(p% of n) rows
    // at or below it.
    const std::uint64_t rank = std::max<std::uint64_t>(1, (p * n + 99) / 100);
    std::uint64_t seen = 0;
    for (const auto& [dur, rows] : v) {
      seen += rows;
      if (seen >= rank) {
        out[f] = dur;
        break;
      }
    }
  }
  return out;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                         : 0;
}

} // namespace perfbench
