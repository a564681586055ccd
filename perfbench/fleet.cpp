// fleet: 16 small disjoint capture sessions, half FLXT v2 and half v3,
// ingested by hub::Catalog from an empty manifest with 2 shards, then
// queried with query::run_federated at fan-out 2.
//
// Round = a fresh catalog directory (hard links to the members), open +
// ingest, and one pass of the federated mix (group, outliers, selective).
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "fluxtrace/hub/catalog.hpp"
#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/query/columnar.hpp"
#include "fluxtrace/query/federated.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fx = fluxtrace;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kThreads = 2;
constexpr std::size_t kMembers = 16;
constexpr std::size_t kMemberSamples = 50'000;
constexpr ItemId kItemStride = 1'000'000;
constexpr Tsc kTimeStride = 10'000'000'000ull;

constexpr const char* kGroup = "group func: count, sum(dur)";

/// v2, v2, v3, v3, ...: the catalog deals sorted members to shards
/// round-robin, so each of its 2 shards gets both formats.
bool is_v3(std::size_t m) { return (m / 2) % 2 == 1; }

std::string member_name(std::size_t m) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "m%02zu.%s", m, is_v3(m) ? "flxt3" : "flxt");
  return buf;
}

} // namespace

void run_fleet(Bench& b) {
  Tracer& tr = b.tracer();
  const fx::SymbolTable symtab = make_symtab();
  const std::string members_dir = b.args().work_dir + "/members";
  fs::create_directories(members_dir);

  std::vector<Capture> caps;
  std::uint64_t bytes[2] = {0, 0};
  for (std::size_t m = 0; m < kMembers; ++m) {
    caps.push_back(generate(GenSpec{
        b.args().seed * kMembers + m, b.args().seed, kMemberSamples,
        m * kItemStride, 1'000'000 + m * kTimeStride, 1}));
    const std::string path = members_dir + "/" + member_name(m);
    if (is_v3(m)) {
      fx::io::save_trace_v3(path, caps.back().trace_data());
    } else {
      fx::io::save_trace_v2(path, caps.back().trace_data());
    }
  }
  b.setup_done();

  Reference ref;
  std::uint64_t samples[2] = {0, 0};
  std::vector<ItemId> items;
  for (std::size_t m = 0; m < kMembers; ++m) {
    ref.merge(reference_of(caps[m]));
    samples[is_v3(m)] += caps[m].samples.size();
    bytes[is_v3(m)] += file_size(members_dir + "/" + member_name(m));
    items.insert(items.end(), caps[m].items.begin(), caps[m].items.end());
  }
  caps.clear();
  const double bytes_per_sample = static_cast<double>(bytes[0] + bytes[1]) /
                                  static_cast<double>(ref.samples);

  Rng pick(b.args().seed ^ 0xf1ee7);
  int round_no = 0;

  const auto round = [&](bool traced) {
    Figures fig;
    const ItemId item = items[pick.below(items.size())];
    const std::string sel =
        "filter item == " + std::to_string(item) + " | " + kGroup;
    const std::string dir =
        b.args().work_dir + "/catalog-" + std::to_string(round_no++);
    fs::create_directories(dir);
    for (std::size_t m = 0; m < kMembers; ++m) {
      fs::create_hard_link(members_dir + "/" + member_name(m),
                           dir + "/" + member_name(m));
    }

    std::optional<fx::hub::Catalog> cat;
    fx::hub::IngestReport ing;
    std::int64_t t0 = now_ns();
    b.op([&] {
      fx::hub::CatalogOptions co;
      co.threads = kThreads;
      {
        Tracer::Scope s(tr, "hub.catalog_open");
        cat.emplace(fx::hub::Catalog::open(dir, symtab, co));
      }
      Tracer::Scope s(tr, "hub.ingest");
      ing = cat->ingest();
    });
    fig["ingest_ms"] = ms_since(t0);

    std::vector<fx::query::FederatedTrace> members;
    if (cat) members = cat->query_members();
    fx::query::FederatedOptions fo;
    fo.engine.threads = kThreads;
    fo.fanout_threads = kThreads;
    fx::query::FederatedResult grp, out, selr;
    t0 = now_ns();
    b.op([&] {
      Tracer::Scope s(tr, "query.federated_group_fanout2");
      grp = fx::query::run_federated(members, symtab, kGroup, fo);
    });
    fig["first_answer_ms"] = fig["ingest_ms"] + ms_since(t0);
    b.op([&] {
      Tracer::Scope s(tr, "query.federated_outliers");
      out = fx::query::run_federated(members, symtab, "outliers", fo);
    });
    b.op([&] {
      Tracer::Scope s(tr, "query.federated_selective");
      selr = fx::query::run_federated(members, symtab, sel, fo);
    });
    fig["federated_mix_ms"] = ms_since(t0);
    fig["round_ms"] = fig["ingest_ms"] + fig["federated_mix_ms"];
    fig["bytes_per_sample"] = bytes_per_sample;

    b.check(ing.scanned == kMembers && ing.registered == kMembers &&
                ing.salvaged == 0 && ing.quarantined == 0 && ing.failed == 0,
            "every member registers clean");
    for (const auto* r : {&grp, &out, &selr}) {
      b.check(r->ledger.traces.size() == kMembers &&
                  r->ledger.count(fx::query::TraceDisposition::Ok) == kMembers,
              "every member answers");
    }
    b.check(group_matches(grp.result, ref.per_func, symtab),
            "federated group-by == sum of the member references");
    b.check(outliers_match(out.result, ref.injected, symtab),
            "federated outliers == injected fluctuations");
    b.check(group_matches(selr.result, ref.per_func_of(item), symtab),
            "federated selective group-by");

    if (traced) {
      for (const char* n : {"hub.catalog_open", "hub.ingest",
                            "query.federated_group_fanout2",
                            "query.federated_outliers",
                            "query.federated_selective"}) {
        fig[std::string(n) + "_ms"] = tr.total_ms(n);
      }
      // Probes: the same fleet broken down by layer and format.
      const Tracer::Probe probe(tr);
      b.op([&] {
        fx::query::FederatedOptions f1 = fo;
        f1.fanout_threads = 1;
        Tracer::Scope s(tr, "query.federated_group_fanout1");
        (void)fx::query::run_federated(members, symtab, kGroup, f1);
      });
      std::int64_t faults = 0;
      for (std::size_t m = 0; m < kMembers; ++m) {
        b.op([&] {
          const fx::io::TraceReader reader =
              fx::io::open_trace(dir + "/" + member_name(m));
          {
            Tracer::Scope s(tr, is_v3(m) ? "io.triage_v3" : "io.triage_v2");
            (void)fx::io::classify_trace(reader);
          }
          const std::int64_t f0 = minor_faults();
          {
            Tracer::Scope s(tr, "query.columnar_build");
            (void)fx::query::ColumnarTrace::from_reader(reader, symtab, {},
                                                        kThreads);
          }
          faults += minor_faults() - f0;
          const fx::io::TraceData data = reader.read_parallel(kThreads);
          std::ostringstream os;
          if (is_v3(m)) {
            Tracer::Scope s(tr, "codec.v3_build");
            fx::io::write_trace_v3(os, data);
          } else {
            Tracer::Scope s(tr, "io.v2_build");
            fx::io::write_trace_v2(os, data);
          }
        });
      }
      for (const char* n : {"query.federated_group_fanout1", "io.triage_v2",
                            "io.triage_v3", "query.columnar_build",
                            "codec.v3_build", "io.v2_build"}) {
        fig[std::string(n) + "_ms"] = tr.total_ms(n);
      }
      fig["query.columnar_build_minor_faults"] = static_cast<double>(faults);
    }
    fig["io.v2_bytes_per_sample"] =
        static_cast<double>(bytes[0]) / static_cast<double>(samples[0]);
    fig["codec.v3_bytes_per_sample"] =
        static_cast<double>(bytes[1]) / static_cast<double>(samples[1]);

    cat.reset();
    fs::remove_all(dir);
    return fig;
  };

  b.run(round);
}

} // namespace perfbench
