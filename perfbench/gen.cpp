#include "gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <tuple>

namespace perfbench {

using fluxtrace::Marker;
using fluxtrace::MarkerKind;
using fluxtrace::PebsSample;
using fluxtrace::WaitCause;
using fluxtrace::WaitEdge;

namespace {

constexpr Tsc kSampleGap = 1000; // cycles between samples of one run
constexpr Tsc kWindow = 72000;   // nominal window length
constexpr Tsc kGap = 6000;       // idle gap before each window (waits)
constexpr Tsc kLead = 100;       // Enter marker -> first run
constexpr Tsc kRunGap = 150;     // between two runs of one item
constexpr Tsc kStretch = 12;     // injected fluctuation factor
constexpr std::size_t kWarmItems = 200;
constexpr double kPhi = 0.6180339887498949;

double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

double frac(double x) { return x - std::floor(x); }

} // namespace

fluxtrace::SymbolTable make_symtab() {
  static constexpr std::array<const char*, kFuncs> kNames = {
      "rx_burst",   "parse_eth", "parse_ipv4",  "acl_classify",
      "flow_lookup", "flow_insert", "nat_rewrite", "checksum",
      "route_lookup", "qos_meter", "encap",       "decap",
      "crypto",     "log_event", "tx_enqueue",  "tx_burst"};
  fluxtrace::SymbolTable symtab;
  for (const char* n : kNames) symtab.add(n, 0x400);
  return symtab;
}

Capture generate(const GenSpec& spec) {
  Rng rng(spec.seed);
  Rng program(spec.program_seed);
  const fluxtrace::SymbolTable symtab = make_symtab();

  // Base lengths: a seeded permutation of one fixed ladder, so every seed
  // yields the same mix of short and long functions (and about the same
  // number of items for a sample budget).
  std::array<Tsc, kFuncs> base{};
  std::array<double, kFuncs> phase{};
  for (std::uint32_t f = 0; f < kFuncs; ++f) {
    base[f] = 4000 + f * 5000 / (kFuncs - 1);
  }
  for (std::uint32_t f = kFuncs - 1; f > 0; --f) {
    std::swap(base[f], base[program.below(f + 1)]);
  }
  for (std::uint32_t f = 0; f < kFuncs; ++f) phase[f] = unit(rng.next());
  const double item_phase = unit(rng.next());

  // Spread the injections over the expected item range, past warm-up.
  double per_item = 0;
  for (const Tsc b : base) {
    per_item += static_cast<double>(b / kSampleGap + 1);
  }
  per_item *= static_cast<double>(kFuncsPerItem) / kFuncs;
  const auto n_est =
      static_cast<std::size_t>(static_cast<double>(spec.target_samples) /
                               per_item);
  std::vector<std::size_t> inject_at;
  if (spec.injections > 0 && n_est * 9 / 10 > kWarmItems) {
    const std::size_t stride =
        std::max<std::size_t>(2, (n_est * 9 / 10 - kWarmItems) /
                                     spec.injections);
    for (std::size_t j = 0; j < spec.injections; ++j) {
      inject_at.push_back(kWarmItems + j * stride + rng.below(stride / 2));
    }
  }

  Capture cap;
  // The last item overshoots the budget by less than one window's
  // samples (an injected run at most 12x a 9000-cycle base).
  cap.samples.reserve(spec.target_samples + 1024);
  std::array<Tsc, kCores> clock{};
  for (std::uint32_t c = 0; c < kCores; ++c) clock[c] = spec.t_base + c * 1000;
  std::array<std::uint64_t, kFuncs> seen{};
  std::size_t next_inject = 0;
  std::size_t samples = 0;

  for (std::size_t k = 0; samples < spec.target_samples; ++k) {
    const ItemId item = spec.item_base + k;
    const auto core = static_cast<std::uint32_t>(rng.below(kCores));
    const Tsc gap_start = clock[core];
    const Tsc enter = gap_start + kGap;

    // Ring-full episodes blocking this item's hand-off, the first two
    // overlapping, all inside the idle gap before its window.
    if (rng.below(8) == 0) {
      const std::uint64_t n_edges = 1 + rng.below(3);
      Tsc at = gap_start + 200;
      for (std::uint64_t e = 0; e < n_edges; ++e) {
        const Tsc len = 500 + rng.below(1501);
        const auto holder =
            static_cast<std::uint32_t>((core + 1 + rng.below(3)) % kCores);
        cap.wait_edges.push_back(WaitEdge{at, at + len, item, core,
                                               holder, 10 + holder,
                                               WaitCause::RingFull});
        at += e == 0 ? len / 2 : len + 300;
      }
    }
    // Now and then a starved consumer: not bound to any item.
    if (rng.below(16) == 0) {
      const Tsc len = 300 + rng.below(1000);
      cap.wait_edges.push_back(
          WaitEdge{gap_start + 100, gap_start + 100 + len, fluxtrace::kNoItem,
                   core, (core + 1) % kCores, 20 + core,
                   WaitCause::RingEmpty});
    }

    std::array<SymbolId, kFuncs> perm{};
    std::iota(perm.begin(), perm.end(), SymbolId{0});
    for (std::uint32_t i = 0; i < kFuncsPerItem; ++i) {
      std::swap(perm[i], perm[i + rng.below(kFuncs - i)]);
    }
    const bool inject =
        next_inject < inject_at.size() && k == inject_at[next_inject];
    const std::uint32_t inject_slot =
        inject ? static_cast<std::uint32_t>(rng.below(kFuncsPerItem))
               : kFuncsPerItem;
    if (inject) ++next_inject;

    cap.markers.push_back(Marker{enter, item, core, MarkerKind::Enter});
    Tsc t = enter + kLead;
    Tsc extra = 0;
    for (std::uint32_t i = 0; i < kFuncsPerItem; ++i) {
      const SymbolId f = perm[i];
      const double u = frac(static_cast<double>(seen[f]++) * kPhi + phase[f]);
      Tsc el = static_cast<Tsc>(
          std::llround(static_cast<double>(base[f]) * (0.92 + 0.16 * u)));
      if (i == inject_slot) {
        extra = el * (kStretch - 1);
        el *= kStretch;
        cap.injected.insert({item, f});
      }
      const Tsc n = el / kSampleGap + 1;
      const std::uint64_t lo = symtab[f].lo;
      for (Tsc j = 0; j < n; ++j) {
        cap.samples.push_back(
            Sample{t + el * j / (n - 1), lo + (j * 0x40) % 0x400, core});
      }
      cap.runs.push_back(Run{item, f, core, t, t + el, n});
      samples += n;
      t += el + kRunGap;
    }
    const double v = 0.96 + 0.08 * frac(static_cast<double>(k) * kPhi +
                                        item_phase);
    const Tsc leave =
        enter +
        static_cast<Tsc>(std::llround(static_cast<double>(kWindow) * v)) +
        extra;
    cap.markers.push_back(Marker{leave, item, core, MarkerKind::Leave});
    clock[core] = leave;
    cap.items.push_back(item);
  }

  const auto by_time = [](const auto& a, const auto& b) {
    return a.tsc != b.tsc ? a.tsc < b.tsc : a.core < b.core;
  };
  std::sort(cap.markers.begin(), cap.markers.end(), by_time);
  std::sort(cap.samples.begin(), cap.samples.end(), by_time);
  std::sort(cap.wait_edges.begin(), cap.wait_edges.end(),
            [](const WaitEdge& a, const WaitEdge& b) {
              return a.leave != b.leave ? a.leave < b.leave
                                        : a.waiter_core < b.waiter_core;
            });
  return cap;
}

void to_pebs(const Sample* in, std::size_t n, PebsSample* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i].tsc = in[i].tsc;
    out[i].ip = in[i].ip;
    out[i].core = in[i].core;
  }
}

fluxtrace::io::TraceData Capture::trace_data() const {
  fluxtrace::io::TraceData d;
  d.markers = markers;
  d.samples.resize(samples.size());
  to_pebs(samples.data(), samples.size(), d.samples.data());
  d.wait_edges = wait_edges;
  return d;
}

Reference reference_of(const Capture& cap) {
  Reference ref;
  // Elapsed estimate: first-to-last sample per core (runs of fewer than
  // two samples count 0), summed over cores.
  struct Span {
    Tsc first = ~Tsc{0};
    Tsc last = 0;
    std::uint64_t n = 0;
  };
  std::map<std::tuple<ItemId, SymbolId, std::uint32_t>, Span> spans;
  for (const Run& r : cap.runs) {
    Span& s = spans[{r.item, r.func, r.core}];
    s.first = std::min(s.first, r.first);
    s.last = std::max(s.last, r.last);
    s.n += r.samples;
  }
  for (const auto& [key, s] : spans) {
    Reference::Bucket& b = ref.buckets[{std::get<0>(key), std::get<1>(key)}];
    b.rows += s.n;
    if (s.n >= 2) b.dur += static_cast<std::int64_t>(s.last - s.first);
  }
  for (const auto& [key, b] : ref.buckets) {
    Reference::FuncAgg& a = ref.per_func[key.second];
    a.count += b.rows;
    a.sum_dur += static_cast<std::int64_t>(b.rows) * b.dur;
    ref.samples += b.rows;
  }
  ref.injected = cap.injected;
  ref.windows = cap.items.size();

  std::map<std::int64_t, std::vector<std::pair<Tsc, Tsc>>> intervals;
  for (const WaitEdge& e : cap.wait_edges) {
    intervals[static_cast<std::int64_t>(e.item)].emplace_back(e.enter,
                                                              e.leave);
  }
  for (auto& [item, iv] : intervals) {
    std::sort(iv.begin(), iv.end());
    Reference::Blocked& b = ref.blocked[item];
    b.edges = iv.size();
    Tsc lo = iv.front().first;
    Tsc hi = iv.front().second;
    for (const auto& [s, e] : iv) {
      if (s > hi) {
        b.blocked += hi - lo;
        lo = s;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    b.blocked += hi - lo;
  }
  return ref;
}

std::map<SymbolId, Reference::FuncAgg> Reference::per_func_of(
    ItemId item) const {
  std::map<SymbolId, FuncAgg> out;
  for (auto it = buckets.lower_bound({item, 0});
       it != buckets.end() && it->first.first == item; ++it) {
    FuncAgg& a = out[it->first.second];
    a.count += it->second.rows;
    a.sum_dur += static_cast<std::int64_t>(it->second.rows) * it->second.dur;
  }
  return out;
}

void Reference::merge(const Reference& other) {
  buckets.insert(other.buckets.begin(), other.buckets.end());
  for (const auto& [f, a] : other.per_func) {
    per_func[f].count += a.count;
    per_func[f].sum_dur += a.sum_dur;
  }
  injected.insert(other.injected.begin(), other.injected.end());
  for (const auto& [item, b] : other.blocked) {
    // Item ids are disjoint; only the no-item key (-1) can repeat, and
    // episodes of different captures never overlap in time.
    blocked[item].blocked += b.blocked;
    blocked[item].edges += b.edges;
  }
  samples += other.samples;
  windows += other.windows;
}

} // namespace perfbench
