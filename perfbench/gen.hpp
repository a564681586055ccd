// Seeded capture generator and the reference answers worked out from its
// own records.
//
// A capture models a run-to-completion packet processor on 4 cores: each
// data-item is one marker window on one core, inside which it runs 6 of
// 16 functions back to back. Every function run is a burst of PEBS-like
// samples spaced ~1000 cycles apart, the first at the run's start and
// the last at its end, so the elapsed estimate of a run is exactly its
// generated length. Between windows a core may block on a ring held by
// another core; those episodes become wait edges.
//
// Bounded jitter. A function's elapsed time is its base length times a
// factor in [0.92, 1.08] taken from a golden-ratio sequence per function,
// and a window's length is 72000 cycles times a factor in [0.96, 1.04]
// from the same kind of sequence per item. Any prefix of 8 or more such
// values is spread over its whole interval, so no normal value lies more
// than ~2 standard deviations from the running mean (the streaming
// detector flags beyond 3 after 8 observations), and no window total
// lies more than 1.4 robust sigmas from the median (core::diagnose flags
// beyond 3).
//
// Injected fluctuations. A few {item, func} runs, all after the first
// 200 items, are stretched 12x and their windows grow by the same
// amount: hundreds of sigmas out for both detectors.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/io/trace_file.hpp"

namespace perfbench {

using fluxtrace::ItemId;
using fluxtrace::SymbolId;
using fluxtrace::Tsc;

inline constexpr std::uint32_t kCores = 4;
inline constexpr std::uint32_t kFuncs = 16;
inline constexpr std::uint32_t kFuncsPerItem = 6;

/// splitmix64: the one RNG every generated value comes from.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// The 16 functions of the modelled packet processor, 0x400 bytes each.
[[nodiscard]] fluxtrace::SymbolTable make_symtab();

struct GenSpec {
  std::uint64_t seed = 1;
  /// Seeds the functions' base lengths: a property of the traced
  /// program, so sessions of one fleet share it.
  std::uint64_t program_seed = 1;
  std::size_t target_samples = 1'000'000; ///< generation stops past this
  ItemId item_base = 0;                   ///< first item id
  Tsc t_base = 1'000'000;                 ///< first core's clock start
  std::size_t injections = 8;
};

/// One generated function run: what the reference is computed from.
struct Run {
  ItemId item = 0;
  SymbolId func = 0;
  std::uint32_t core = 0;
  Tsc first = 0;
  Tsc last = 0;
  std::uint64_t samples = 0;
};

/// A generated sample: what a PebsSample carries here (the generator
/// leaves its register file zero), in 24 bytes instead of 152.
struct Sample {
  Tsc tsc = 0;
  std::uint64_t ip = 0;
  std::uint32_t core = 0;
};

struct Capture {
  // Each stream sorted by time.
  std::vector<fluxtrace::Marker> markers;
  std::vector<Sample> samples;
  std::vector<fluxtrace::WaitEdge> wait_edges;
  std::vector<Run> runs;
  std::set<std::pair<ItemId, SymbolId>> injected;
  std::vector<ItemId> items; ///< in generation order

  /// The capture as fluxtrace's writers take it.
  [[nodiscard]] fluxtrace::io::TraceData trace_data() const;
};

/// Fills `out` with the PebsSamples of `in` (register files zero).
void to_pebs(const Sample* in, std::size_t n, fluxtrace::PebsSample* out);

[[nodiscard]] Capture generate(const GenSpec& spec);

/// Reference answers, from the generator's records alone.
struct Reference {
  struct Bucket {
    std::uint64_t rows = 0;
    std::int64_t dur = 0; ///< elapsed estimate, summed over cores
  };
  struct FuncAgg {
    std::uint64_t count = 0;
    std::int64_t sum_dur = 0;
    friend bool operator==(const FuncAgg&, const FuncAgg&) = default;
  };
  struct Blocked {
    std::uint64_t blocked = 0; ///< length of the union of the intervals
    std::uint64_t edges = 0;
  };
  std::map<std::pair<ItemId, SymbolId>, Bucket> buckets;
  std::map<SymbolId, FuncAgg> per_func;
  std::set<std::pair<ItemId, SymbolId>> injected;
  std::map<std::int64_t, Blocked> blocked; ///< key -1 = edges with no item
  std::uint64_t samples = 0;
  std::uint64_t windows = 0;

  /// `group func: count, sum(dur)` restricted to one item.
  [[nodiscard]] std::map<SymbolId, FuncAgg> per_func_of(ItemId item) const;
  /// Adds another capture's answers (disjoint items).
  void merge(const Reference& other);
};

[[nodiscard]] Reference reference_of(const Capture& cap);

} // namespace perfbench
