// Shared benchmark state: arguments, the operation/correctness ledger, the
// round loop, checks against the reference, and the result line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/query/engine.hpp"
#include "gen.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

/// Named figures of one round (phase times, counters, ratios).
using Figures = std::map<std::string, double>;

class Bench {
 public:
  Bench(Args args, std::int64_t process_start_ns)
      : args_(std::move(args)), start_ns_(process_start_ns) {}

  [[nodiscard]] const Args& args() const { return args_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }

  /// Marks the end of set-up: inputs generated and written.
  void setup_done();

  /// Runs one operation against fluxtrace, counting it as attempted and,
  /// when it throws, as failed. Returns false on failure.
  bool op(const std::function<void()>& fn);
  /// Counts an operation whose outcome the caller judged itself.
  void count_op(bool ok, const std::string& what);

  /// Records a correctness check; a failing one clears `correct`.
  void check(bool ok, const std::string& what);

  /// One discarded warm-up round, then measured rounds until
  /// args().seconds have passed (at least kMinRounds of each kind; in
  /// traced mode every second round runs with the tracer on). Then
  /// prints the medians of the rounds' figures on one line (the
  /// workload's own names) and the result line with the metrics of the
  /// current mode.
  static constexpr std::size_t kMinRounds = 3;
  void run(const std::function<Figures(bool traced)>& round);

 private:
  Args args_;
  std::int64_t start_ns_;
  Tracer tracer_;
  double setup_s_ = 0;
  double setup_peak_rss_mib_ = 0;
  double peak_rss_mib_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;

  void finish(const std::vector<Figures>& plain,
              const std::vector<Figures>& traced);
};

[[nodiscard]] double median(std::vector<double> v);
/// Median over rounds of one named figure (0 when no round has it).
[[nodiscard]] double median_of(const std::vector<Figures>& rounds,
                               const std::string& name);

// --- checks against the reference ------------------------------------

/// The rows of `group func: count, sum(dur)[, ...]` by function (empty
/// when the columns are not those).
[[nodiscard]] std::map<SymbolId, Reference::FuncAgg> group_rows(
    const fluxtrace::query::QueryResult& r,
    const fluxtrace::SymbolTable& symtab);
/// `group func: count, sum(dur)[, ...]` rows equal `expect`.
[[nodiscard]] bool group_matches(
    const fluxtrace::query::QueryResult& r,
    const std::map<SymbolId, Reference::FuncAgg>& expect,
    const fluxtrace::SymbolTable& symtab);
/// `outliers` rows name exactly the injected {item, func} pairs.
[[nodiscard]] bool outliers_match(
    const fluxtrace::query::QueryResult& r,
    const std::set<std::pair<ItemId, SymbolId>>& injected,
    const fluxtrace::SymbolTable& symtab);
/// `critical_path` blocked time and edge count per item equal the
/// reference interval unions.
[[nodiscard]] bool critical_path_matches(
    const fluxtrace::query::QueryResult& r,
    const std::map<std::int64_t, Reference::Blocked>& expect);

/// Nearest-rank percentile of each function's per-row dur, from the
/// reference buckets.
[[nodiscard]] std::map<SymbolId, std::int64_t> reference_percentile(
    const Reference& ref, unsigned p);

/// Size of a file in bytes (0 when it cannot be stat'ed).
[[nodiscard]] std::uint64_t file_size(const std::string& path);

} // namespace perfbench
