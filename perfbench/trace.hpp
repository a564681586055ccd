// In-memory span recorder for the traced mode (--trace 1).
//
// A span brackets one call into a fluxtrace layer's public API, named
// "<layer>.<operation>" ("query.group", "io.read_parallel"), or one
// benchmark phase ("bench.round"). Spans nest by scope, so each carries
// its parent; a layer's self time is its spans' durations minus the
// part their child spans cover. Nothing is written while the workload
// runs: the spans stay in memory and write_json() dumps them at exit.
// With tracing off a Scope costs one branch.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Minor page faults of the whole process so far.
inline std::int64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

struct Span {
  const char* name = ""; ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1; ///< index into Tracer::spans(), -1 = root
  std::int32_t round = -1;  ///< measured round the span belongs to
  [[nodiscard]] std::int64_t dur_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_round(std::int32_t r) { round_ = r; }
  [[nodiscard]] std::int32_t round() const { return round_; }

  /// Spans recorded while a Probe is alive belong to a separate round id,
  /// so calls made only to break a composite operation down into layers
  /// stay out of the round's self times.
  static constexpr std::int32_t kProbeOffset = 1 << 20;
  class Probe {
   public:
    explicit Probe(Tracer& t) : t_(t) { t_.round_ += kProbeOffset; }
    ~Probe() { t_.round_ -= kProbeOffset; }
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;

   private:
    Tracer& t_;
  };

  /// Summed duration (ms) of the spans named `name` in the current round.
  [[nodiscard]] double total_ms(const std::string& name) const {
    return total_ms(name, round_);
  }

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t.enabled_ ? &t : nullptr) {
      if (t_ == nullptr) return;
      idx_ = static_cast<std::int32_t>(t_->spans_.size());
      t_->spans_.push_back(Span{name, now_ns(), 0, t_->open_, t_->round_});
      t_->open_ = idx_;
    }
    ~Scope() {
      if (t_ == nullptr) return;
      t_->spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
      t_->open_ = t_->spans_[static_cast<std::size_t>(idx_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int32_t idx_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration (ms) of the spans named `name` in round `round`.
  [[nodiscard]] double total_ms(const std::string& name,
                                std::int32_t round) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.round == round && name == s.name) ns += s.dur_ns();
    }
    return static_cast<double>(ns) / 1e6;
  }

  /// Self time (ms) per layer — the span name up to its first '.' — over
  /// the spans of round `round`. Children are nested scopes of one
  /// thread, so the part of a span they cover is the sum of their
  /// durations.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer(
      std::int32_t round) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.round == round && s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns();
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.round != round) continue;
      const std::string_view name(s.name);
      out[std::string(name.substr(0, name.find('.')))] +=
          static_cast<double>(s.dur_ns() - child_ns[i]) / 1e6;
    }
    return out;
  }

  /// One JSON object per span, one per line, times relative to the
  /// first span.
  void write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::int32_t round_ = -1;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

} // namespace perfbench
