#pragma once
// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms with percentile summaries, plus RAII scoped timers that feed
// the registry (spans for a trace come from obs/span.hpp). Thread-safe;
// the hot-path cost is one mutex acquisition plus a map lookup, which the
// laptop-scale functional paths that carry instrumentation can afford.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stopwatch.hpp"

namespace psdns::obs {

/// Percentile rule: while a histogram holds no more observations than its
/// raw-sample reservoir (Registry::kExactSampleCap, the common case for
/// per-step timings), percentiles are EXACT - linear interpolation between
/// the closest ranks of the sorted samples at rank p/100 * (count-1), the
/// same convention as numpy's default / R type 7. Beyond the reservoir the
/// summary falls back to linear interpolation inside the matching bucket,
/// clamped to the observed [min, max].
struct HistogramSummary {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;
};

class Registry {
 public:
  // Names are taken as string_view and the maps use transparent comparators,
  // so instrumentation sites that pass literals never materialize a
  // std::string (and so never allocate) once the metric exists.
  void counter_add(std::string_view name, std::int64_t delta = 1);
  /// 0 when the counter has never been touched.
  std::int64_t counter(std::string_view name) const;

  void gauge_set(std::string_view name, double value);
  double gauge(std::string_view name) const;

  /// Declares a histogram with explicit ascending bucket upper bounds.
  /// Re-declaring an existing histogram is an error; observing into an
  /// undeclared one creates it with default_bounds().
  void declare_histogram(std::string_view name, std::vector<double> bounds);
  void observe(std::string_view name, double value);
  HistogramSummary histogram(std::string_view name) const;

  MetricsSnapshot snapshot() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count,sum,min,max,p50,p95,p99}}}
  std::string to_json() const;
  void reset();

  /// Log-spaced seconds-oriented bounds, 1 us .. 1000 s, 4 per decade.
  static std::vector<double> default_bounds();

  /// Raw samples retained per histogram for exact small-count percentiles.
  static constexpr std::size_t kExactSampleCap = 256;

 private:
  struct Histogram {
    std::vector<double> bounds;           // ascending upper bucket edges
    std::vector<std::int64_t> buckets;    // bounds.size() + 1 (overflow last)
    std::vector<double> samples;          // first kExactSampleCap raw values
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  HistogramSummary summarize(const Histogram& h) const;

  mutable std::mutex mutex_;
  // std::less<> enables heterogeneous (string_view) lookup without building
  // a temporary std::string per hot-path call.
  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// The process-wide registry all library instrumentation reports into.
Registry& registry();

/// Small dense per-thread index (0, 1, 2, ... in first-use order) used to
/// tag log lines and trace spans; stable for the thread's lifetime.
int thread_index();

/// Records elapsed wall time into registry histogram `name` on destruction
/// (or stop()).
/// The name is held by reference (no copy, no allocation): it must outlive
/// the timer, which every instrumentation site satisfies by passing a
/// string literal.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name, Registry& reg = registry());
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Stops early and returns the elapsed seconds; later calls (and the
  /// destructor) are no-ops.
  double stop();

 private:
  std::string_view name_;
  Registry& reg_;
  util::Stopwatch watch_;
  bool stopped_ = false;
};

}  // namespace psdns::obs
