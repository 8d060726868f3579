// Metrics: deterministic run instrumentation.
//
// A run's metrics are a MetricsSnapshot: named counter samples, read from
// the component that counts the fact, and fixed-bucket histograms fed as
// the run goes. Every value is *simulated*-time or sim-domain valued —
// never wall-clock — so every exported metric is a pure function of the
// run's seed and byte-identical across --jobs values and repeated runs.
// (Wall-clock-derived values must stay out of here; they live under the
// `wall`/`ns` key naming rule of report::strip_volatile_lines.)
//
// MetricsAggregate folds per-trial snapshots in the experiment engine's
// seed-order fold, which keeps BENCH_*.json metric cells deterministic by
// the same argument as every other aggregate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "common/stats.hpp"

namespace graybox::obs {

/// Fixed-bucket histogram over non-negative integer values. Bucket i counts
/// observations <= bounds[i] (strictly greater than bounds[i-1]); one
/// overflow bucket past the last bound. Bounds are fixed at construction,
/// so every trial produces structurally identical buckets that the trial
/// fold sums bucket-wise.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  /// Power-of-two bounds 0, 1, 2, 4, ..., 2^max_exp — the default shape
  /// for tick-valued and depth-valued metrics (wide dynamic range, exact
  /// zero bucket).
  static std::vector<std::uint64_t> pow2_bounds(unsigned max_exp);

  void observe(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return min_; }  ///< 0 when empty
  std::uint64_t max() const { return max_; }
  double mean() const;
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Value snapshot of one metric, a plain value so that RunStats can carry
/// metrics across threads and into the engine fold.
struct MetricSample {
  enum class Kind : std::uint8_t { kCounter, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  /// Counter value / histogram observation count.
  std::int64_t value = 0;
  // Histogram-only payload.
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;
};

using MetricsSnapshot = std::vector<MetricSample>;

MetricSample counter_sample(std::string name, std::uint64_t value);
MetricSample histogram_sample(std::string name, const Histogram& histogram);

/// Serialize one snapshot (insertion order preserved; all values
/// sim-domain, so the artifact is byte-stable across runs and jobs).
report::Json metrics_snapshot_to_json(const MetricsSnapshot& snapshot);

/// Fold of per-trial MetricsSnapshots: add() folds one trial, like
/// RepeatedResult's accumulators. Counter values become per-trial
/// Accumulators; histograms sum bucket-wise.
class MetricsAggregate {
 public:
  void add(const MetricsSnapshot& snapshot);
  bool empty() const { return entries_.empty(); }

  report::Json to_json() const;

 private:
  struct Entry {
    std::string name;
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    /// Counter value per trial; histogram count per trial.
    Accumulator per_trial;
    // Histogram fold across trials.
    std::uint64_t hist_count = 0;
    std::uint64_t hist_sum = 0;
    std::uint64_t hist_min = 0;
    std::uint64_t hist_max = 0;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> buckets;
  };
  Entry& find_or_add(const std::string& name, MetricSample::Kind kind);

  std::vector<Entry> entries_;  ///< first-seen order (trial 0 folds first)
};

}  // namespace graybox::obs
