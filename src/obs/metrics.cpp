#include "obs/metrics.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace graybox::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  GBX_EXPECTS(!bounds_.empty());
  GBX_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
}

std::vector<std::uint64_t> Histogram::pow2_bounds(unsigned max_exp) {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(max_exp + 2);
  bounds.push_back(0);
  for (unsigned e = 0; e <= max_exp; ++e) {
    bounds.push_back(std::uint64_t{1} << e);
  }
  return bounds;
}

void Histogram::observe(std::uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  sum_ += value;
  ++count_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

MetricSample counter_sample(std::string name, std::uint64_t value) {
  MetricSample s;
  s.name = std::move(name);
  s.value = static_cast<std::int64_t>(value);
  return s;
}

MetricSample histogram_sample(std::string name, const Histogram& histogram) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = MetricSample::Kind::kHistogram;
  s.value = static_cast<std::int64_t>(histogram.count());
  s.sum = histogram.sum();
  s.min = histogram.min();
  s.max = histogram.max();
  s.bounds = histogram.bounds();
  s.buckets = histogram.buckets();
  return s;
}

report::Json metrics_snapshot_to_json(const MetricsSnapshot& snapshot) {
  report::Json doc = report::Json::object();
  for (const MetricSample& s : snapshot) {
    report::Json cell = report::Json::object();
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        cell["type"] = "counter";
        cell["value"] = s.value;
        break;
      case MetricSample::Kind::kHistogram: {
        cell["type"] = "histogram";
        cell["count"] = s.value;
        cell["sum"] = s.sum;
        cell["min"] = s.min;
        cell["max"] = s.max;
        report::Json bounds = report::Json::array();
        for (std::uint64_t b : s.bounds) bounds.push_back(b);
        cell["bounds"] = std::move(bounds);
        report::Json buckets = report::Json::array();
        for (std::uint64_t b : s.buckets) buckets.push_back(b);
        cell["buckets"] = std::move(buckets);
        break;
      }
    }
    doc[s.name] = std::move(cell);
  }
  return doc;
}

MetricsAggregate::Entry& MetricsAggregate::find_or_add(
    const std::string& name, MetricSample::Kind kind) {
  for (Entry& e : entries_) {
    if (e.name == name) return e;
  }
  Entry e;
  e.name = name;
  e.kind = kind;
  entries_.push_back(std::move(e));
  return entries_.back();
}

void MetricsAggregate::add(const MetricsSnapshot& snapshot) {
  for (const MetricSample& s : snapshot) {
    Entry& e = find_or_add(s.name, s.kind);
    e.per_trial.add(static_cast<double>(s.value));
    if (s.kind == MetricSample::Kind::kHistogram) {
      if (e.buckets.empty()) {
        e.bounds = s.bounds;
        e.buckets.assign(s.buckets.size(), 0);
      }
      GBX_EXPECTS(e.buckets.size() == s.buckets.size());
      for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        e.buckets[i] += s.buckets[i];
      }
      if (s.value > 0) {
        if (e.hist_count == 0 || s.min < e.hist_min) e.hist_min = s.min;
        if (e.hist_count == 0 || s.max > e.hist_max) e.hist_max = s.max;
        e.hist_count += static_cast<std::uint64_t>(s.value);
        e.hist_sum += s.sum;
      }
    }
  }
}

report::Json MetricsAggregate::to_json() const {
  report::Json doc = report::Json::object();
  for (const Entry& e : entries_) {
    report::Json cell = report::Json::object();
    cell["type"] =
        e.kind == MetricSample::Kind::kHistogram ? "histogram" : "counter";
    cell["trials"] = static_cast<std::uint64_t>(e.per_trial.count());
    cell["mean"] = e.per_trial.mean();
    cell["stddev"] = e.per_trial.stddev();
    cell["min"] = e.per_trial.min();
    cell["max"] = e.per_trial.max();
    cell["sum"] = e.per_trial.sum();
    if (e.kind == MetricSample::Kind::kHistogram) {
      cell["observations"] = e.hist_count;
      cell["observation_sum"] = e.hist_sum;
      cell["observation_min"] = e.hist_min;
      cell["observation_max"] = e.hist_max;
      report::Json bounds = report::Json::array();
      for (std::uint64_t b : e.bounds) bounds.push_back(b);
      cell["bounds"] = std::move(bounds);
      report::Json buckets = report::Json::array();
      for (std::uint64_t b : e.buckets) buckets.push_back(b);
      cell["buckets"] = std::move(buckets);
    }
    doc[e.name] = std::move(cell);
  }
  return doc;
}

}  // namespace graybox::obs
