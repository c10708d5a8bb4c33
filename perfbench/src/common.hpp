#pragma once

// Shared helpers of the perfbench tool: clocks, sample sets, the
// Prometheus scrape parser, and the result record every workload fills.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "svc/json.hpp"

namespace pb {

/// Monotonic microseconds.
double now_us();

/// CPU time of the calling thread, in microseconds.  Time the hypervisor
/// gives to other guests is not charged to it, unlike wall time.
double thread_cpu_us();

/// Raw samples with nearest-rank percentiles (the convention of
/// util::SampleSet, kept here without its asserts so an empty set
/// reads 0).
class Samples {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  void append(const Samples& other);
  std::size_t count() const { return v_.size(); }
  double sum() const;
  double mean() const;
  /// Nearest-rank percentile, \p p in [0, 100]; 0 when empty.
  double pct(double p) const;
  /// Interquartile mean: the mean of the samples ranked between the
  /// 25th and 75th percentile; 0 when empty.
  double iqm() const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// One parsed Prometheus text exposition (the METRICS verb's
/// "prometheus" field).  Series are keyed by "name{labels}" exactly as
/// the registry renders them.
class Prom {
 public:
  static Prom parse(const std::string& text);
  /// Value of one series; 0 when absent.
  double value(const std::string& series) const;
  /// Sum of every series of one family (all label sets).
  double family_sum(const std::string& name) const;
  /// Histogram bucket upper edges and cumulative counts of \p name
  /// (single, label-less child).
  std::vector<std::pair<double, double>> buckets(const std::string& name) const;

 private:
  std::map<std::string, double> series_;
};

/// Quantile \p q of the observations a histogram gained between two
/// scrapes, interpolated inside its bucket; 0 when it gained none.
/// Observations past the last finite edge read as that edge.
double delta_quantile(const Prom& before, const Prom& after,
                      const std::string& name, double q);

/// Everything one workload run reports.  `metrics` holds (value, unit)
/// by name; `context` is the run context printed beside the result.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  wormrt::svc::Json context = wormrt::svc::Json::object();
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed check: counted in `failed`, kept in `problems`.
  void fail(const std::string& what);
};

/// Seeded Fisher-Yates permutation of 0..n-1 (std::mt19937_64, so the
/// same seed gives the same order everywhere).
std::vector<int> seeded_order(std::size_t n, std::uint64_t seed);

/// Parses a reply line; returns false (and a null Json) on bad JSON.
bool parse_reply(const std::string& line, wormrt::svc::Json* out);

/// "ok":true in a parsed reply.
bool reply_ok(const wormrt::svc::Json& reply);

}  // namespace pb
