#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <random>
#include <sstream>

namespace pb {

using wormrt::svc::Json;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

void Samples::append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_ = false;
}

double Samples::sum() const {
  double s = 0;
  for (const double v : v_) {
    s += v;
  }
  return s;
}

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double Samples::pct(double p) const {
  if (v_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const auto n = v_.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::max<std::size_t>(1, std::min(rank, n));
  return v_[rank - 1];
}

double Samples::iqm() const {
  if (v_.empty()) {
    return 0.0;
  }
  pct(50);  // sorts
  const std::size_t lo = v_.size() / 4;
  const std::size_t hi = std::max(lo + 1, v_.size() - v_.size() / 4);
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    sum += v_[i];
  }
  return sum / static_cast<double>(hi - lo);
}

Prom Prom::parse(const std::string& text) {
  Prom p;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    p.series_[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return p;
}

double Prom::value(const std::string& series) const {
  const auto it = series_.find(series);
  return it == series_.end() ? 0.0 : it->second;
}

double Prom::family_sum(const std::string& name) const {
  double total = 0;
  for (auto it = series_.lower_bound(name); it != series_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) {
      break;
    }
    if (key.size() == name.size() || key[name.size()] == '{') {
      total += it->second;
    }
  }
  return total;
}

std::vector<std::pair<double, double>> Prom::buckets(
    const std::string& name) const {
  const std::string prefix = name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> out;
  for (auto it = series_.lower_bound(prefix); it != series_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    const std::string edge = it->first.substr(prefix.size());
    if (edge.rfind("+Inf", 0) == 0) {
      continue;  // the overflow tail reads as the last finite edge
    }
    out.emplace_back(std::strtod(edge.c_str(), nullptr), it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double delta_quantile(const Prom& before, const Prom& after,
                      const std::string& name, double q) {
  const auto b = before.buckets(name);
  const auto a = after.buckets(name);
  if (a.empty()) {
    return 0.0;
  }
  // Per-bucket gains (cumulative counts differenced twice).
  std::vector<double> gain(a.size());
  double prev_a = 0, prev_b = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double cum_b = i < b.size() ? b[i].second : 0.0;
    gain[i] = (a[i].second - prev_a) - (cum_b - prev_b);
    prev_a = a[i].second;
    prev_b = cum_b;
  }
  const double total_finite = prev_a - prev_b;
  const double total =
      after.value(name + "_count") - before.value(name + "_count");
  if (total <= 0) {
    return 0.0;
  }
  const double target = q * total;
  if (target > total_finite) {
    return a.back().first;
  }
  double seen = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (gain[i] > 0 && seen + gain[i] >= target) {
      const double lo = i == 0 ? 0.0 : a[i - 1].first;
      const double frac = (target - seen) / gain[i];
      return lo + frac * (a[i].first - lo);
    }
    seen += gain[i];
  }
  return a.back().first;
}

void Result::fail(const std::string& what) {
  ++failed;
  correct = false;
  if (problems.size() < 50) {
    problems.push_back(what);
  }
}

std::vector<int> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = static_cast<int>(i);
  }
  std::mt19937_64 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

bool parse_reply(const std::string& line, Json* out) {
  std::string error;
  *out = Json::parse(line, &error);
  return error.empty() && out->is_object();
}

bool reply_ok(const Json& reply) {
  const Json* ok = reply.get("ok");
  return ok != nullptr && ok->as_bool();
}

}  // namespace pb
