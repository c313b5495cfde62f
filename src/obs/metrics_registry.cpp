#include "obs/metrics_registry.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace raidsim {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_')
    return false;
  for (const char c : name)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  return true;
}

void write_double(std::ostream& out, double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    out << static_cast<std::int64_t>(v);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

HistogramMetric::HistogramMetric(const std::atomic<bool>* enabled,
                                 double min_value, double max_value,
                                 std::size_t buckets)
    : buckets_(buckets),
      min_value_(min_value),
      counts_(buckets),
      enabled_(enabled) {
  if (buckets < 1 || min_value <= 0.0 || max_value <= min_value)
    throw std::invalid_argument("HistogramMetric: bad bucket layout");
  log_min_ = std::log(min_value);
  log_step_ = (std::log(max_value) - log_min_) / static_cast<double>(buckets);
}

std::size_t HistogramMetric::bucket_index(double x) const {
  if (!(x > min_value_)) return 0;
  const double pos = (std::log(x) - log_min_) / log_step_;
  if (pos >= static_cast<double>(buckets_ - 1)) return buckets_ - 1;
  return static_cast<std::size_t>(pos);
}

void HistogramMetric::observe(double x) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  counts_[bucket_index(x)].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

std::uint64_t HistogramMetric::count() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

double HistogramMetric::sum() const {
  return sum_.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> HistogramMetric::bucket_counts() const {
  std::vector<std::uint64_t> counts(buckets_);
  for (std::size_t i = 0; i < buckets_; ++i)
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  return counts;
}

double HistogramMetric::bucket_upper_bound(std::size_t i) const {
  if (i + 1 >= buckets_) return std::numeric_limits<double>::infinity();
  return std::exp(log_min_ + log_step_ * static_cast<double>(i + 1));
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::lookup(const std::string& name,
                                                Kind kind,
                                                const std::string& help,
                                                double min_value,
                                                double max_value,
                                                std::size_t buckets) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("MetricsRegistry: invalid metric name '" +
                                name + "'");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind)
      throw std::invalid_argument("MetricsRegistry: metric '" + name +
                                  "' re-registered with a different kind");
    return it->second;
  }
  // Construct the metric while mu_ is still held: two threads racing on
  // the first registration of a name must both come away holding the
  // same object, and scrape()/reset() must never observe an Entry whose
  // metric pointer is still null.
  Entry entry;
  entry.kind = kind;
  entry.help = help;
  switch (kind) {
    case Kind::kCounter:
      entry.counter.reset(new Counter(&enabled_));
      break;
    case Kind::kGauge:
      entry.gauge.reset(new Gauge(&enabled_));
      break;
    case Kind::kHistogram:
      entry.histogram.reset(
          new HistogramMetric(&enabled_, min_value, max_value, buckets));
      break;
  }
  return metrics_.emplace(name, std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  return *lookup(name, Kind::kCounter, help).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  return *lookup(name, Kind::kGauge, help).gauge;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            const std::string& help,
                                            double min_value, double max_value,
                                            std::size_t buckets) {
  return *lookup(name, Kind::kHistogram, help, min_value, max_value, buckets)
              .histogram;
}

std::string MetricsRegistry::scrape() const {
  std::ostringstream out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : metrics_) {
    out << "# HELP " << name << ' ' << entry.help << '\n';
    switch (entry.kind) {
      case Kind::kCounter:
        out << "# TYPE " << name << " counter\n";
        out << name << ' ' << entry.counter->value() << '\n';
        break;
      case Kind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        out << name << ' ';
        write_double(out, entry.gauge->value());
        out << '\n';
        break;
      case Kind::kHistogram: {
        out << "# TYPE " << name << " histogram\n";
        const auto buckets = entry.histogram->bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
          cumulative += buckets[i];
          const double le = entry.histogram->bucket_upper_bound(i);
          out << name << "_bucket{le=\"";
          if (std::isinf(le)) {
            out << "+Inf";
          } else {
            write_double(out, le);
          }
          out << "\"} " << cumulative << '\n';
        }
        out << name << "_sum ";
        write_double(out, entry.histogram->sum());
        out << '\n';
        out << name << "_count " << cumulative << '\n';
        break;
      }
    }
  }
  return out.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : metrics_) {
    (void)name;
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->value_.store(0, std::memory_order_relaxed);
        break;
      case Kind::kGauge:
        entry.gauge->value_.store(0.0, std::memory_order_relaxed);
        break;
      case Kind::kHistogram:
        for (auto& c : entry.histogram->counts_)
          c.store(0, std::memory_order_relaxed);
        entry.histogram->sum_.store(0.0, std::memory_order_relaxed);
        break;
    }
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

}  // namespace raidsim
