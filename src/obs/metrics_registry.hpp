#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace raidsim {

/// Registry of named counters, gauges, and log-bucketed histograms --
/// the live-telemetry counterpart of the per-run Tracer. instance() is
/// the process-wide one (engine and health series); each svc::Supervisor
/// owns another for its `raidsim_svc_*` series. The service's `metrics`
/// op scrapes both as Prometheus text; raidsim_top renders it.
///
/// Discipline (same as tracing): telemetry is passive. A metric update
/// never touches simulation state, so registry-on runs are bit-identical
/// to registry-off runs -- tests/runner/progress_test.cpp asserts it at
/// shards 0 and 2. Updates are lock-free relaxed atomics, one per counter
/// and one bucket array plus a sum per histogram: every update site is
/// per job, per health event, or once per 4096 simulated events per
/// shard, so contention is negligible. A disabled registry
/// (set_enabled(false)) reduces every update to one relaxed bool load and
/// a branch.
///
/// Instrumentation sites hold `Counter&`/`Gauge&` references obtained
/// once at setup (registration takes a mutex; updates never do).

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<std::uint64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// Instantaneous value (queue depth, in-flight jobs).
/// Single atomic double: set() is a store, add() a CAS loop.
class Gauge {
 public:
  void set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Log-bucketed histogram for latency-like quantities, the atomic
/// sibling of util/stats.hpp's Histogram: buckets cover
/// [min_value, max_value) geometrically, values outside clamp into the
/// edge buckets. Atomic bucket counts + sum keep observe() lock-free.
class HistogramMetric {
 public:
  void observe(double x);

  std::uint64_t count() const;
  double sum() const;
  /// Per-bucket counts (size bucket_count()).
  std::vector<std::uint64_t> bucket_counts() const;
  std::size_t bucket_count() const { return buckets_; }
  /// Inclusive upper bound of bucket i (Prometheus `le`); the last
  /// bucket's bound is +infinity.
  double bucket_upper_bound(std::size_t i) const;

 private:
  friend class MetricsRegistry;
  HistogramMetric(const std::atomic<bool>* enabled, double min_value,
                  double max_value, std::size_t buckets);

  std::size_t bucket_index(double x) const;

  std::size_t buckets_;
  double min_value_;
  double log_min_;
  double log_step_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
  const std::atomic<bool>* enabled_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the engine and health monitor instrument
  /// into.
  static MetricsRegistry& instance();

  /// Register (or look up) a metric. Names must match
  /// [a-zA-Z_][a-zA-Z0-9_]*; re-registering an existing name returns the
  /// same object (help text from the first registration wins) and throws
  /// std::invalid_argument when the kinds conflict. References stay
  /// valid for the registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  HistogramMetric& histogram(const std::string& name, const std::string& help,
                             double min_value = 0.01, double max_value = 1e5,
                             std::size_t buckets = 40);

  /// Runtime kill switch (default on). Off: every update is one relaxed
  /// load + branch; values freeze. perf_harness's `telemetry` section
  /// measures the on/off delta.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Prometheus text exposition of every registered metric, name-sorted:
  /// `# HELP` / `# TYPE` headers, counter/gauge samples, cumulative
  /// `_bucket{le=...}` series plus `_sum`/`_count` for histograms.
  std::string scrape() const;

  /// Zero every registered metric (tests and benchmark isolation).
  void reset();

  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  /// Find-or-create under mu_. The metric object is constructed here,
  /// while the lock is still held, so concurrent first registrations of
  /// one name agree on a single object and scrape()/reset() never see a
  /// half-initialized Entry. Histogram layout params are ignored for
  /// counters/gauges.
  Entry& lookup(const std::string& name, Kind kind, const std::string& help,
                double min_value = 0.0, double max_value = 0.0,
                std::size_t buckets = 0);

  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;  // sorted -> stable scrape order
};

}  // namespace raidsim
