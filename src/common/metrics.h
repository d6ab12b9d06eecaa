#ifndef MAGICDB_COMMON_METRICS_H_
#define MAGICDB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace magicdb {

/// Monotonic atomic counter. Writers call Add/Increment from any thread;
/// Value() is a relaxed read (metrics tolerate slight staleness).
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram with exponential (powers-of-two) bucket
/// bounds: bucket i counts observations in [2^i, 2^(i+1)) units, bucket 0
/// additionally absorbs 0. With microsecond observations the range spans
/// 1us .. ~1.1h, which covers admission waits and query latencies.
///
/// Thread-safe: buckets, count and sum are relaxed atomics; a snapshot is
/// not an atomic cut across them, which is fine for monitoring.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 32;

  void Observe(int64_t value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const {
    const int64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }

  /// Estimated value at quantile `q` in [0, 1]: finds the bucket holding
  /// the q-th observation and interpolates linearly inside it. Exact to
  /// within one bucket's width (a factor of two).
  double Quantile(double q) const;

  /// Inclusive upper bound of bucket `i`.
  static int64_t BucketUpperBound(int i);

  std::array<int64_t, kNumBuckets> BucketCounts() const;

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// The optional `key=value` label of a series; an empty key means the series
/// is unlabelled.
struct MetricLabel {
  std::string key;
  std::string value;
};

/// One series' identity: a metric name plus at most one label. The text
/// dump renders it as `name` or `name{key=value}`.
struct MetricSeries {
  std::string name;
  MetricLabel label;

  std::string ToString() const;
};

/// Point-in-time value of one counter or gauge series.
struct MetricSample {
  MetricSeries series;
  int64_t value = 0;
};

/// Series -> metric registry. Registration happens once (typically at
/// subsystem construction) and returns stable pointers; the hot path then
/// touches only the atomic metric itself. Names follow the
/// `magicdb_<subsystem>_<what>_total` / `_us` convention used by the text
/// dump.
///
/// Besides counters and histograms the registry holds read-through gauges:
/// a callback registered once and called at read time, so a value that lives
/// elsewhere (a thread pool's steal count, a spill area's byte totals, an
/// admission controller's claim) is exported without a copy that can go
/// stale. Callbacks run outside the registry mutex, so they may take their
/// owner's locks.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name` (and `label`), creating it
  /// on first use.
  Counter* counter(const std::string& name, const MetricLabel& label = {});

  /// Returns the histogram registered under `name` (and `label`), creating
  /// it on first use.
  LatencyHistogram* histogram(const std::string& name,
                              const MetricLabel& label = {});

  /// Registers an unlabelled gauge whose value is `read()` at read time.
  /// A series is registered once, as either a counter or a gauge.
  void gauge(const std::string& name, std::function<int64_t()> read);

  /// Every counter and gauge, gauges read now, in text-dump order.
  std::vector<MetricSample> Samples() const;

  /// Point-in-time values of every counter and gauge, keyed by the rendered
  /// series (`name` or `name{key=value}`).
  std::map<std::string, int64_t> CounterValues() const;

  /// Human-readable dump of every metric, sorted by rendered series:
  /// counters and gauges as `name value`, histograms as
  /// `name count=N sum=S p50=.. p95=.. p99=..`.
  std::string TextDump() const;

 private:
  /// A counter or (when `read` is set) a read-through gauge. Entries are
  /// never removed, so pointers to them stay valid after the mutex is
  /// released.
  struct Scalar {
    MetricSeries series;
    Counter counter;
    std::function<int64_t()> read;
  };

  // Keyed by the rendered series, which is also the text-dump order.
  mutable std::mutex mu_;
  std::map<std::string, Scalar> scalars_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace magicdb

#endif  // MAGICDB_COMMON_METRICS_H_
