#include "src/common/metrics.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/common/logging.h"

namespace magicdb {

namespace {

/// Index of the bucket covering `value`: floor(log2(value)) clamped to the
/// bucket range; 0 and 1 both land in bucket 0.
int BucketIndex(int64_t value) {
  if (value <= 1) return 0;
  int i = 0;
  uint64_t v = static_cast<uint64_t>(value);
  while (v > 1 && i < LatencyHistogram::kNumBuckets - 1) {
    v >>= 1;
    ++i;
  }
  return i;
}

}  // namespace

void LatencyHistogram::Observe(int64_t value) {
  if (value < 0) value = 0;
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

int64_t LatencyHistogram::BucketUpperBound(int i) {
  if (i >= kNumBuckets - 1) return std::numeric_limits<int64_t>::max();
  return (int64_t{1} << (i + 1)) - 1;
}

std::array<int64_t, LatencyHistogram::kNumBuckets>
LatencyHistogram::BucketCounts() const {
  std::array<int64_t, kNumBuckets> out{};
  for (int i = 0; i < kNumBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double LatencyHistogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const auto counts = BucketCounts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Rank of the target observation (1-based), then walk buckets.
  const double rank = q * static_cast<double>(total);
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) >= rank) {
      const double lower = i == 0 ? 0.0 : static_cast<double>(int64_t{1} << i);
      const double upper = i >= kNumBuckets - 1
                               ? lower * 2.0
                               : static_cast<double>(int64_t{1} << (i + 1));
      const double into = std::max(0.0, rank - static_cast<double>(seen));
      return lower +
             (upper - lower) * (into / static_cast<double>(counts[i]));
    }
    seen += counts[i];
  }
  return static_cast<double>(BucketUpperBound(kNumBuckets - 2));
}

std::string MetricSeries::ToString() const {
  if (label.key.empty()) return name;
  return name + "{" + label.key + "=" + label.value + "}";
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const MetricLabel& label) {
  std::string key = MetricSeries{name, label}.ToString();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = scalars_.try_emplace(std::move(key));
  if (inserted) it->second.series = {name, label};
  MAGICDB_CHECK(!it->second.read);
  return &it->second.counter;
}

LatencyHistogram* MetricsRegistry::histogram(const std::string& name,
                                             const MetricLabel& label) {
  std::string key = MetricSeries{name, label}.ToString();
  std::lock_guard<std::mutex> lock(mu_);
  return &histograms_.try_emplace(std::move(key)).first->second;
}

void MetricsRegistry::gauge(const std::string& name,
                            std::function<int64_t()> read) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = scalars_.try_emplace(name);
  MAGICDB_CHECK(inserted);
  it->second.series.name = name;
  it->second.read = std::move(read);
}

std::vector<MetricSample> MetricsRegistry::Samples() const {
  std::vector<const Scalar*> scalars;
  {
    std::lock_guard<std::mutex> lock(mu_);
    scalars.reserve(scalars_.size());
    for (const auto& [key, scalar] : scalars_) scalars.push_back(&scalar);
  }
  // Gauge callbacks may take their owner's locks: call them unlocked.
  std::vector<MetricSample> out;
  out.reserve(scalars.size());
  for (const Scalar* scalar : scalars) {
    out.push_back({scalar->series, scalar->read ? scalar->read()
                                                : scalar->counter.Value()});
  }
  return out;
}

std::map<std::string, int64_t> MetricsRegistry::CounterValues() const {
  std::map<std::string, int64_t> out;
  for (const MetricSample& sample : Samples()) {
    out[sample.series.ToString()] = sample.value;
  }
  return out;
}

std::string MetricsRegistry::TextDump() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  for (const MetricSample& sample : Samples()) {
    os << sample.series.ToString() << " " << sample.value << "\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, hist] : histograms_) {
    os << key << " count=" << hist.Count() << " sum=" << hist.Sum()
       << " p50=" << hist.Quantile(0.50) << " p95=" << hist.Quantile(0.95)
       << " p99=" << hist.Quantile(0.99) << "\n";
  }
  return os.str();
}

}  // namespace magicdb
