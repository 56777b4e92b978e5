#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/check.h"

namespace pitex {
namespace obs {

size_t ThreadShard() {
  // Round-robin assignment at first use spreads concurrent threads over
  // the shards deterministically-enough; the slot is sticky for the
  // thread's lifetime so a counter's shard never migrates mid-burst.
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    PITEX_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                    "histogram bounds must be strictly increasing");
  }
}

void Histogram::Observe(double v) {
  size_t bucket = bounds_.size();  // +Inf
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::Counts() const {
  std::vector<uint64_t> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t Histogram::TotalCount() const {
  return total_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

const MetricValue* MetricsSnapshot::Find(std::string_view name) const {
  for (const MetricValue& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const MetricValue* metric = Find(name);
  PITEX_CHECK_MSG(metric != nullptr, "unknown counter name");
  PITEX_CHECK_MSG(metric->type == MetricType::kCounter,
                  "metric is not a counter");
  return metric->counter;
}

int64_t MetricsSnapshot::GaugeValue(std::string_view name) const {
  const MetricValue* metric = Find(name);
  PITEX_CHECK_MSG(metric != nullptr, "unknown gauge name");
  PITEX_CHECK_MSG(metric->type == MetricType::kGauge, "metric is not a gauge");
  return metric->gauge;
}

uint64_t MetricsSnapshot::HistogramCount(std::string_view name) const {
  const MetricValue* metric = Find(name);
  PITEX_CHECK_MSG(metric != nullptr, "unknown histogram name");
  PITEX_CHECK_MSG(metric->type == MetricType::kHistogram,
                  "metric is not a histogram");
  return metric->count;
}

namespace {

void AppendDouble(std::string* out, double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out->append(buffer);
}

void AppendUint(std::string* out, uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llu",
                static_cast<unsigned long long>(v));
  out->append(buffer);
}

void AppendInt(std::string* out, int64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(v));
  out->append(buffer);
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  // Metric names are [a-z0-9_] identifiers and help strings are ASCII
  // prose without quotes/backslashes (enforced by convention, not
  // escaping), so plain concatenation yields valid JSON.
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricValue& metric : metrics) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += metric.name;
    out += "\",\"type\":\"";
    out += TypeName(metric.type);
    out += "\"";
    switch (metric.type) {
      case MetricType::kCounter:
        out += ",\"value\":";
        AppendUint(&out, metric.counter);
        break;
      case MetricType::kGauge:
        out += ",\"value\":";
        AppendInt(&out, metric.gauge);
        break;
      case MetricType::kHistogram: {
        out += ",\"count\":";
        AppendUint(&out, metric.count);
        out += ",\"sum\":";
        AppendDouble(&out, metric.sum);
        out += ",\"buckets\":[";
        for (size_t i = 0; i < metric.bucket_counts.size(); ++i) {
          if (i > 0) out += ",";
          out += "{\"le\":";
          if (i < metric.bounds.size()) {
            AppendDouble(&out, metric.bounds[i]);
          } else {
            out += "\"+Inf\"";
          }
          out += ",\"count\":";
          AppendUint(&out, metric.bucket_counts[i]);
          out += "}";
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const MetricValue& metric : metrics) {
    out += "# HELP ";
    out += metric.name;
    out += " ";
    out += metric.help;
    out += "\n# TYPE ";
    out += metric.name;
    out += " ";
    out += TypeName(metric.type);
    out += "\n";
    switch (metric.type) {
      case MetricType::kCounter:
        out += metric.name;
        out += " ";
        AppendUint(&out, metric.counter);
        out += "\n";
        break;
      case MetricType::kGauge:
        out += metric.name;
        out += " ";
        AppendInt(&out, metric.gauge);
        out += "\n";
        break;
      case MetricType::kHistogram: {
        // Prometheus buckets are cumulative and always end at +Inf.
        uint64_t cumulative = 0;
        for (size_t i = 0; i < metric.bucket_counts.size(); ++i) {
          cumulative += metric.bucket_counts[i];
          out += metric.name;
          out += "_bucket{le=\"";
          if (i < metric.bounds.size()) {
            AppendDouble(&out, metric.bounds[i]);
          } else {
            out += "+Inf";
          }
          out += "\"} ";
          AppendUint(&out, cumulative);
          out += "\n";
        }
        out += metric.name;
        out += "_sum ";
        AppendDouble(&out, metric.sum);
        out += "\n";
        out += metric.name;
        out += "_count ";
        AppendUint(&out, metric.count);
        out += "\n";
        break;
      }
    }
  }
  return out;
}

MetricsRegistry::Entry* MetricsRegistry::FindLocked(std::string_view name,
                                                    MetricType type) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      PITEX_CHECK_MSG(entry.type == type,
                      "metric re-registered with a different type");
      return &entry;
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::RegisterCounter(std::string_view name,
                                          std::string_view help) {
  MutexLock lock(mutex_);
  if (Entry* existing = FindLocked(name, MetricType::kCounter)) {
    return existing->counter.get();
  }
  entries_.emplace_back(name, help, MetricType::kCounter);
  entries_.back().counter = std::make_unique<Counter>();
  return entries_.back().counter.get();
}

Gauge* MetricsRegistry::RegisterGauge(std::string_view name,
                                      std::string_view help) {
  MutexLock lock(mutex_);
  if (Entry* existing = FindLocked(name, MetricType::kGauge)) {
    return existing->gauge.get();
  }
  entries_.emplace_back(name, help, MetricType::kGauge);
  entries_.back().gauge = std::make_unique<Gauge>();
  return entries_.back().gauge.get();
}

Histogram* MetricsRegistry::RegisterHistogram(std::string_view name,
                                              std::string_view help,
                                              std::vector<double> bounds) {
  MutexLock lock(mutex_);
  if (Entry* existing = FindLocked(name, MetricType::kHistogram)) {
    return existing->histogram.get();
  }
  entries_.emplace_back(name, help, MetricType::kHistogram);
  entries_.back().histogram = std::make_unique<Histogram>(std::move(bounds));
  return entries_.back().histogram.get();
}

void MetricsRegistry::AddCollector(std::function<void()> collector) {
  PITEX_CHECK(collector != nullptr);
  MutexLock lock(mutex_);
  collectors_.push_back(std::move(collector));
}

MetricsSnapshot MetricsRegistry::Snapshot() {
  MetricsSnapshot snapshot;
  MutexLock lock(mutex_);
  // Collectors mirror internally-synchronized sources into gauges
  // before the read pass; holding mutex_ serializes concurrent
  // Snapshot() callers so collector-side delta state needs no extra
  // locking. Collectors must not call back into this registry.
  for (const std::function<void()>& collector : collectors_) collector();
  snapshot.metrics.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    MetricValue value;
    value.name = entry.name;
    value.help = entry.help;
    value.type = entry.type;
    switch (entry.type) {
      case MetricType::kCounter:
        value.counter = entry.counter->Value();
        break;
      case MetricType::kGauge:
        value.gauge = entry.gauge->Value();
        break;
      case MetricType::kHistogram:
        value.bounds = entry.histogram->bounds();
        value.bucket_counts = entry.histogram->Counts();
        value.count = entry.histogram->TotalCount();
        value.sum = entry.histogram->Sum();
        break;
    }
    snapshot.metrics.push_back(std::move(value));
  }
  return snapshot;
}

namespace {

struct HotCounterInfo {
  const char* name;
  const char* help;
};

constexpr HotCounterInfo kHotCounterInfo[] = {
    {"pitex_solve_deadline_checks_total",
     "Cooperative deadline checkpoints evaluated by the best-effort solver"},
    {"pitex_solve_frontier_pops_total",
     "Frontier pops in the best-effort solver search loop"},
    {"pitex_cache_probes_total", "ResultCache lookup calls (hits + misses)"},
    {"pitex_cache_insert_calls_total", "ResultCache insert calls"},
    {"pitex_pool_tasks_total", "Tasks executed by ThreadPool workers"},
};
static_assert(sizeof(kHotCounterInfo) / sizeof(kHotCounterInfo[0]) ==
                  static_cast<size_t>(HotCounter::kHotCounterCount),
              "hot counter names out of sync with the enum");

// Static storage: usable before main() and from PITEX_NOALLOC bodies
// (no dynamic initialization -- Counter's members are zero-initialized
// atomics).
Counter g_hot_counters[static_cast<size_t>(HotCounter::kHotCounterCount)];

}  // namespace

Counter& HotCounterRef(HotCounter which) {
  return g_hot_counters[static_cast<size_t>(which)];
}

MetricsSnapshot HotCountersSnapshot() {
  MetricsSnapshot snapshot;
  for (size_t i = 0; i < static_cast<size_t>(HotCounter::kHotCounterCount);
       ++i) {
    MetricValue value;
    value.name = kHotCounterInfo[i].name;
    value.help = kHotCounterInfo[i].help;
    value.type = MetricType::kCounter;
    value.counter = g_hot_counters[i].Value();
    snapshot.metrics.push_back(std::move(value));
  }
  return snapshot;
}

}  // namespace obs
}  // namespace pitex
