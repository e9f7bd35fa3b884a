#include "telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "util/error.h"

namespace perfdmf::telemetry {

// ------------------------------------------------------------- Histogram

std::size_t Histogram::bucket_of(std::uint64_t sample) noexcept {
  // Four geometric subdivisions per power of two: bucket index is
  // 4*floor(log2(s)) plus the position of the top two bits below the
  // leading one. Samples 0..3 get their own exact buckets.
  if (sample < 4) return static_cast<std::size_t>(sample);
  const unsigned log2 = std::bit_width(sample) - 1;  // >= 2
  const std::uint64_t sub = (sample >> (log2 - 2)) & 3;  // next two bits
  const std::size_t index = 4 * log2 + static_cast<std::size_t>(sub) - 4;
  return std::min(index, kBucketCount - 1);
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t index) noexcept {
  if (index < 4) return index;
  const std::size_t log2 = (index + 4) / 4;
  const std::uint64_t sub = (index + 4) % 4;
  // Upper bound: the largest value whose top bits are (1, sub): one less
  // than the next subdivision's first value.
  return ((4 + sub + 1) << (log2 - 2)) - 1;
}

double Histogram::percentile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      return static_cast<double>(bucket_upper_bound(i));
    }
  }
  return static_cast<double>(bucket_upper_bound(kBucketCount - 1));
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------------- registry

const char* metric_kind_name(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "?";
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(std::string_view name,
                                                   MetricSample::Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case MetricSample::Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricSample::Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricSample::Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  } else if (it->second.kind != kind) {
    throw InvalidArgument("telemetry metric '" + std::string(name) +
                          "' already registered as " +
                          metric_kind_name(it->second.kind) +
                          ", requested as " + metric_kind_name(kind));
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *entry_for(name, MetricSample::Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *entry_for(name, MetricSample::Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return *entry_for(name, MetricSample::Kind::kHistogram).histogram;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case MetricSample::Kind::kCounter:
        sample.value = static_cast<double>(entry.counter->value());
        break;
      case MetricSample::Kind::kGauge:
        sample.value = static_cast<double>(entry.gauge->value());
        break;
      case MetricSample::Kind::kHistogram:
        sample.value = entry.histogram->mean();
        sample.count = static_cast<std::int64_t>(entry.histogram->count());
        sample.sum = static_cast<double>(entry.histogram->sum());
        sample.p50 = entry.histogram->percentile(0.50);
        sample.p95 = entry.histogram->percentile(0.95);
        sample.p99 = entry.histogram->percentile(0.99);
        break;
    }
    out.push_back(std::move(sample));
  }
  return out;  // std::map iteration: already name-sorted
}

// ----------------------------------------------------------- JSON export

namespace {
void append_json_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}
}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string metrics_to_json() {
  const auto samples = MetricsRegistry::instance().snapshot();
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& s : samples) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"kind\":\"";
    out += metric_kind_name(s.kind);
    out += "\",\"value\":";
    append_json_number(out, s.value);
    if (s.kind == MetricSample::Kind::kHistogram) {
      out += ",\"count\":" + std::to_string(s.count) + ",\"sum\":";
      append_json_number(out, s.sum);
      out += ",\"p50\":";
      append_json_number(out, s.p50);
      out += ",\"p95\":";
      append_json_number(out, s.p95);
      out += ",\"p99\":";
      append_json_number(out, s.p99);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace perfdmf::telemetry
