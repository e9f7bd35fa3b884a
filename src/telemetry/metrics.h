// Self-hosted telemetry: process-global metrics registry.
//
// PerfDMF's thesis is that performance data belongs in a queryable
// database; this layer applies that discipline to the framework itself.
// Hot paths record into named counters, gauges, and fixed-bucket latency
// histograms ("sqldb.wal.fsync_micros", "sqldb.plan_cache.hits", ...);
// the sqldb executor serves the registry back as the virtual table
// PERFDMF_METRICS, so telemetry is filtered and aggregated with the same
// SQL used on profile rows (see sqldb/system_tables.h).
//
// Cost model: a recording is one relaxed atomic RMW guarded by one
// relaxed atomic load (the runtime enable flag). Registration is
// mutex-protected and happens once per site (function-local static
// reference); object addresses are stable for the process lifetime.
//
// Kill switch: configuring with -DPERFDMF_TELEMETRY=OFF defines
// PERFDMF_TELEMETRY_DISABLED, which compiles every recording to nothing
// while keeping the registry, the system tables, and all call sites —
// queries against PERFDMF_METRICS then see zeros, and the overhead is
// exactly zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#if defined(PERFDMF_TELEMETRY_DISABLED)
#define PERFDMF_TELEMETRY_ENABLED 0
#else
#define PERFDMF_TELEMETRY_ENABLED 1
#endif

namespace perfdmf::telemetry {

/// Compile-time state, as a testable constant.
constexpr bool compiled_in() { return PERFDMF_TELEMETRY_ENABLED != 0; }

#if PERFDMF_TELEMETRY_ENABLED
namespace detail {
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

/// Runtime master switch (default on). Disabling stops all recording —
/// already-registered metrics keep their last values.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
#else
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#endif

/// Monotonic event count. Relaxed increments; no hot-path locking.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depths, open handles).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram over non-negative integer samples
/// (microseconds by convention — names end in "_micros").
///
/// Buckets are geometric with four subdivisions per power of two, so a
/// reported percentile is within ~19% of the exact sample quantile while
/// recording stays a single relaxed increment into a fixed array.
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 4 * 40;  // up to ~2^40 us

  void record(std::uint64_t sample) noexcept {
    if (!enabled()) return;
    buckets_[bucket_of(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }
  /// Sink interface for util::ScopedTimer.
  void record_micros(std::uint64_t micros) noexcept { record(micros); }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  /// Estimated value at quantile `q` in [0,1]: the upper bound of the
  /// bucket where the cumulative count crosses q * count (0 when empty).
  double percentile(double q) const noexcept;

  void reset() noexcept;

  static std::size_t bucket_of(std::uint64_t sample) noexcept;
  /// Largest sample that lands in bucket `index` (its inclusive upper bound).
  static std::uint64_t bucket_upper_bound(std::size_t index) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// One registry entry, rendered for the PERFDMF_METRICS system table and
/// the JSON export. Histogram-only fields are negative (-> SQL NULL) for
/// counters and gauges.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;  // counter/gauge: value; histogram: mean
  std::int64_t count = -1;
  double sum = -1.0;
  double p50 = -1.0;
  double p95 = -1.0;
  double p99 = -1.0;
};

const char* metric_kind_name(MetricSample::Kind kind);

/// Process-global name -> metric table. Thread-safe registration;
/// returned references are valid for the process lifetime, so hot paths
/// register once (function-local static) and record lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create. Re-registering the same name with a different
  /// metric kind throws InvalidArgument (one name, one time series).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Consistent-enough view for queries: each metric is read atomically,
  /// the set is the registration set at call time, sorted by name.
  std::vector<MetricSample> snapshot() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;

  struct Entry {
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(std::string_view name, MetricSample::Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// The whole registry as a JSON object string:
/// {"metrics":[{"name":...,"kind":...,"value":...,...},...]}.
std::string metrics_to_json();

/// Escape `text` for embedding inside a JSON string literal.
std::string json_escape(std::string_view text);

}  // namespace perfdmf::telemetry
