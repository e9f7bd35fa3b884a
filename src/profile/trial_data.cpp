#include "profile/trial_data.h"

#include <algorithm>

#include "util/error.h"

namespace perfdmf::profile {

namespace {
// Packed key layout: event (24 bits) | thread (28 bits) | metric (12 bits).
// Bounds are far above the paper's largest dataset (101 events, 16K
// threads, 7 metrics) and checked on interning.
constexpr std::size_t kMaxEvents = 1u << 24;
constexpr std::size_t kMaxThreads = 1u << 28;
constexpr std::size_t kMaxMetrics = 1u << 12;

std::uint64_t pack_thread_id(const ThreadId& id) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.node)) << 32) ^
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(id.context)) << 16) ^
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(id.thread));
}
}  // namespace

std::string to_string(const ThreadId& id) {
  return std::to_string(id.node) + ":" + std::to_string(id.context) + ":" +
         std::to_string(id.thread);
}

std::uint64_t TrialData::pack(std::size_t event, std::size_t thread,
                              std::size_t metric) {
  return (static_cast<std::uint64_t>(event) << 40) |
         (static_cast<std::uint64_t>(thread) << 12) |
         static_cast<std::uint64_t>(metric);
}

std::size_t TrialData::intern_metric(const std::string& name) {
  auto it = metric_index_.find(name);
  if (it != metric_index_.end()) return it->second;
  if (metrics_.size() >= kMaxMetrics) {
    throw InvalidArgument("too many metrics in one trial");
  }
  Metric metric;
  metric.name = name;
  metrics_.push_back(std::move(metric));
  metric_index_.emplace(name, metrics_.size() - 1);
  return metrics_.size() - 1;
}

std::size_t TrialData::intern_event(const std::string& name,
                                    const std::string& group) {
  auto it = event_index_.find(name);
  if (it != event_index_.end()) return it->second;
  if (events_.size() >= kMaxEvents) {
    throw InvalidArgument("too many interval events in one trial");
  }
  IntervalEvent event;
  event.name = name;
  event.group = group;
  events_.push_back(std::move(event));
  event_index_.emplace(name, events_.size() - 1);
  return events_.size() - 1;
}

std::size_t TrialData::intern_atomic_event(const std::string& name,
                                           const std::string& group) {
  auto it = atomic_index_.find(name);
  if (it != atomic_index_.end()) return it->second;
  AtomicEvent event;
  event.name = name;
  event.group = group;
  atomic_events_.push_back(std::move(event));
  atomic_index_.emplace(name, atomic_events_.size() - 1);
  return atomic_events_.size() - 1;
}

std::size_t TrialData::intern_thread(const ThreadId& id) {
  const std::uint64_t key = pack_thread_id(id);
  auto it = thread_index_.find(key);
  if (it != thread_index_.end()) return it->second;
  if (threads_.size() >= kMaxThreads) {
    throw InvalidArgument("too many threads in one trial");
  }
  threads_.push_back(id);
  thread_index_.emplace(key, threads_.size() - 1);
  return threads_.size() - 1;
}

std::optional<std::size_t> TrialData::find_metric(const std::string& name) const {
  auto it = metric_index_.find(name);
  if (it == metric_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> TrialData::find_event(const std::string& name) const {
  auto it = event_index_.find(name);
  if (it == event_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> TrialData::find_atomic_event(
    const std::string& name) const {
  auto it = atomic_index_.find(name);
  if (it == atomic_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> TrialData::find_thread(const ThreadId& id) const {
  auto it = thread_index_.find(pack_thread_id(id));
  if (it == thread_index_.end()) return std::nullopt;
  return it->second;
}

void TrialData::reserve_interval_points(std::size_t n) {
  interval_points_.reserve(interval_points_.size() + n);
  interval_lookup_.reserve(interval_points_.size() + n);
}

void TrialData::set_interval_data(std::size_t event_index, std::size_t thread_index,
                                  std::size_t metric_index,
                                  const IntervalDataPoint& point) {
  if (event_index >= events_.size() || thread_index >= threads_.size() ||
      metric_index >= metrics_.size()) {
    throw InvalidArgument("interval data index out of range");
  }
  const std::uint64_t key = pack(event_index, thread_index, metric_index);
  const auto [it, added] =
      interval_lookup_.try_emplace(key, interval_points_.size());
  if (!added) {
    interval_points_[it->second].point = point;
    return;
  }
  interval_points_.push_back({key, point});
}

const IntervalDataPoint* TrialData::interval_data(std::size_t event_index,
                                                  std::size_t thread_index,
                                                  std::size_t metric_index) const {
  auto it = interval_lookup_.find(pack(event_index, thread_index, metric_index));
  if (it == interval_lookup_.end()) return nullptr;
  return &interval_points_[it->second].point;
}

void TrialData::for_each_interval(
    const std::function<void(std::size_t, std::size_t, std::size_t,
                             const IntervalDataPoint&)>& fn) const {
  for (const auto& record : interval_points_) {
    fn(record.key >> 40, (record.key >> 12) & ((1u << 28) - 1),
       record.key & ((1u << 12) - 1), record.point);
  }
}

void TrialData::set_atomic_data(std::size_t atomic_index, std::size_t thread_index,
                                const AtomicDataPoint& point) {
  if (atomic_index >= atomic_events_.size() || thread_index >= threads_.size()) {
    throw InvalidArgument("atomic data index out of range");
  }
  const std::uint64_t key = pack(atomic_index, thread_index, 0);
  auto it = atomic_lookup_.find(key);
  if (it != atomic_lookup_.end()) {
    atomic_points_[it->second].point = point;
    return;
  }
  atomic_lookup_.emplace(key, atomic_points_.size());
  atomic_points_.push_back({key, point});
}

const AtomicDataPoint* TrialData::atomic_data(std::size_t atomic_index,
                                              std::size_t thread_index) const {
  auto it = atomic_lookup_.find(pack(atomic_index, thread_index, 0));
  if (it == atomic_lookup_.end()) return nullptr;
  return &atomic_points_[it->second].point;
}

void TrialData::for_each_atomic(
    const std::function<void(std::size_t, std::size_t, const AtomicDataPoint&)>& fn)
    const {
  for (const auto& record : atomic_points_) {
    fn(record.key >> 40, (record.key >> 12) & ((1u << 28) - 1), record.point);
  }
}

void TrialData::recompute_derived_fields() {
  // Pass 1: per (thread, metric), the maximum inclusive value — TAU treats
  // this as the total runtime of that thread for that metric.
  std::unordered_map<std::uint64_t, double> totals;
  for (const auto& record : interval_points_) {
    const std::uint64_t thread_metric = record.key & ((1ull << 40) - 1);
    auto [it, inserted] = totals.try_emplace(thread_metric, record.point.inclusive);
    if (!inserted) it->second = std::max(it->second, record.point.inclusive);
  }
  // Pass 2: percentages and per-call.
  for (auto& record : interval_points_) {
    const std::uint64_t thread_metric = record.key & ((1ull << 40) - 1);
    const double total = totals[thread_metric];
    IntervalDataPoint& p = record.point;
    p.inclusive_pct = total > 0.0 ? 100.0 * p.inclusive / total : 0.0;
    p.exclusive_pct = total > 0.0 ? 100.0 * p.exclusive / total : 0.0;
    p.inclusive_per_call = p.num_calls > 0.0 ? p.inclusive / p.num_calls : 0.0;
  }
}

void TrialData::infer_dimensions() {
  std::int32_t max_node = -1;
  std::int32_t max_context = -1;
  std::int32_t max_thread = -1;
  for (const auto& t : threads_) {
    max_node = std::max(max_node, t.node);
    max_context = std::max(max_context, t.context);
    max_thread = std::max(max_thread, t.thread);
  }
  trial_.node_count = max_node + 1;
  trial_.contexts_per_node = max_context + 1;
  trial_.threads_per_context = max_thread + 1;
}

}  // namespace perfdmf::profile
