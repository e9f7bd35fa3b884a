// In-memory container for one trial's complete parallel profile.
//
// Storage is optimized for the paper's scale claim (101 events x 16K
// threads ~ 1.6M data points): events, metrics and threads are interned
// into dense indexes, and data points live in one flat vector addressed
// through a packed-key hash map. Iteration in insertion order is
// deterministic regardless of hashing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "profile/data_model.h"

namespace perfdmf::profile {

class TrialData {
 public:
  // ----- identity -------------------------------------------------------
  /// Trial-level metadata (name, node/context/thread shape, fields).
  Trial& trial() { return trial_; }
  const Trial& trial() const { return trial_; }

  // ----- interning ------------------------------------------------------
  /// Find-or-create; returns the dense index. Event group is only set on
  /// creation (later calls with a different group keep the original).
  std::size_t intern_metric(const std::string& name);
  std::size_t intern_event(const std::string& name, const std::string& group = "");
  std::size_t intern_atomic_event(const std::string& name,
                                  const std::string& group = "");
  std::size_t intern_thread(const ThreadId& id);

  std::optional<std::size_t> find_metric(const std::string& name) const;
  std::optional<std::size_t> find_event(const std::string& name) const;
  std::optional<std::size_t> find_atomic_event(const std::string& name) const;
  std::optional<std::size_t> find_thread(const ThreadId& id) const;

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<IntervalEvent>& events() const { return events_; }
  const std::vector<AtomicEvent>& atomic_events() const { return atomic_events_; }
  const std::vector<ThreadId>& threads() const { return threads_; }

  Metric& metric(std::size_t index) { return metrics_.at(index); }
  IntervalEvent& event(std::size_t index) { return events_.at(index); }
  AtomicEvent& atomic_event(std::size_t index) { return atomic_events_.at(index); }

  // ----- interval data --------------------------------------------------
  /// Set (overwrite) the data point for (event, thread, metric) indexes.
  void set_interval_data(std::size_t event_index, std::size_t thread_index,
                         std::size_t metric_index, const IntervalDataPoint& point);

  /// Make room for `n` more points (a load that knows its row count).
  void reserve_interval_points(std::size_t n);

  const IntervalDataPoint* interval_data(std::size_t event_index,
                                         std::size_t thread_index,
                                         std::size_t metric_index) const;

  /// Visit every stored point in insertion order:
  /// fn(event_index, thread_index, metric_index, point).
  void for_each_interval(
      const std::function<void(std::size_t, std::size_t, std::size_t,
                               const IntervalDataPoint&)>& fn) const;

  std::size_t interval_point_count() const { return interval_points_.size(); }

  // ----- atomic data ----------------------------------------------------
  void set_atomic_data(std::size_t atomic_index, std::size_t thread_index,
                       const AtomicDataPoint& point);
  const AtomicDataPoint* atomic_data(std::size_t atomic_index,
                                     std::size_t thread_index) const;
  void for_each_atomic(const std::function<void(std::size_t, std::size_t,
                                                const AtomicDataPoint&)>& fn) const;
  std::size_t atomic_point_count() const { return atomic_points_.size(); }

  // ----- maintenance ----------------------------------------------------
  /// Recompute inclusive/exclusive percentages (relative to the maximum
  /// inclusive value on each thread+metric, TAU-style) and per-call rates.
  void recompute_derived_fields();

  /// Set trial node/context/thread counts from the interned threads.
  void infer_dimensions();

 private:
  struct IntervalRecord {
    std::uint64_t key;
    IntervalDataPoint point;
  };
  struct AtomicRecord {
    std::uint64_t key;
    AtomicDataPoint point;
  };

  static std::uint64_t pack(std::size_t event, std::size_t thread,
                            std::size_t metric);

  Trial trial_;
  std::vector<Metric> metrics_;
  std::vector<IntervalEvent> events_;
  std::vector<AtomicEvent> atomic_events_;
  std::vector<ThreadId> threads_;

  std::unordered_map<std::string, std::size_t> metric_index_;
  std::unordered_map<std::string, std::size_t> event_index_;
  std::unordered_map<std::string, std::size_t> atomic_index_;
  std::unordered_map<std::uint64_t, std::size_t> thread_index_;

  std::vector<IntervalRecord> interval_points_;
  std::unordered_map<std::uint64_t, std::size_t> interval_lookup_;
  std::vector<AtomicRecord> atomic_points_;
  std::unordered_map<std::uint64_t, std::size_t> atomic_lookup_;
};

}  // namespace perfdmf::profile
