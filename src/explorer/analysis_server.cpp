#include "explorer/analysis_server.h"

#include <cstdio>
#include <cstdlib>

#include "analysis/correlation.h"
#include "analysis/imbalance.h"
#include "analysis/hierarchical.h"
#include "analysis/kmeans.h"
#include "analysis/pca.h"
#include "analysis/stats.h"
#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/timer.h"

namespace perfdmf::explorer {

namespace {
telemetry::Gauge& queue_depth_gauge() {
  static telemetry::Gauge& g =
      telemetry::MetricsRegistry::instance().gauge("explorer.queue.depth");
  return g;
}

telemetry::Counter& shed_counter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::instance().counter("explorer.requests_shed");
  return c;
}

std::size_t max_pending_from_env() {
  const char* raw = std::getenv("PERFDMF_ANALYSIS_MAX_PENDING");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  return (end != raw && v > 0) ? static_cast<std::size_t>(v) : 0;
}
}  // namespace

const char* analysis_kind_name(AnalysisKind kind) {
  switch (kind) {
    case AnalysisKind::kKMeans: return "kmeans";
    case AnalysisKind::kHierarchical: return "hierarchical";
    case AnalysisKind::kCorrelation: return "correlation";
    case AnalysisKind::kPca: return "pca";
    case AnalysisKind::kDescriptive: return "descriptive";
    case AnalysisKind::kImbalance: return "imbalance";
  }
  return "?";
}

AnalysisServer::AnalysisServer(std::shared_ptr<sqldb::Connection> connection,
                               std::size_t workers)
    : api_(std::move(connection)) {
  max_pending_ = max_pending_from_env();
  if (workers > 0) {
    // Per-worker connections over the shared database: requests on
    // different workers read in parallel under the shared-read lock.
    worker_apis_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      worker_apis_.push_back(std::make_unique<api::DatabaseAPI>(
          std::make_shared<sqldb::Connection>(
              api_.connection_ptr()->database_ptr())));
      idle_apis_.push_back(worker_apis_.back().get());
    }
    pool_ = std::make_unique<util::ThreadPool>(workers);
  }
}

AnalysisServer::~AnalysisServer() {
  // Drain outstanding requests before the worker APIs are torn down.
  if (pool_) pool_->wait_idle();
}

AnalysisResponse AnalysisServer::submit(const AnalysisRequest& request) {
  {
    std::lock_guard lock(state_mutex_);
    ++submitted_;
  }
  queue_depth_gauge().add(1);
  return run_counted(api_, request);
}

std::future<AnalysisResponse> AnalysisServer::submit_async(
    const AnalysisRequest& request) {
  if (!pool_) {
    {
      std::lock_guard lock(state_mutex_);
      ++submitted_;
    }
    queue_depth_gauge().add(1);
    // Degenerate synchronous mode: fulfill immediately.
    std::promise<AnalysisResponse> promise;
    try {
      promise.set_value(run_counted(api_, request));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
    return promise.get_future();
  }
  {
    // Backpressure: shed instead of queueing without bound. The check
    // and the slot claim (++submitted_) happen under the same lock that
    // counts completions, so the in-flight count can't race past the
    // bound.
    std::lock_guard lock(state_mutex_);
    if (max_pending_ > 0 && submitted_ - completed_ >= max_pending_) {
      shed_counter().add();
      throw DbError("analysis server overloaded: " +
                        std::to_string(submitted_ - completed_) +
                        " requests pending (max " +
                        std::to_string(max_pending_) + ")",
                    DbError::Kind::kOverloaded);
    }
    ++submitted_;
  }
  queue_depth_gauge().add(1);
  auto task = std::make_shared<std::packaged_task<AnalysisResponse()>>(
      [this, request] {
        api::DatabaseAPI* worker = acquire_worker_api();
        try {
          AnalysisResponse response = run_counted(*worker, request);
          release_worker_api(worker);
          return response;
        } catch (...) {
          release_worker_api(worker);
          throw;
        }
      });
  auto future = task->get_future();
  // The request was counted before enqueueing (the task may complete
  // before we could count it afterwards); roll the count back if the
  // enqueue itself fails — a submitted_ with no matching completion
  // would wedge every later wait_idle().
  try {
    pool_->submit([task] { (*task)(); });
  } catch (...) {
    {
      std::lock_guard lock(state_mutex_);
      --submitted_;
      idle_cv_.notify_all();
    }
    queue_depth_gauge().add(-1);
    throw;
  }
  return future;
}

std::vector<api::DatabaseAPI::AnalysisResult> AnalysisServer::browse(
    std::int64_t trial_id) {
  return api_.list_analysis_results(trial_id);
}

void AnalysisServer::wait_idle() {
  std::unique_lock lock(state_mutex_);
  idle_cv_.wait(lock, [this] { return completed_ == submitted_; });
}

std::size_t AnalysisServer::submitted_count() const {
  std::lock_guard lock(state_mutex_);
  return submitted_;
}

std::size_t AnalysisServer::completed_count() const {
  std::lock_guard lock(state_mutex_);
  return completed_;
}

api::DatabaseAPI* AnalysisServer::acquire_worker_api() {
  std::lock_guard lock(state_mutex_);
  // Never empty: the pool bounds concurrency to the number of APIs.
  api::DatabaseAPI* api = idle_apis_.back();
  idle_apis_.pop_back();
  return api;
}

void AnalysisServer::release_worker_api(api::DatabaseAPI* api) {
  std::lock_guard lock(state_mutex_);
  idle_apis_.push_back(api);
}

AnalysisResponse AnalysisServer::run_counted(api::DatabaseAPI& api,
                                             const AnalysisRequest& request) {
  auto& registry = telemetry::MetricsRegistry::instance();
  static auto& requests = registry.counter("explorer.requests");
  static auto& failures = registry.counter("explorer.request_failures");
  static auto& request_micros = registry.histogram("explorer.request_micros");
  requests.add();
  util::WallTimer request_timer;
  // Count completion for failures too; otherwise wait_idle() would hang
  // after a rejected request.
  try {
    AnalysisResponse response = run(api, request);
    {
      std::lock_guard lock(state_mutex_);
      ++completed_;
      idle_cv_.notify_all();
    }
    queue_depth_gauge().add(-1);
    request_micros.record(
        static_cast<std::uint64_t>(request_timer.seconds() * 1e6));
    return response;
  } catch (...) {
    {
      std::lock_guard lock(state_mutex_);
      ++completed_;
      idle_cv_.notify_all();
    }
    queue_depth_gauge().add(-1);
    failures.add();
    request_micros.record(
        static_cast<std::uint64_t>(request_timer.seconds() * 1e6));
    throw;
  }
}

AnalysisResponse AnalysisServer::run(api::DatabaseAPI& api,
                                     const AnalysisRequest& request) {
  if (!api.get_trial(request.trial_id)) {
    throw InvalidArgument("analysis request for unknown trial " +
                          std::to_string(request.trial_id));
  }
  // "the analysis server selects the data of interest, gets the relevant
  // profile data" — one full load per request; requests are independent.
  profile::TrialData trial = api.load_trial(request.trial_id);

  AnalysisResponse response;
  response.kind = analysis_kind_name(request.kind);
  char line[256];

  switch (request.kind) {
    case AnalysisKind::kKMeans: {
      auto features = analysis::thread_features(trial);
      analysis::KMeansOptions options;
      options.k = request.k;
      options.seed = request.seed;
      auto result = analysis::kmeans(features.values, features.rows,
                                     features.cols, options);
      std::snprintf(line, sizeof line,
                    "k=%zu threads=%zu inertia=%.4f iterations=%zu",
                    result.centroids.size(), features.rows, result.inertia,
                    result.iterations);
      response.summary = line;
      response.content = response.summary + "\nsizes:";
      for (std::size_t s : result.cluster_sizes) {
        response.content += " " + std::to_string(s);
      }
      response.content += "\nassignment:";
      for (std::size_t a : result.assignment) {
        response.content += " " + std::to_string(a);
      }
      break;
    }
    case AnalysisKind::kHierarchical: {
      auto features = analysis::thread_features(trial);
      auto tree = analysis::hierarchical_cluster(features.values, features.rows,
                                                 features.cols);
      auto assignment = tree.cut(request.k);
      std::snprintf(line, sizeof line, "k=%zu threads=%zu merges=%zu",
                    request.k, features.rows, tree.merges.size());
      response.summary = line;
      response.content = response.summary + "\nassignment:";
      for (std::size_t a : assignment) {
        response.content += " " + std::to_string(a);
      }
      break;
    }
    case AnalysisKind::kCorrelation: {
      auto matrix = analysis::correlate_metrics(trial);
      auto strong = analysis::strong_correlations(matrix, 0.8);
      std::snprintf(line, sizeof line, "metrics=%zu strong_pairs=%zu",
                    matrix.metric_names.size(), strong.size());
      response.summary = line;
      response.content = analysis::format_correlation_matrix(matrix);
      break;
    }
    case AnalysisKind::kPca: {
      auto features = analysis::thread_features(trial);
      auto result =
          analysis::pca(features.values, features.rows, features.cols, 2);
      double cumulative = 0.0;
      std::size_t needed = 0;
      for (double ratio : result.explained_variance_ratio) {
        cumulative += ratio;
        ++needed;
        if (cumulative >= 0.95) break;
      }
      std::snprintf(line, sizeof line,
                    "dims=%zu components_for_95pct=%zu top_ratio=%.4f",
                    features.cols, needed,
                    result.explained_variance_ratio.empty()
                        ? 0.0
                        : result.explained_variance_ratio[0]);
      response.summary = line;
      response.content = response.summary;
      break;
    }
    case AnalysisKind::kDescriptive: {
      auto metric = request.metric_name.empty()
                        ? std::optional<std::size_t>(0)
                        : trial.find_metric(request.metric_name);
      if (!metric || trial.metrics().empty()) {
        throw InvalidArgument("descriptive analysis: no such metric '" +
                              request.metric_name + "'");
      }
      response.content = "event\tcount\tmin\tmean\tmax\tstddev\n";
      std::size_t events_summarized = 0;
      for (std::size_t e = 0; e < trial.events().size(); ++e) {
        std::vector<double> values;
        for (std::size_t t = 0; t < trial.threads().size(); ++t) {
          const auto* p = trial.interval_data(e, t, *metric);
          if (p != nullptr) values.push_back(p->exclusive);
        }
        if (values.empty()) continue;
        ++events_summarized;
        auto d = analysis::describe(values);
        std::snprintf(line, sizeof line, "%s\t%zu\t%.6g\t%.6g\t%.6g\t%.6g\n",
                      trial.events()[e].name.c_str(), d.count, d.minimum,
                      d.mean, d.maximum, d.std_dev);
        response.content += line;
      }
      std::snprintf(line, sizeof line, "events=%zu threads=%zu",
                    events_summarized, trial.threads().size());
      response.summary = line;
      break;
    }
    case AnalysisKind::kImbalance: {
      const std::string metric =
          request.metric_name.empty() && !trial.metrics().empty()
              ? trial.metrics()[0].name
              : request.metric_name;
      auto rows = analysis::compute_imbalance(trial, metric);
      auto outliers = analysis::find_outlier_threads(trial, metric);
      std::snprintf(line, sizeof line,
                    "events=%zu worst_imbalance=%.1f%% outliers=%zu",
                    rows.size(), rows.empty() ? 0.0 : rows.front().imbalance_pct,
                    outliers.size());
      response.summary = line;
      response.content = analysis::format_imbalance_table(rows);
      for (const auto& outlier : outliers) {
        std::snprintf(line, sizeof line, "outlier %s z=%+.2f total=%.4g\n",
                      profile::to_string(outlier.thread).c_str(),
                      outlier.z_score, outlier.total);
        response.content += line;
      }
      break;
    }
  }

  // "the results are saved to the database, using the PerfDMF API."
  response.result_id = api.save_analysis_result(
      request.trial_id, response.summary, response.kind, response.content);
  return response;
}

}  // namespace perfdmf::explorer
