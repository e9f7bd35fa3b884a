// PerfExplorer analysis server (paper §5.3, Fig. 3).
//
// "PerfExplorer is designed as a client-server system. The client makes
// requests to an analysis server back end, which is integrated with a
// performance database, using PerfDMF. … the analysis server selects the
// data of interest, gets the relevant profile data and hands it off to an
// analysis application, R. When R is done with the analysis, the results
// are saved to the database, using the PerfDMF API. … The browse requests
// are also processed by the PerfExplorer server."
//
// This module is that server: clients submit AnalysisRequests (by trial
// id), the server pulls the profile through DatabaseAPI, runs the native
// statistics engine (replacing the R process boundary), stores the result
// in the ANALYSIS_RESULT extension table, and serves browse requests.
// submit_async() runs requests on a worker pool, mirroring the detached
// back-end of the paper.
//
// Each worker owns a lightweight Connection over the server's shared
// Database, so requests on different workers — and concurrent browse
// calls from client threads — overlap: the profile loads are read-only
// and execute in parallel under the database's shared-read lock, with
// only the final result insert serializing. Completion is published
// under a mutex and signalled on a condition variable, giving clients a
// happens-before edge between a request finishing and wait_idle() (or a
// counter read) observing it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/database_api.h"
#include "util/thread_pool.h"

namespace perfdmf::explorer {

enum class AnalysisKind {
  kKMeans,        // cluster threads; params: k
  kHierarchical,  // dendrogram + cut; params: k
  kCorrelation,   // metric correlation matrix
  kPca,           // dimension reduction summary
  kDescriptive,   // per-event descriptive statistics for one metric
  kImbalance,     // per-event load imbalance + outlier threads
};

const char* analysis_kind_name(AnalysisKind kind);

struct AnalysisRequest {
  std::int64_t trial_id = -1;
  AnalysisKind kind = AnalysisKind::kDescriptive;
  std::size_t k = 3;          // clusters, for the clustering kinds
  std::string metric_name;    // kDescriptive: which metric (default: first)
  std::uint64_t seed = 99;    // determinism for k-means
};

struct AnalysisResponse {
  std::int64_t result_id = -1;  // row in ANALYSIS_RESULT
  std::string kind;
  std::string summary;   // one-line human synopsis
  std::string content;   // full rendered result (also stored in the DB)
};

class AnalysisServer {
 public:
  /// `workers` sizes the async pool (0 = synchronous submits only).
  explicit AnalysisServer(std::shared_ptr<sqldb::Connection> connection,
                          std::size_t workers = 2);
  ~AnalysisServer();
  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  /// Run the request now on the calling thread. Throws on bad requests.
  AnalysisResponse submit(const AnalysisRequest& request);

  /// Queue the request on the worker pool. When a pending bound is set
  /// (PERFDMF_ANALYSIS_MAX_PENDING, read at construction) and that many
  /// requests are already in flight, throws DbError{kOverloaded}
  /// immediately instead of queueing without bound — clients back off
  /// and retry rather than wedging the pool.
  std::future<AnalysisResponse> submit_async(const AnalysisRequest& request);

  /// Browse stored results for a trial (the client's result view).
  std::vector<api::DatabaseAPI::AnalysisResult> browse(std::int64_t trial_id);

  /// Block until every request submitted (sync or async) so far has
  /// completed; safe to call from any client thread.
  void wait_idle();
  std::size_t submitted_count() const;
  std::size_t completed_count() const;

  api::DatabaseAPI& api() { return api_; }

 private:
  AnalysisResponse run(api::DatabaseAPI& api, const AnalysisRequest& request);
  AnalysisResponse run_counted(api::DatabaseAPI& api,
                               const AnalysisRequest& request);

  api::DatabaseAPI* acquire_worker_api();
  void release_worker_api(api::DatabaseAPI* api);

  api::DatabaseAPI api_;  // serves submit() and browse() on caller threads
  std::unique_ptr<util::ThreadPool> pool_;

  // One DatabaseAPI (with its own Connection over the shared Database)
  // per worker; handed out to tasks so requests never share a handle.
  std::vector<std::unique_ptr<api::DatabaseAPI>> worker_apis_;
  std::vector<api::DatabaseAPI*> idle_apis_;  // guarded by state_mutex_

  mutable std::mutex state_mutex_;
  std::condition_variable idle_cv_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t max_pending_ = 0;  // 0 = unbounded
};

}  // namespace perfdmf::explorer
