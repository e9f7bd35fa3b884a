// E4 — PerfExplorer cluster analysis (paper §5.3, sPPM / Ahn & Vetter).
//
// Claim reproduced: statistical cluster analysis of large parallel
// profiles (up to 1024 threads, up to 7 PAPI counters) recovers the
// behavioural structure; results are summarized per cluster and saved
// back to the archive. The shape to reproduce: planted clusters are
// recovered (ARI ~ 1) at every scale and the analysis cost stays
// practical as threads grow.
#include <cstdio>

#include "analysis/hierarchical.h"
#include "analysis/kmeans.h"
#include "analysis/pca.h"
#include "api/database_session.h"
#include "bench_json.h"
#include "io/synth.h"
#include "util/timer.h"

using namespace perfdmf;

int main() {
  bench::BenchJson json("cluster");
  std::printf("E4: sPPM-style cluster analysis (7 metrics, 24 events, k=3)\n");
  std::printf("%8s %10s %10s %10s %10s %10s %8s %10s %8s\n", "threads",
              "points", "store(s)", "feat(ms)", "kmeans(ms)", "pca(ms)", "ARI",
              "hier(ms)", "hARI");

  for (std::int32_t threads : {64, 256, 1024}) {
    io::synth::ClusterSpec spec;
    spec.threads = threads;
    spec.cluster_count = 3;
    auto planted = io::synth::generate_clustered_trial(spec);

    api::DatabaseSession session;
    util::WallTimer timer;
    const std::int64_t trial_id =
        session.save_trial(planted.trial, "sppm", "frost");
    const double store_seconds = timer.seconds();

    auto loaded = session.load_selected_trial();
    timer.reset();
    auto features = analysis::thread_features(loaded);
    const double feature_ms = timer.millis();

    analysis::KMeansOptions options;
    options.k = 3;
    options.restarts = 3;
    timer.reset();
    auto clusters = analysis::kmeans(features.values, features.rows,
                                     features.cols, options);
    const double kmeans_ms = timer.millis();

    timer.reset();
    auto reduced =
        analysis::pca(features.values, features.rows, features.cols, 2);
    const double pca_ms = timer.millis();

    const double ari = analysis::adjusted_rand_index(clusters.assignment,
                                                     planted.ground_truth);

    // Hierarchical clustering is O(n^2) memory; cap it at 512 threads.
    double hierarchical_ms = 0.0;
    double hierarchical_ari = 0.0;
    if (threads <= 512) {
      timer.reset();
      auto tree = analysis::hierarchical_cluster(features.values, features.rows,
                                                 features.cols);
      auto assignment = tree.cut(3);
      hierarchical_ms = timer.millis();
      hierarchical_ari =
          analysis::adjusted_rand_index(assignment, planted.ground_truth);
    }
    if (threads <= 512) {
      std::printf("%8d %10zu %10.2f %10.2f %10.2f %10.2f %8.3f %10.2f %8.3f\n",
                  threads, planted.trial.interval_point_count(), store_seconds,
                  feature_ms, kmeans_ms, pca_ms, ari, hierarchical_ms,
                  hierarchical_ari);
    } else {
      std::printf("%8d %10zu %10.2f %10.2f %10.2f %10.2f %8.3f %10s %8s\n",
                  threads, planted.trial.interval_point_count(), store_seconds,
                  feature_ms, kmeans_ms, pca_ms, ari, "-", "-");
    }

    std::string content = "ari=" + std::to_string(ari);
    session.api().save_analysis_result(trial_id, "kmeans", "clustering",
                                       content);
    (void)reduced;

    const std::string prefix = "t" + std::to_string(threads) + "_";
    json.set(prefix + "store_s", store_seconds);
    json.set(prefix + "kmeans_ms", kmeans_ms);
    json.set(prefix + "pca_ms", pca_ms);
    json.set(prefix + "kmeans_ari", ari);
  }
  std::printf("\npaper claim: cluster analysis on up to 1024 threads x 7 PAPI"
              " counters; Ahn & Vetter results reproduced (ARI ~ 1)\n");

  // PCA cost against feature width: the eigensolver is O(dims^3), so the
  // width, not the thread count, sets its cost. 24 events x 7 metrics is
  // the explore workload's shape; 72 events triples the width.
  std::printf("\nPCA vs feature width (128 threads, 7 metrics, best of 3)\n");
  std::printf("%8s %8s %10s\n", "events", "dims", "pca(ms)");
  for (std::size_t events : {24u, 72u}) {
    io::synth::ClusterSpec spec;
    spec.threads = 128;
    spec.event_count = events;
    auto features =
        analysis::thread_features(io::synth::generate_clustered_trial(spec).trial);
    double best_ms = 0.0;
    for (int repeat = 0; repeat < 3; ++repeat) {
      util::WallTimer timer;
      analysis::pca(features.values, features.rows, features.cols, 2);
      const double ms = timer.millis();
      if (repeat == 0 || ms < best_ms) best_ms = ms;
    }
    std::printf("%8zu %8zu %10.2f\n", events, features.cols, best_ms);
    std::string key = "pca_";
    key += std::to_string(features.cols);
    key += "d_ms";
    json.set(key, best_ms);
  }
  json.write();
  return 0;
}
