// Tests for the PerfExplorer-style mining stack: k-means, PCA, metric
// correlation, ARI.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/correlation.h"
#include "analysis/kmeans.h"
#include "analysis/pca.h"
#include "io/synth.h"
#include "util/error.h"
#include "util/rng.h"

using namespace perfdmf;
using namespace perfdmf::analysis;

// ----------------------------------------------------------------- k-means

TEST(KMeans, SeparatesObviousClusters) {
  // Two tight 2-D blobs.
  std::vector<double> data;
  for (int i = 0; i < 20; ++i) {
    data.push_back(0.0 + 0.01 * i);
    data.push_back(0.0);
  }
  for (int i = 0; i < 20; ++i) {
    data.push_back(10.0 + 0.01 * i);
    data.push_back(10.0);
  }
  KMeansOptions options;
  options.k = 2;
  auto result = kmeans(data, 40, 2, options);
  EXPECT_EQ(result.centroids.size(), 2u);
  // All of the first 20 share a label; all of the last 20 share the other.
  for (int i = 1; i < 20; ++i) EXPECT_EQ(result.assignment[i], result.assignment[0]);
  for (int i = 21; i < 40; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[20]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[20]);
  EXPECT_LT(result.inertia, 2.0);
}

TEST(KMeans, DeterministicForSeed) {
  std::vector<double> data;
  for (int i = 0; i < 30; ++i) data.push_back(static_cast<double>(i % 7));
  KMeansOptions options;
  options.k = 3;
  auto a = kmeans(data, 30, 1, options);
  auto b = kmeans(data, 30, 1, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, KClampedToRowCount) {
  std::vector<double> data{1.0, 2.0, 3.0};
  KMeansOptions options;
  options.k = 10;
  auto result = kmeans(data, 3, 1, options);
  EXPECT_EQ(result.centroids.size(), 3u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-18);
}

TEST(KMeans, IdenticalPointsYieldZeroInertia) {
  std::vector<double> data(20, 5.0);
  KMeansOptions options;
  options.k = 2;
  auto result = kmeans(data, 20, 1, options);
  EXPECT_NEAR(result.inertia, 0.0, 1e-18);
}

TEST(KMeans, ClusterSizesSumToRows) {
  io::synth::ClusterSpec spec;
  spec.threads = 50;
  auto planted = io::synth::generate_clustered_trial(spec);
  auto features = thread_features(planted.trial);
  KMeansOptions options;
  options.k = 3;
  auto result = kmeans(features.values, features.rows, features.cols, options);
  std::size_t total = 0;
  for (std::size_t s : result.cluster_sizes) total += s;
  EXPECT_EQ(total, features.rows);
}

TEST(KMeans, BadInputThrows) {
  KMeansOptions options;
  EXPECT_THROW(kmeans({}, 0, 0, options), InvalidArgument);
  EXPECT_THROW(kmeans({1.0}, 1, 2, options), InvalidArgument);
  options.k = 0;
  EXPECT_THROW(kmeans({1.0, 2.0}, 2, 1, options), InvalidArgument);
}

TEST(KMeans, RecoversPlantedClustersInSyntheticTrial) {
  io::synth::ClusterSpec spec;
  spec.threads = 120;
  spec.cluster_count = 3;
  spec.cluster_separation = 8.0;
  auto planted = io::synth::generate_clustered_trial(spec);
  auto features = thread_features(planted.trial);
  KMeansOptions options;
  options.k = 3;
  options.restarts = 5;
  auto result = kmeans(features.values, features.rows, features.cols, options);
  const double ari = adjusted_rand_index(result.assignment, planted.ground_truth);
  EXPECT_GT(ari, 0.95);
}

TEST(ThreadFeatures, ShapeAndNormalization) {
  io::synth::TrialSpec spec;
  spec.nodes = 4;
  spec.event_count = 3;
  spec.extra_metrics = {"PAPI_FP_OPS"};
  auto trial = io::synth::generate_trial(spec);
  auto features = thread_features(trial);
  EXPECT_EQ(features.rows, 4u);
  EXPECT_EQ(features.cols, 6u);  // 3 events x 2 metrics
  EXPECT_EQ(features.column_names.size(), 6u);
  // z-scored: column sums ~ 0
  for (std::size_t c = 0; c < features.cols; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < features.rows; ++r) {
      sum += features.values[r * features.cols + c];
    }
    EXPECT_NEAR(sum, 0.0, 1e-9);
  }
}

TEST(SummarizeClusters, MeansOfAssignedRows) {
  ThreadFeatureMatrix m;
  m.rows = 4;
  m.cols = 1;
  m.values = {1.0, 3.0, 10.0, 20.0};
  KMeansResult result;
  result.assignment = {0, 0, 1, 1};
  result.centroids = {{0.0}, {0.0}};
  auto means = summarize_clusters(m, result);
  EXPECT_DOUBLE_EQ(means[0][0], 2.0);
  EXPECT_DOUBLE_EQ(means[1][0], 15.0);
}

TEST(Ari, PerfectAgreementIsOne) {
  std::vector<std::size_t> a{0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, a), 1.0);
  // Label permutation still perfect.
  std::vector<std::size_t> b{1, 1, 2, 2, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, b), 1.0);
}

TEST(Ari, RandomAssignmentNearZero) {
  std::vector<std::size_t> a;
  std::vector<std::size_t> b;
  for (int i = 0; i < 400; ++i) {
    a.push_back(static_cast<std::size_t>(i % 2));
    b.push_back(static_cast<std::size_t>((i / 7) % 2));
  }
  EXPECT_NEAR(adjusted_rand_index(a, b), 0.0, 0.1);
}

TEST(Ari, SizeMismatchThrows) {
  EXPECT_THROW(adjusted_rand_index({0, 1}, {0}), InvalidArgument);
  EXPECT_THROW(adjusted_rand_index({}, {}), InvalidArgument);
}

// --------------------------------------------------------------------- PCA

TEST(Pca, RecoversDominantDirection) {
  // Points along the line y = 2x with tiny noise: first component should
  // be ~ (1, 2)/sqrt(5) and explain almost all variance.
  std::vector<double> data;
  for (int i = -10; i <= 10; ++i) {
    const double x = static_cast<double>(i);
    data.push_back(x);
    data.push_back(2.0 * x + 0.001 * ((i % 3) - 1));
  }
  auto result = pca(data, 21, 2, 2);
  EXPECT_GT(result.explained_variance_ratio[0], 0.999);
  const double ratio = std::fabs(result.components[0][1] / result.components[0][0]);
  EXPECT_NEAR(ratio, 2.0, 1e-3);
}

TEST(Pca, EigenvaluesSortedDescending) {
  std::vector<double> data;
  perfdmf::util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    data.push_back(10.0 * rng.next_gaussian());
    data.push_back(1.0 * rng.next_gaussian());
    data.push_back(0.1 * rng.next_gaussian());
  }
  auto result = pca(data, 50, 3);
  EXPECT_GE(result.eigenvalues[0], result.eigenvalues[1]);
  EXPECT_GE(result.eigenvalues[1], result.eigenvalues[2]);
}

TEST(Pca, ProjectionWidthRespectsKeep) {
  std::vector<double> data(30 * 4, 1.0);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i % 5);
  auto result = pca(data, 30, 4, 2);
  EXPECT_EQ(result.projected_dims, 2u);
  EXPECT_EQ(result.projected.size(), 60u);
}

TEST(Pca, BadShapeThrows) {
  EXPECT_THROW(pca({}, 0, 0), InvalidArgument);
  EXPECT_THROW(pca({1.0, 2.0}, 2, 2), InvalidArgument);
}

TEST(SymmetricEigen, DiagonalizesKnownMatrix) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  std::vector<double> matrix{2.0, 1.0, 1.0, 2.0};
  std::vector<double> eigenvalues;
  std::vector<std::vector<double>> eigenvectors;
  symmetric_eigen(matrix, 2, eigenvalues, eigenvectors);
  EXPECT_NEAR(eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eigenvalues[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eigenvectors[0][0]), std::sqrt(0.5), 1e-9);
  EXPECT_NEAR(std::fabs(eigenvectors[0][1]), std::sqrt(0.5), 1e-9);
}

namespace {

struct Eigen {
  std::vector<double> values;
  std::vector<std::vector<double>> vectors;
};

Eigen decompose(const std::vector<double>& matrix, std::size_t n) {
  Eigen out;
  symmetric_eigen(matrix, n, out.values, out.vectors);
  return out;
}

double frobenius(const std::vector<double>& m) {
  double sum = 0.0;
  for (double x : m) sum += x * x;
  return std::sqrt(sum);
}

/// ||A - V^T diag(values) V||_F / ||A||_F, with eigenvectors as rows of V
/// (the absolute residual when A is zero).
double reconstruction_error(const std::vector<double>& a, std::size_t n,
                            const Eigen& eig) {
  std::vector<double> residual = a;
  for (std::size_t k = 0; k < n; ++k) {
    const auto& v = eig.vectors[k];
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        residual[i * n + j] -= eig.values[k] * v[i] * v[j];
      }
    }
  }
  const double norm = frobenius(a);
  return norm > 0.0 ? frobenius(residual) / norm : frobenius(residual);
}

/// ||V V^T - I||_F over the eigenvector rows.
double orthonormality_error(const Eigen& eig, std::size_t n) {
  std::vector<double> gram(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += eig.vectors[a][i] * eig.vectors[b][i];
      }
      gram[a * n + b] = dot - (a == b ? 1.0 : 0.0);
    }
  }
  return frobenius(gram);
}

std::vector<double> random_symmetric(std::size_t n, std::uint64_t seed) {
  perfdmf::util::Rng rng(seed);
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      m[i * n + j] = m[j * n + i] = rng.uniform(-1.0, 1.0);
    }
  }
  return m;
}

void expect_sorted_descending(const Eigen& eig) {
  for (std::size_t k = 1; k < eig.values.size(); ++k) {
    EXPECT_GE(eig.values[k - 1], eig.values[k]) << "at rank " << k;
  }
}

}  // namespace

TEST(SymmetricEigen, RandomMatricesReconstructAndStayOrthonormal) {
  for (std::size_t n : {1u, 2u, 3u, 17u, 168u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      const auto a = random_symmetric(n, seed * 1000 + n);
      const Eigen eig = decompose(a, n);
      ASSERT_EQ(eig.values.size(), n);
      ASSERT_EQ(eig.vectors.size(), n);
      EXPECT_LE(reconstruction_error(a, n, eig), 1e-12);
      EXPECT_LE(orthonormality_error(eig, n), 1e-12);
      expect_sorted_descending(eig);
    }
  }
}

TEST(SymmetricEigen, RepeatedEigenvalues) {
  // 3I + u u^T: eigenvalue 3 with multiplicity n-1, and 3 + |u|^2 along u.
  const std::size_t n = 6;
  const std::vector<double> u{1.0, 2.0, 0.0, -1.0, 0.5, 3.0};
  double u_norm2 = 0.0;
  for (double x : u) u_norm2 += x * x;
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a[i * n + j] = u[i] * u[j] + (i == j ? 3.0 : 0.0);
    }
  }
  const Eigen eig = decompose(a, n);
  EXPECT_NEAR(eig.values[0], 3.0 + u_norm2, 1e-12 * u_norm2);
  for (std::size_t k = 1; k < n; ++k) EXPECT_NEAR(eig.values[k], 3.0, 1e-12);
  double along_u = 0.0;
  for (std::size_t i = 0; i < n; ++i) along_u += eig.vectors[0][i] * u[i];
  EXPECT_NEAR(std::fabs(along_u), std::sqrt(u_norm2), 1e-12);
  EXPECT_LE(reconstruction_error(a, n, eig), 1e-12);
  EXPECT_LE(orthonormality_error(eig, n), 1e-12);
}

TEST(SymmetricEigen, ZeroMatrix) {
  const std::size_t n = 5;
  const std::vector<double> a(n * n, 0.0);
  const Eigen eig = decompose(a, n);
  for (double lambda : eig.values) EXPECT_EQ(lambda, 0.0);
  EXPECT_LE(orthonormality_error(eig, n), 1e-12);
}

TEST(SymmetricEigen, DiagonalMatrixIsAlreadySolved) {
  const std::vector<double> diagonal{2.0, -1.0, 7.0, 0.0, 3.5};
  const std::size_t n = diagonal.size();
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] = diagonal[i];
  const Eigen eig = decompose(a, n);
  const std::vector<double> expected{7.0, 3.5, 2.0, 0.0, -1.0};
  const std::vector<std::size_t> axis{2, 4, 0, 3, 1};
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(eig.values[k], expected[k]);
    EXPECT_EQ(std::fabs(eig.vectors[k][axis[k]]), 1.0) << "rank " << k;
  }
  EXPECT_LE(orthonormality_error(eig, n), 1e-12);
}

TEST(SymmetricEigen, RankDeficientExploreCovariance) {
  // The explore workload's PCA input: 128 threads x (24 events x 7
  // metrics) = 168 feature columns, so the covariance has rank <= 127
  // and at least 41 eigenvalues that are zero up to rounding.
  io::synth::ClusterSpec spec;
  spec.threads = 128;
  spec.event_count = 24;
  spec.metric_count = 7;
  auto planted = io::synth::generate_clustered_trial(spec);
  auto features = thread_features(planted.trial);
  ASSERT_EQ(features.rows, 128u);
  ASSERT_EQ(features.cols, 168u);
  auto result = pca(features.values, features.rows, features.cols);
  const double top = result.eigenvalues[0];
  ASSERT_GT(top, 0.0);
  std::size_t near_zero = 0;
  for (double lambda : result.eigenvalues) {
    EXPECT_GE(lambda, -1e-9 * top);
    if (std::fabs(lambda) <= 1e-9 * top) ++near_zero;
  }
  EXPECT_GE(near_zero, 41u);
  double ratio_sum = 0.0;
  for (double ratio : result.explained_variance_ratio) ratio_sum += ratio;
  EXPECT_NEAR(ratio_sum, 1.0, 1e-12);
}

TEST(SymmetricEigen, BadSizeThrows) {
  std::vector<double> values;
  std::vector<std::vector<double>> vectors;
  EXPECT_THROW(symmetric_eigen({}, 0, values, vectors), InvalidArgument);
  EXPECT_THROW(symmetric_eigen({1.0, 2.0, 3.0}, 2, values, vectors),
               InvalidArgument);
}

// ------------------------------------------------------------- correlation

TEST(Correlation, DiagonalIsOneAndSymmetric) {
  io::synth::ClusterSpec spec;
  spec.threads = 40;
  spec.metric_count = 4;
  auto planted = io::synth::generate_clustered_trial(spec);
  auto matrix = correlate_metrics(planted.trial);
  const std::size_t n = matrix.metric_names.size();
  ASSERT_EQ(n, 4u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(matrix.at(i, i), 1.0);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(matrix.at(i, j), matrix.at(j, i));
    }
  }
}

TEST(Correlation, DetectsConstructedLinearRelation) {
  profile::TrialData trial;
  const std::size_t a = trial.intern_metric("A");
  const std::size_t b = trial.intern_metric("B");
  const std::size_t c = trial.intern_metric("C");
  const std::size_t e = trial.intern_event("f");
  for (int n = 0; n < 16; ++n) {
    const std::size_t t = trial.intern_thread({n, 0, 0});
    profile::IntervalDataPoint p;
    p.exclusive = static_cast<double>(n + 1);
    trial.set_interval_data(e, t, a, p);
    p.exclusive = 3.0 * static_cast<double>(n + 1);  // perfectly correlated
    trial.set_interval_data(e, t, b, p);
    p.exclusive = static_cast<double>((n * 7919) % 13);  // scrambled
    trial.set_interval_data(e, t, c, p);
  }
  auto matrix = correlate_metrics(trial);
  EXPECT_NEAR(matrix.at(a, b), 1.0, 1e-12);
  EXPECT_LT(std::fabs(matrix.at(a, c)), 0.6);

  auto strong = strong_correlations(matrix, 0.9);
  ASSERT_EQ(strong.size(), 1u);
  EXPECT_EQ(strong[0].metric_a, "A");
  EXPECT_EQ(strong[0].metric_b, "B");
}

TEST(Correlation, EventScopingChangesInput) {
  profile::TrialData trial;
  const std::size_t a = trial.intern_metric("A");
  const std::size_t b = trial.intern_metric("B");
  const std::size_t e1 = trial.intern_event("correlated");
  const std::size_t e2 = trial.intern_event("anti");
  for (int n = 0; n < 8; ++n) {
    const std::size_t t = trial.intern_thread({n, 0, 0});
    profile::IntervalDataPoint p;
    p.exclusive = n + 1.0;
    trial.set_interval_data(e1, t, a, p);
    trial.set_interval_data(e1, t, b, p);
    trial.set_interval_data(e2, t, a, p);
    p.exclusive = 100.0 - n;
    trial.set_interval_data(e2, t, b, p);
  }
  auto scoped = correlate_metrics(trial, "anti");
  EXPECT_NEAR(scoped.at(0, 1), -1.0, 1e-12);
  EXPECT_THROW(correlate_metrics(trial, "missing"), InvalidArgument);
}

TEST(Correlation, EmptyTrialThrows) {
  profile::TrialData trial;
  EXPECT_THROW(correlate_metrics(trial), InvalidArgument);
}

TEST(Correlation, FormatsMatrix) {
  profile::TrialData trial;
  trial.intern_metric("A");
  trial.intern_metric("B");
  trial.intern_event("e");
  trial.intern_thread({0, 0, 0});
  profile::IntervalDataPoint p;
  p.exclusive = 1.0;
  trial.set_interval_data(0, 0, 0, p);
  trial.set_interval_data(0, 0, 1, p);
  const std::string table = format_correlation_matrix(correlate_metrics(trial));
  EXPECT_NE(table.find("metric"), std::string::npos);
  EXPECT_NE(table.find("+1.000"), std::string::npos);
}
