#include "analysis/pca.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.h"

namespace perfdmf::analysis {

namespace {

/// Column-major n x n working matrix: every O(n^3) loop below walks down
/// one column, so it reads contiguous memory.
struct ColumnMajor {
  std::vector<double>& a;
  std::size_t n;
  double& operator()(std::size_t r, std::size_t c) { return a[c * n + r]; }
};

/// Householder reduction of the symmetric `v` to tridiagonal form
/// (EISPACK tred2; Golub & Van Loan §8.3.1). On return `d` holds the
/// diagonal, `e[1..n-1]` the subdiagonal, and `v` the accumulated
/// orthogonal transformation.
void tridiagonalize(ColumnMajor v, std::vector<double>& d,
                    std::vector<double>& e) {
  const std::size_t n = v.n;
  for (std::size_t j = 0; j < n; ++j) d[j] = v(n - 1, j);

  for (std::size_t i = n - 1; i > 0; --i) {
    // Reflect row i onto its subdiagonal entry, scaled against underflow.
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

      // p = A u / h (into e), using the lower triangle only.
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        g = e[j] + v(j, j) * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += v(k, j) * d[k];
          e[k] += v(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      // q = p - (u'p / 2h) u; A -= u q' + q u'.
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) {
          v(k, j) -= f * e[k] + g * d[k];
        }
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the reflections into v.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = v(k, i + 1) / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += v(k, i + 1) * v(k, j);
        for (std::size_t k = 0; k <= i; ++k) v(k, j) -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

/// Implicit QL with Wilkinson-style shifts on the tridiagonal (d, e),
/// rotating the columns of `v` along (EISPACK tql2; Golub & Van Loan
/// §8.3.5). On return `d` holds the eigenvalues and column j of `v` the
/// eigenvector of d[j].
void tridiagonal_ql(ColumnMajor v, std::vector<double>& d,
                    std::vector<double>& e) {
  const std::size_t n = v.n;
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  constexpr int kMaxIterations = 64;  // per eigenvalue; ~2 is typical
  const double eps = std::numeric_limits<double>::epsilon();
  double shift_sum = 0.0;
  double norm = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Split off a small subdiagonal element (e[n-1] is 0, so m stops).
    norm = std::max(norm, std::fabs(d[l]) + std::fabs(e[l]));
    std::size_t m = l;
    while (std::fabs(e[m]) > eps * norm) ++m;

    int iterations = 0;
    while (m > l && std::fabs(e[l]) > eps * norm) {
      if (++iterations > kMaxIterations) {
        throw Error("symmetric_eigen: QL iteration did not converge");
      }
      // Shift by the eigenvalue of the leading 2x2 closer to d[l].
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      shift_sum += h;

      // Chase the bulge from m back up to l with Givens rotations.
      p = d[m];
      double c = 1.0;
      double c2 = c;
      double c3 = c;
      const double el1 = e[l + 1];
      double s = 0.0;
      double s2 = 0.0;
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        double* left = &v(0, i);
        double* right = &v(0, i + 1);
        for (std::size_t k = 0; k < n; ++k) {
          const double vr = right[k];
          right[k] = s * left[k] + c * vr;
          left[k] = c * left[k] - s * vr;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift_sum;
    e[l] = 0.0;
  }
}

}  // namespace

void symmetric_eigen(std::vector<double> matrix, std::size_t n,
                     std::vector<double>& eigenvalues,
                     std::vector<std::vector<double>>& eigenvectors) {
  if (n == 0 || matrix.size() != n * n) {
    throw InvalidArgument("symmetric_eigen: bad matrix size");
  }
  // A symmetric matrix reads the same in either storage order.
  ColumnMajor v{matrix, n};
  std::vector<double> d(n);
  std::vector<double> e(n);
  tridiagonalize(v, d, e);
  tridiagonal_ql(v, d, e);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return d[a] > d[b]; });
  eigenvalues.resize(n);
  eigenvectors.assign(n, std::vector<double>(n));
  for (std::size_t rank = 0; rank < n; ++rank) {
    eigenvalues[rank] = d[order[rank]];
    const double* column = &v(0, order[rank]);
    std::copy(column, column + n, eigenvectors[rank].begin());
  }
}

PcaResult pca(const std::vector<double>& data, std::size_t rows, std::size_t dims,
              std::size_t keep) {
  if (rows == 0 || dims == 0 || data.size() != rows * dims) {
    throw InvalidArgument("pca: bad matrix shape");
  }
  // Mean-center a working copy.
  std::vector<double> centered = data;
  for (std::size_t c = 0; c < dims; ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < rows; ++r) mean += centered[r * dims + c];
    mean /= static_cast<double>(rows);
    for (std::size_t r = 0; r < rows; ++r) centered[r * dims + c] -= mean;
  }

  // Covariance matrix (dims x dims).
  std::vector<double> covariance(dims * dims, 0.0);
  const double denom = rows > 1 ? static_cast<double>(rows - 1) : 1.0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < dims; ++i) {
      const double xi = centered[r * dims + i];
      if (xi == 0.0) continue;
      for (std::size_t j = i; j < dims; ++j) {
        covariance[i * dims + j] += xi * centered[r * dims + j];
      }
    }
  }
  for (std::size_t i = 0; i < dims; ++i) {
    for (std::size_t j = i; j < dims; ++j) {
      covariance[i * dims + j] /= denom;
      covariance[j * dims + i] = covariance[i * dims + j];
    }
  }

  PcaResult out;
  symmetric_eigen(std::move(covariance), dims, out.eigenvalues, out.components);

  double total = 0.0;
  for (double lambda : out.eigenvalues) total += std::max(0.0, lambda);
  for (double lambda : out.eigenvalues) {
    out.explained_variance_ratio.push_back(
        total > 0.0 ? std::max(0.0, lambda) / total : 0.0);
  }

  out.projected_dims = keep == 0 ? dims : std::min(keep, dims);
  out.projected.assign(rows * out.projected_dims, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < out.projected_dims; ++k) {
      double dot = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        dot += centered[r * dims + d] * out.components[k][d];
      }
      out.projected[r * out.projected_dims + k] = dot;
    }
  }
  return out;
}

}  // namespace perfdmf::analysis
