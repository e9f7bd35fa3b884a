// Principal component analysis via a Householder + implicit-QL
// symmetric eigensolver (EISPACK tred2/tql2).
//
// PerfExplorer (paper §5.3) notes that "current visualization tools are
// incapable of displaying thousands of data points with hundreds of
// dimensions"; PCA is the standard dimension-reduction step before
// cluster display. This implementation handles the sizes the paper works
// with (hundreds of dimensions) without external linear-algebra packages.
#pragma once

#include <cstddef>
#include <vector>

namespace perfdmf::analysis {

struct PcaResult {
  std::vector<double> eigenvalues;              // descending, size = dims
  std::vector<std::vector<double>> components;  // dims vectors of size dims
  std::vector<double> explained_variance_ratio;
  /// Rows projected onto the first `projected_dims` components, row-major.
  std::vector<double> projected;
  std::size_t projected_dims = 0;
};

/// `data` row-major (rows x dims); columns are mean-centered internally.
/// `keep` limits the projection width (0 = keep all).
PcaResult pca(const std::vector<double>& data, std::size_t rows, std::size_t dims,
              std::size_t keep = 0);

/// Eigendecomposition of a symmetric matrix (n x n, row-major): Householder
/// tridiagonalization, then implicit QL with shifts, O(n^3) with a small
/// constant. Returns (eigenvalues, eigenvectors as rows), sorted
/// descending. Throws InvalidArgument when n == 0 or the size is not n*n.
void symmetric_eigen(std::vector<double> matrix, std::size_t n,
                     std::vector<double>& eigenvalues,
                     std::vector<std::vector<double>>& eigenvectors);

}  // namespace perfdmf::analysis
