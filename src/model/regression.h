// Online ridge regression for the runtime's input-dependent models
// (paper §4.2: "an array of regression, SVM and PCA techniques …
// building on prior experience on models for predicting execution time and
// power").
//
// Implementation: accumulated normal equations (XᵀX, Xᵀy) with Tikhonov
// damping, solved by Cholesky when a prediction is requested. Dimensions
// are small (≤ 16 features), so exact dense solves are cheap and the model
// can be updated after every task completion.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"

namespace ecoscale {

class RidgeRegression {
 public:
  explicit RidgeRegression(std::size_t dims, double lambda = 1e-3);

  std::size_t dims() const { return dims_; }
  std::size_t observations() const { return observations_; }

  /// Accumulate one (features, target) pair.
  void observe(std::span<const double> features, double target);

  /// Predict the target; nullopt until at least `dims` observations exist
  /// (before that the normal equations are rank-deficient in practice).
  std::optional<double> predict(std::span<const double> features) const;

  /// Solved coefficients (empty until enough observations).
  std::vector<double> coefficients() const;

  /// Mean absolute percentage error over the observed data (running).
  double mean_abs_error() const {
    return observations_ ? abs_err_sum_ / static_cast<double>(observations_)
                         : 0.0;
  }

 private:
  bool solve(std::vector<double>& beta) const;

  std::size_t dims_;
  double lambda_;
  std::vector<double> xtx_;  // dims × dims, row-major
  std::vector<double> xty_;  // dims
  std::size_t observations_ = 0;
  mutable std::vector<double> cached_beta_;
  mutable bool cache_valid_ = false;
  // solve() scratch, kept so a re-solve allocates nothing once warm.
  mutable std::vector<double> factor_;  // Cholesky factor L, dims × dims
  mutable std::vector<double> z_;       // forward-substitution result
  double abs_err_sum_ = 0.0;
};

/// Feature standardiser: running mean/std per dimension, used to keep the
/// normal equations well-conditioned across wildly different scales
/// (items vs. bytes). This is the pragmatic stand-in for the paper's PCA
/// preprocessing step.
class FeatureScaler {
 public:
  explicit FeatureScaler(std::size_t dims)
      : dims_(dims), mean_(dims, 0.0), m2_(dims, 0.0) {}

  void observe(std::span<const double> x);
  std::vector<double> transform(std::span<const double> x) const;
  std::size_t count() const { return n_; }

 private:
  std::size_t dims_;
  std::size_t n_ = 0;
  std::vector<double> mean_;
  std::vector<double> m2_;
};

}  // namespace ecoscale
