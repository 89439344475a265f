#include "numeric/least_squares.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace lc::numeric {
namespace {

TEST(SolveLinearSystem, Identity) {
  std::vector<double> a = {1, 0, 0, 1};
  std::vector<double> b = {3, -2};
  ASSERT_TRUE(solve_linear_system(a, b, 2));
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], -2.0);
}

TEST(SolveLinearSystem, General3x3) {
  // A = [[2,1,1],[1,3,2],[1,0,0]], x = [1,2,3] -> b = [7, 13, 1]
  std::vector<double> a = {2, 1, 1, 1, 3, 2, 1, 0, 0};
  std::vector<double> b = {7, 13, 1};
  ASSERT_TRUE(solve_linear_system(a, b, 3));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
  EXPECT_NEAR(b[2], 3.0, 1e-12);
}

TEST(SolveLinearSystem, NeedsPivoting) {
  // Zero on the leading diagonal forces a row swap.
  std::vector<double> a = {0, 1, 1, 0};
  std::vector<double> b = {5, 7};
  ASSERT_TRUE(solve_linear_system(a, b, 2));
  EXPECT_NEAR(b[0], 7.0, 1e-12);
  EXPECT_NEAR(b[1], 5.0, 1e-12);
}

TEST(SolveLinearSystem, SingularFails) {
  std::vector<double> a = {1, 2, 2, 4};
  std::vector<double> b = {1, 2};
  EXPECT_FALSE(solve_linear_system(a, b, 2));
}

TEST(LevenbergMarquardt, FitsLineExactly) {
  // y = 3x + 1 over 10 points; residuals r_i = p0*x_i + p1 - y_i.
  std::vector<double> xs(10);
  std::vector<double> ys(10);
  for (int i = 0; i < 10; ++i) {
    xs[static_cast<std::size_t>(i)] = i;
    ys[static_cast<std::size_t>(i)] = 3.0 * i + 1.0;
  }
  auto residual_fn = [&](const std::vector<double>& p, std::vector<double>& r,
                         std::vector<double>* jac) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      r[i] = p[0] * xs[i] + p[1] - ys[i];
      if (jac != nullptr) {
        (*jac)[i * 2 + 0] = xs[i];
        (*jac)[i * 2 + 1] = 1.0;
      }
    }
  };
  const LeastSquaresResult result = levenberg_marquardt(residual_fn, {0.0, 0.0}, xs.size());
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.params[0], 3.0, 1e-8);
  EXPECT_NEAR(result.params[1], 1.0, 1e-8);
  EXPECT_LT(result.cost, 1e-16);
}

TEST(LevenbergMarquardt, FitsExponentialDecay) {
  // y = 2 e^{-0.7 x}; nonlinear in p1.
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i <= 20; ++i) {
    const double x = 0.25 * i;
    xs.push_back(x);
    ys.push_back(2.0 * std::exp(-0.7 * x));
  }
  auto residual_fn = [&](const std::vector<double>& p, std::vector<double>& r,
                         std::vector<double>* jac) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double e = std::exp(p[1] * xs[i]);
      r[i] = p[0] * e - ys[i];
      if (jac != nullptr) {
        (*jac)[i * 2 + 0] = e;
        (*jac)[i * 2 + 1] = p[0] * xs[i] * e;
      }
    }
  };
  const LeastSquaresResult result = levenberg_marquardt(residual_fn, {1.0, -0.1}, xs.size());
  EXPECT_NEAR(result.params[0], 2.0, 1e-5);
  EXPECT_NEAR(result.params[1], -0.7, 1e-5);
}

TEST(LevenbergMarquardt, NoisyDataStillClose) {
  // Deterministic pseudo-noise on a line.
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.1;
    const double noise = 0.01 * ((static_cast<unsigned>(i) * 2654435761u % 100) / 50.0 - 1.0);
    xs.push_back(x);
    ys.push_back(-1.5 * x + 4.0 + noise);
  }
  auto residual_fn = [&](const std::vector<double>& p, std::vector<double>& r,
                         std::vector<double>* jac) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      r[i] = p[0] * xs[i] + p[1] - ys[i];
      if (jac != nullptr) {
        (*jac)[i * 2 + 0] = xs[i];
        (*jac)[i * 2 + 1] = 1.0;
      }
    }
  };
  const LeastSquaresResult result = levenberg_marquardt(residual_fn, {0.0, 0.0}, xs.size());
  EXPECT_NEAR(result.params[0], -1.5, 0.02);
  EXPECT_NEAR(result.params[1], 4.0, 0.02);
}

}  // namespace
}  // namespace lc::numeric
