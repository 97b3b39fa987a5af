// Special functions: log-space binomial pmf/cdf (the Probability metric of
// Section 5.4 evaluates Binom(oi; m, gi(Le)) where m can be 1000 and the pmf
// underflows double range), normal cdf, and log-gamma helpers.
#pragma once

#include <cmath>

namespace lad {

/// log(n!) for n < kLogFactorialTableSize comes from a table filled once,
/// on first use, with lgamma_r(n + 1); larger n call lgamma_r(n + 1)
/// directly.  Either way the value is bit-identical to lgamma_r(n + 1).
inline constexpr int kLogFactorialTableSize = 4096;
double log_factorial(int n);

/// log C(n, k); requires 0 <= k <= n.
double log_binomial_coefficient(int n, int k);

/// The in-support log-binomial term lbc + k log p + (n - k) log1p(-p), where
/// lbc = log C(n, k), 0 <= k <= n and 0 < p < 1.  A zero exponent skips its
/// log: both logs are negative there, so the product it stands for is
/// -0.0, and x + -0.0 == x bit for bit - the skip is the full formula.
inline double log_binomial_term(double lbc, int k, int n, double p) {
  const double lp = k == 0 ? -0.0 : k * std::log(p);
  const double lq = k == n ? -0.0 : (n - k) * std::log1p(-p);
  return lbc + lp + lq;
}

/// log Binom(k; n, p) = log_binomial_term(log C(n, k), k, n, p) inside the
/// support.  Exact conventions at the boundary:
///   p == 0:  log pmf = 0 if k == 0 else -inf
///   p == 1:  log pmf = 0 if k == n else -inf
double log_binomial_pmf(int k, int n, double p);

/// Binom(k; n, p) in linear space (may underflow to 0 for extreme tails).
double binomial_pmf(int k, int n, double p);

/// P(X <= k) for X ~ Binom(n, p); direct summation in log space.
double binomial_cdf(int k, int n, double p);

/// Standard normal CDF.
double normal_cdf(double x);

/// Standard normal pdf.
double normal_pdf(double x);

/// 2-D isotropic Gaussian pdf with std sigma, evaluated at distance r from
/// the mean: (1 / (2 pi sigma^2)) exp(-r^2 / (2 sigma^2)).  This is the
/// paper's deployment pdf f(x, y) written radially.
double gaussian2d_pdf_radial(double r, double sigma);

/// Rayleigh CDF: P(|X| <= r) for the 2-D isotropic Gaussian above; equals
/// 1 - exp(-r^2 / (2 sigma^2)).  This is the first (z < R) term of Theorem 1.
double rayleigh_cdf(double r, double sigma);

}  // namespace lad
