// Growth classification of the size series the reproduction benches
// report (bench_util.h), kept free of library dependencies so it can be
// tested on its own.

#ifndef REVISE_BENCH_GROWTH_VERDICT_H_
#define REVISE_BENCH_GROWTH_VERDICT_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace revise::bench {

// Residual sum of squares of the least-squares line through (xs[i], ys[i]).
inline double LineFitResidual(const std::vector<double>& xs,
                              const std::vector<double>& ys) {
  const double count = static_cast<double>(xs.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mean_x += xs[i] / count;
    mean_y += ys[i] / count;
  }
  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - mean_x) * (xs[i] - mean_x);
    sxy += (xs[i] - mean_x) * (ys[i] - mean_y);
  }
  const double slope = sxy / sxx;
  double residual = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double error = ys[i] - mean_y - slope * (xs[i] - mean_x);
    residual += error * error;
  }
  return residual;
}

// Classifies sizes[i], measured at parameter value params[i], by which of
// two least-squares fits of log size explains the series better: against
// log n (a power law, size ~ c * n^d: "polynomial") or against n (an
// exponential, size ~ c * b^n: "EXPONENTIAL").  Both fits predict the
// same values, so their residuals compare directly; a tie, such as a
// constant series, reads polynomial.  Fitting against the parameter is
// what keeps a linear series sampled at n = 8, 16, 32, 64 from reading as
// exponential just because each step doubles it.  Series with fewer than
// three points, a length mismatch, a zero size, a parameter that is not
// positive and strictly increasing, or a decreasing size get "n/a": a
// noisy series is not evidence of explosion.
inline std::string GrowthVerdict(const std::vector<double>& params,
                                 const std::vector<uint64_t>& sizes) {
  if (sizes.size() < 3 || params.size() != sizes.size()) return "n/a";
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 0 || params[i] <= 0.0) return "n/a";
    if (i > 0 && (sizes[i] < sizes[i - 1] || params[i] <= params[i - 1])) {
      return "n/a";
    }
  }
  std::vector<double> log_params;
  std::vector<double> log_sizes;
  log_params.reserve(sizes.size());
  log_sizes.reserve(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    log_params.push_back(std::log(params[i]));
    log_sizes.push_back(std::log(static_cast<double>(sizes[i])));
  }
  const double power_residual = LineFitResidual(log_params, log_sizes);
  const double exponential_residual = LineFitResidual(params, log_sizes);
  return exponential_residual < power_residual ? "EXPONENTIAL" : "polynomial";
}

}  // namespace revise::bench

#endif  // REVISE_BENCH_GROWTH_VERDICT_H_
