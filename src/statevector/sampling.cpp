#include "statevector/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace qokit {
namespace {

const obs::Counter& draw_counter() {
  static const obs::Counter c = obs::counter("qokit_sampler_draws_total");
  return c;
}

/// Calls step(x, p, cdf) for x = 0, 1, ... with p = |a_x|^2 and cdf the
/// running sum through x, until step returns false: the one summation
/// behind both passes of sample_from_uniforms, so both see the same
/// doubles. The CDF accumulates in double regardless of the amplitude
/// width: an f32 amplitude's re/im are widened first (norm_widened), so
/// the running sum never loses mass to float cancellation and the
/// inverse-CDF clamp semantics are identical at both precisions.
template <class Step>
void sweep_cdf(const StateVector& sv, Step&& step) {
  const std::uint64_t dim = sv.size();
  sv.visit([&](const auto* amp) {
    double acc = 0.0;
    for (std::uint64_t x = 0; x < dim; ++x) {
      const double p = norm_widened(amp[x]);
      acc += p;
      if (!step(x, p, acc)) return;
    }
  });
}

}  // namespace

std::vector<std::uint64_t> sample_from_uniforms(const StateVector& sv,
                                                std::span<const double> u01) {
  obs::Span span("sample");
  span.attr("n", sv.num_qubits());
  span.attr("shots", static_cast<std::int64_t>(u01.size()));
  double total = 0.0;
  std::uint64_t last_nonzero = 0;
  sweep_cdf(sv, [&](std::uint64_t x, double p, double cdf) {
    if (p > 0.0) last_nonzero = x;
    total = cdf;
    return true;
  });
  // A NaN or infinite total would leave the targets unordered.
  if (!(total > 0.0) || !std::isfinite(total))
    throw std::invalid_argument(
        "sample_from_uniforms: zero-norm or non-finite state");
  // (target, shot), sorted by target: one forward sweep then answers
  // every shot, as upper_bound on a cumulative table would.
  std::vector<std::pair<double, std::size_t>> targets(u01.size());
  for (std::size_t s = 0; s < targets.size(); ++s) {
    if (!(u01[s] >= 0.0 && u01[s] <= 1.0))
      throw std::invalid_argument(
          "sample_from_uniforms: variate outside [0, 1]");
    targets[s] = {u01[s] * total, s};
  }
  std::sort(targets.begin(), targets.end());
  std::vector<std::uint64_t> out(targets.size());
  std::size_t next = 0;
  sweep_cdf(sv, [&](std::uint64_t x, double, double cdf) {
    for (; next < targets.size() && targets[next].first < cdf; ++next)
      out[targets[next].second] = x;
    return next < targets.size();
  });
  // Targets at or past the total mass (u01 * total rounding up to it)
  // clamp to the last index with nonzero mass.
  for (; next < targets.size(); ++next)
    out[targets[next].second] = last_nonzero;
  return out;
}

std::vector<std::uint64_t> sample_states(const StateVector& sv, int shots,
                                         Rng& rng) {
  if (shots < 0) throw std::invalid_argument("sample: shots must be >= 0");
  std::vector<double> u01(static_cast<std::size_t>(shots));
  for (double& u : u01) u = rng.uniform();
  draw_counter().add(u01.size());
  return sample_from_uniforms(sv, u01);
}

}  // namespace qokit
