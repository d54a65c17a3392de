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

/// |a|^2 in double. The CDF accumulates in double regardless of the
/// amplitude width: an f32 amplitude's re/im are widened first, so the
/// running sum never loses mass to float cancellation and the inverse-CDF
/// clamp semantics are identical at both precisions.
double mass(const cdouble& a) { return std::norm(a); }
double mass(const cfloat& a) {
  const double re = a.real(), im = a.imag();
  return re * re + im * im;
}

/// Calls visit(x, p, cdf) for x = 0, 1, ... with p = |a_x|^2 and cdf the
/// running sum through x, until visit returns false: the one summation
/// behind StateSampler's table and both passes of sample_states, so all
/// three see the same doubles.
template <class Visit>
void sweep_cdf(const StateVector& sv, Visit&& visit) {
  const std::uint64_t dim = sv.size();
  const auto run = [&](const auto* amp) {
    double acc = 0.0;
    for (std::uint64_t x = 0; x < dim; ++x) {
      const double p = mass(amp[x]);
      acc += p;
      if (!visit(x, p, acc)) return;
    }
  };
  if (sv.precision() == Precision::F32)
    run(sv.data_f32());
  else
    run(sv.data());
}

}  // namespace

StateSampler::StateSampler(const StateVector& sv) {
  static const obs::Counter builds =
      obs::counter("qokit_sampler_builds_total");
  builds.add();
  obs::Span span("sampler_build");
  span.attr("n", sv.num_qubits());
  cumulative_.resize(sv.size());
  sweep_cdf(sv, [this](std::uint64_t x, double p, double cdf) {
    if (p > 0.0) last_nonzero_ = x;
    cumulative_[x] = cdf;
    return true;
  });
  if (cumulative_.empty() || cumulative_.back() <= 0.0)
    throw std::invalid_argument("StateSampler: zero-norm state");
}

std::uint64_t StateSampler::sample_from_uniform(double u01) const {
  const double u = u01 * cumulative_.back();
  const auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  // upper_bound never lands on a zero-probability index mid-table (its
  // cumulative value equals its predecessor's, so it is never the *first*
  // entry exceeding u). The end() case — u at or beyond the total mass,
  // reachable when rounding pushes u01 * total up to the total — must clamp
  // to the last index with nonzero probability, not the last index overall.
  if (it == cumulative_.end()) return last_nonzero_;
  return static_cast<std::uint64_t>(it - cumulative_.begin());
}

std::uint64_t StateSampler::sample(Rng& rng) const {
  draw_counter().add();
  return sample_from_uniform(rng.uniform());
}

std::vector<std::uint64_t> StateSampler::sample(int shots, Rng& rng) const {
  if (shots < 0) throw std::invalid_argument("sample: shots must be >= 0");
  std::vector<std::uint64_t> out(static_cast<std::size_t>(shots));
  for (auto& x : out) x = sample(rng);
  return out;
}

std::map<std::uint64_t, int> StateSampler::sample_counts(int shots,
                                                         Rng& rng) const {
  if (shots < 0)
    throw std::invalid_argument("sample_counts: shots must be >= 0");
  std::map<std::uint64_t, int> counts;
  for (int s = 0; s < shots; ++s) ++counts[sample(rng)];
  return counts;
}

std::vector<std::uint64_t> StateSampler::sample(int shots,
                                                std::uint64_t seed) const {
  Rng rng(seed);
  return sample(shots, rng);
}

std::map<std::uint64_t, int> StateSampler::sample_counts(
    int shots, std::uint64_t seed) const {
  Rng rng(seed);
  return sample_counts(shots, rng);
}

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
  // every shot, as upper_bound on the table would.
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
  // Targets at or past the total mass (u01 * total rounding up to it):
  // StateSampler's clamp to the last index with nonzero mass.
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

std::vector<std::uint64_t> sample_states(const StateVector& sv, int shots,
                                         std::uint64_t seed) {
  Rng rng(seed);
  return sample_states(sv, shots, rng);
}

}  // namespace qokit
