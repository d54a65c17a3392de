// Measurement sampling from an evolved QAOA state.
//
// Sampling closes the algorithmic loop the paper's applications need: the
// quantum-speedup analysis on LABS (its Ref. [6]) and the sampling-
// frequency study (its Ref. [5]) both reason about the distribution of
// measured bitstrings, not just expectation values. Every draw in the
// library goes through sample_from_uniforms: two passes over the state
// and O(shots) memory, with no 2^n cumulative table. Its outcomes are an
// inverse-CDF lookup on the state's |amp|^2, bit for bit; the table
// sampler that defines them lives in tests/support as the oracle.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "statevector/state.hpp"

namespace qokit {

/// The inverse-CDF outcome of each variate u01[s] on the running |amp|^2
/// sums (double at either amplitude width, in index order): the first
/// index whose running sum exceeds u01[s] * total, or, for a target at or
/// past the total (u01 * total rounding up to it), the last index with
/// nonzero mass, so a zero-probability state is never drawn. One pass sums
/// the mass and finds that last index; then the targets are sorted, and a
/// second pass re-forms the same running sums and answers every target.
/// The state need not be normalized. Throws std::invalid_argument for a
/// variate outside [0, 1] (NaN included), or when the total mass is zero
/// or not finite.
std::vector<std::uint64_t> sample_from_uniforms(const StateVector& sv,
                                                std::span<const double> u01);

/// `shots` outcomes: `shots` variates drawn from `rng` in order, then
/// sample_from_uniforms, so a batch of shots costs two passes over the
/// state. A table sampler drawing one shot per variate from the same
/// stream gives the same outcomes bit for bit. Throws
/// std::invalid_argument for negative `shots`.
std::vector<std::uint64_t> sample_states(const StateVector& sv, int shots,
                                         Rng& rng);

/// Shot-based objective estimate (what a real device or a sampling-based
/// workflow would report instead of the exact inner product).
struct SampledExpectation {
  double mean = 0.0;
  double std_error = 0.0;  ///< sqrt(sample variance / shots)
  int shots = 0;
};

/// Estimate <f> by measuring `shots` bitstrings (sample_states) and
/// averaging f(x) in shot order. Throws std::invalid_argument for negative
/// `shots`; zero shots returns the well-defined empty estimate {mean 0,
/// std_error 0, shots 0}.
template <class CostFn>
SampledExpectation estimate_expectation_sampled(const StateVector& sv,
                                                CostFn&& f, int shots,
                                                Rng& rng) {
  if (shots < 0)
    throw std::invalid_argument(
        "estimate_expectation_sampled: shots must be >= 0");
  if (shots == 0) return SampledExpectation{};
  double sum = 0.0, sum_sq = 0.0;
  for (const std::uint64_t x : sample_states(sv, shots, rng)) {
    const double v = f(x);
    sum += v;
    sum_sq += v * v;
  }
  SampledExpectation out;
  out.shots = shots;
  out.mean = sum / shots;
  const double var = sum_sq / shots - out.mean * out.mean;
  out.std_error = var > 0.0 ? std::sqrt(var / shots) : 0.0;
  return out;
}

}  // namespace qokit
