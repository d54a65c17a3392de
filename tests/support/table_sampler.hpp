// The table sampler: the correctness oracle for the library's two-pass
// sampler (src/statevector/sampling.hpp).
//
// It stores the whole cumulative |amp|^2 distribution, 8 bytes per
// amplitude, summed in double at either amplitude width, and answers a
// variate u with an upper_bound lookup of u times the total mass. A
// target at or past the total clamps to the last index with nonzero mass,
// so a zero-probability state is never drawn. sample_from_uniforms and
// sample_states must give exactly these outcomes for the same variates.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "statevector/state.hpp"

namespace qokit::testing {

class StateSampler {
 public:
  /// Builds the cumulative table; the state need not be normalized (the
  /// total mass is the scale). Throws std::invalid_argument for a
  /// zero-norm state.
  explicit StateSampler(const StateVector& sv) : cumulative_(sv.size()) {
    const auto fill = [this](const auto* amp) {
      double acc = 0.0;
      for (std::uint64_t x = 0; x < cumulative_.size(); ++x) {
        // Widened first: an f32 amplitude's square is formed in double.
        const double p = std::norm(cdouble(amp[x]));
        if (p > 0.0) last_nonzero_ = x;
        acc += p;
        cumulative_[x] = acc;
      }
    };
    if (sv.precision() == Precision::F32)
      fill(sv.data_f32());
    else
      fill(sv.data());
    if (cumulative_.empty() || !(cumulative_.back() > 0.0))
      throw std::invalid_argument("StateSampler: zero-norm state");
  }

  /// One outcome, drawing one variate from `rng`.
  std::uint64_t sample(Rng& rng) const {
    return sample_from_uniform(rng.uniform());
  }

  /// The outcome for a uniform variate u01 in [0, 1].
  std::uint64_t sample_from_uniform(double u01) const {
    const double u = u01 * cumulative_.back();
    // A zero-probability index repeats its predecessor's sum, so it is
    // never the first entry above u; only the end() case needs the clamp.
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    if (it == cumulative_.end()) return last_nonzero_;
    return static_cast<std::uint64_t>(it - cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
  std::uint64_t last_nonzero_ = 0;  ///< largest index with |amp|^2 > 0
};

}  // namespace qokit::testing
