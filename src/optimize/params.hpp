// QAOA parameter-initialization heuristics.
//
// QOKit ships "optimized parameters ... for a set of commonly studied
// problems"; the transferable pieces are the schedules themselves:
//  - linear ramp (trotterized-quantum-annealing / TQA initialization,
//    the paper's Ref. [44]): gamma ramps up, beta ramps down;
//  - INTERP: linearly re-interpolate a depth-p schedule to depth p+1
//    (Zhou et al.), the standard ladder for reaching high depth.
#pragma once

#include <vector>

namespace qokit {

/// Flat (gamma_1..gamma_p, beta_1..beta_p) parameter vector.
struct QaoaParams {
  std::vector<double> gammas;
  std::vector<double> betas;

  int p() const { return static_cast<int>(gammas.size()); }

  /// Trust-boundary check for a schedule about to be simulated: as many
  /// betas as gammas, and every angle finite. Throws std::invalid_argument
  /// naming the first offending layer (0-based). Unchecked, a NaN or
  /// infinite angle runs every layer and yields a NaN expectation.
  void check() const;

  /// Pack as the single vector consumed by optimizers: gammas then betas.
  std::vector<double> flatten() const;

  /// Inverse of flatten(); size must be even.
  static QaoaParams unflatten(const std::vector<double>& x);
};

/// Linear-ramp (TQA) schedule of total time `dt * p`:
/// gamma_l = dt (l+1/2)/p and beta_l = -dt (1 - (l+1/2)/p).
///
/// Sign convention: this library applies e^{-i gamma C} (C minimized) and
/// e^{-i beta sum X}. The initial state |+>^n is the *ground* state of
/// -sum X, so the annealing path H(s) = -(1-s) sum X + s C corresponds to
/// negative beta angles ramping to zero while gamma ramps up.
QaoaParams linear_ramp(int p, double dt = 0.75);

/// INTERP: produce a depth-(p+1) schedule from a depth-p one by linear
/// interpolation of each angle sequence.
QaoaParams interp_to_next_depth(const QaoaParams& params);

}  // namespace qokit
