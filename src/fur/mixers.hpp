// QAOA mixing operators (paper Sec. III-B).
//
// - X: transverse field, U_M = prod_i e^{-i beta X_i} (the gates commute,
//   so the product equals e^{-i beta sum X_i} exactly). One Algorithm-1
//   pass per qubit, in place.
// - XY ring / complete: Hamming-weight-preserving mixers built from
//   two-qubit e^{-i beta (XX+YY)/2} rotations over the edges of a ring or
//   complete graph, applied as an ordered product in edge order (the SU(4)
//   extension of Algorithms 1-2 used by QOKit; the factors do not commute,
//   so the order is part of the mixer definition and is fixed here).
#pragma once

#include <span>

#include "common/parallel.hpp"
#include "statevector/state.hpp"

namespace qokit {

/// Which mixing operator a simulator applies between phase layers.
enum class MixerType { X, XYRing, XYComplete };

/// Transverse-field mixer e^{-i beta sum_i X_i}.
void apply_mixer_x(StateVector& sv, double beta, Exec exec = Exec::Parallel);

/// Multi-angle X mixer: prod_i e^{-i beta_i X_i} with one angle per qubit
/// (the ma-QAOA ansatz). Algorithm 2 supports this natively -- each
/// per-qubit pass already takes its own U_i -- so the generalization is
/// free; betas.size() must equal the qubit count.
void apply_mixer_x_multiangle(StateVector& sv, std::span<const double> betas,
                              Exec exec = Exec::Parallel);

/// Ring XY mixer: product of XY rotations over edges
/// (0,1), (1,2), ..., (n-2,n-1), (n-1,0) in that order.
void apply_mixer_xy_ring(StateVector& sv, double beta,
                         Exec exec = Exec::Parallel);

/// Complete-graph XY mixer: product of XY rotations over all pairs (i, j),
/// i < j, in lexicographic order (Listing 2's choose_simulator_xycomplete).
void apply_mixer_xy_complete(StateVector& sv, double beta,
                             Exec exec = Exec::Parallel);

/// Dispatch by MixerType.
void apply_mixer(StateVector& sv, MixerType type, double beta,
                 Exec exec = Exec::Parallel);

}  // namespace qokit
