// Operations that consume the precomputed diagonal (paper Fig. 1): the
// phase operator (one elementwise multiply), the QAOA objective (one inner
// product) and the ground-state overlap.
#pragma once

#include "diagonal/cost_diagonal.hpp"
#include "diagonal/diagonal_u16.hpp"
#include "statevector/state.hpp"

namespace qokit {

/// Phase operator e^{-i gamma C}: amp_x *= e^{-i gamma c_x}.
void apply_phase(StateVector& sv, const CostDiagonal& diag, double gamma,
                 Exec exec = Exec::Parallel);

/// Raw-slice phase kernel shared by the full-vector overload above and the
/// distributed simulator's per-rank slices, so the sharded evolution tracks
/// the single-node one bit-for-bit by construction. Both amplitude
/// precisions (the costs stay double either way).
void apply_phase_slice(cdouble* amp, const double* costs, std::uint64_t count,
                       double gamma, Exec exec = Exec::Parallel);
void apply_phase_slice(cfloat* amp, const double* costs, std::uint64_t count,
                       double gamma, Exec exec = Exec::Parallel);

/// Phase operator through the uint16 codec: a 65536-entry phase lookup
/// table is built once per call and gathered per amplitude.
void apply_phase(StateVector& sv, const DiagonalU16& diag, double gamma,
                 Exec exec = Exec::Parallel);

/// QAOA objective <psi|C|psi> = sum_x |amp_x|^2 c_x (paper's reused inner
/// product; O(2^n), independent of |T|).
double expectation(const StateVector& sv, const CostDiagonal& diag,
                   Exec exec = Exec::Parallel);

/// Raw-slice objective kernel (one rank's partial sum in the distributed
/// simulator); the full-vector overload above reduces over it. The f32
/// overload accumulates in double like every reduction.
double expectation_slice(const cdouble* amp, const double* costs,
                         std::uint64_t count, Exec exec = Exec::Parallel);
double expectation_slice(const cfloat* amp, const double* costs,
                         std::uint64_t count, Exec exec = Exec::Parallel);

/// Objective through the uint16 codec.
double expectation(const StateVector& sv, const DiagonalU16& diag,
                   Exec exec = Exec::Parallel);

/// Ground-state overlap: total probability on basis states whose cost is
/// within `tol` of the diagonal minimum (QOKit's get_overlap).
double overlap_ground(const StateVector& sv, const CostDiagonal& diag,
                      double tol = 1e-9, Exec exec = Exec::Parallel);

/// Sector-restricted ground-state overlap: the minimum is taken within the
/// Hamming-weight-`weight` slice (xy mixers never leave it). Throws
/// std::invalid_argument if the sector is empty (weight outside [0, n]).
/// Shared by every simulator backend so the sector semantics cannot drift
/// between them. The sector minimum is cached in `diag` on first use; the
/// remaining single pass honors `exec`.
double overlap_ground_sector(const StateVector& sv, const CostDiagonal& diag,
                             int weight, double tol = 1e-9,
                             Exec exec = Exec::Parallel);

}  // namespace qokit
