// Fast in-place SU(2) application (paper Algorithm 1) and the full
// uniform-SU(2) product transform (Algorithm 2).
//
// All updates are in place: each 2^{n_amps}/2 amplitude pair is read and
// written by exactly one iteration, so the loop parallelizes with no
// synchronization and no scratch memory -- the property the paper contrasts
// against the FWHT-based approach of its Ref. [43]. The RX case runs the
// dispatched simd::rx butterfly; the fused layer pipeline, which every
// X-mixer layer (the dist:K ranks' slices included) runs, calls the same
// kernel families per tile.
#pragma once

#include <complex>
#include <cstdint>

#include "common/parallel.hpp"
#include "statevector/state.hpp"

namespace qokit {

/// An SU(2) matrix U = [[a, -conj(b)], [b, conj(a)]].
struct Su2 {
  cdouble a{1.0, 0.0};
  cdouble b{0.0, 0.0};
};

namespace kern {

/// Algorithm 1: y = (I x ... x U x ... x I) x in place, U on `qubit`.
/// `n_amps` must be a power of two > 2^qubit.
void su2(cdouble* x, std::uint64_t n_amps, int qubit, const Su2& u, Exec exec);

}  // namespace kern

/// Algorithm 1 on a full state vector.
void apply_su2(StateVector& sv, int qubit, const Su2& u,
               Exec exec = Exec::Parallel);

/// e^{-i beta X_qubit} on a full state vector.
void apply_rx(StateVector& sv, int qubit, double beta,
              Exec exec = Exec::Parallel);

/// Algorithm 2: apply U_i on every qubit i (uniform or per-qubit matrices).
void apply_su2_product(StateVector& sv, const Su2* us, int count,
                       Exec exec = Exec::Parallel);

}  // namespace qokit
