// Fast in-place SU(2) application (paper Algorithm 1) and the full
// uniform-SU(2) product transform (Algorithm 2).
//
// Kernels operate on raw amplitude arrays so the distributed simulator
// (Algorithm 4) can run them unchanged on local state-vector slices. All
// updates are in place: each 2^{n_amps}/2 amplitude pair is read and
// written by exactly one iteration, so the loop parallelizes with no
// synchronization and no scratch memory -- the property the paper contrasts
// against the FWHT-based approach of its Ref. [43].
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

/// Specialized RX pass: U = e^{-i beta X} with c = cos(beta), s = sin(beta).
/// Same update as su2 with a = c, b = -i s, written in real arithmetic
/// (four fused multiply-adds per amplitude pair). Both amplitude
/// precisions; the f32 overload feeds the mixed-precision X-mixer path.
void rx(cdouble* x, std::uint64_t n_amps, int qubit, double c, double s,
        Exec exec);
void rx(cfloat* x, std::uint64_t n_amps, int qubit, double c, double s,
        Exec exec);

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
