// Two-qubit in-place kernel: the SU(4) extension of Algorithm 1 mentioned
// in paper Sec. III-B, used to implement the Hamming-weight-preserving xy
// mixers M = sum_{<i,j>} (X_i X_j + Y_i Y_j) / 2.
//
// e^{-i beta (XX+YY)/2} acts as identity on |00> and |11> and as the
// rotation [[cos b, -i sin b], [-i sin b, cos b]] on the {|01>, |10>}
// subspace, so one pass touches only two of every four amplitudes.
#pragma once

#include <complex>
#include <cstdint>

#include "common/parallel.hpp"
#include "statevector/state.hpp"

namespace qokit {
namespace kern {

/// e^{-i beta (X_q1 X_q2 + Y_q1 Y_q2)/2} in place; c = cos(beta),
/// s = sin(beta). q1 != q2, order irrelevant (the operator is symmetric).
void xy(cdouble* x, std::uint64_t n_amps, int q1, int q2, double c, double s,
        Exec exec);

}  // namespace kern

/// XY rotation on a full state vector.
void apply_xy(StateVector& sv, int q1, int q2, double beta,
              Exec exec = Exec::Parallel);

}  // namespace qokit
