// Gate-at-a-time state-vector executor -- the baseline execution model.
//
// Each gate updates the state vector in place with OpenMP-parallel
// kernels; this stands in for optimized simulators such as Qiskit Aer /
// cuStateVec-without-precompute. The kernels are double precision: an
// f32 state is refused with std::invalid_argument.
#pragma once

#include "common/parallel.hpp"
#include "gatesim/circuit.hpp"
#include "statevector/state.hpp"

namespace qokit {

/// Apply one gate in place. Throws std::invalid_argument on an f32 state.
void apply_gate(StateVector& sv, const Gate& g, Exec exec = Exec::Parallel);

/// Run a whole circuit in place. Throws std::invalid_argument on an f32
/// state or a qubit-count mismatch.
void run_circuit(StateVector& sv, const Circuit& c, Exec exec = Exec::Parallel);

}  // namespace qokit
