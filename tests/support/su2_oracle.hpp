// The generic in-place SU(2) transforms of the paper: Algorithm 1 (one
// 2x2 unitary on one qubit) and Algorithm 2 (one per qubit), kept as a
// test oracle.
//
// All updates are in place: each 2^{n_amps}/2 amplitude pair is read and
// written by exactly one iteration, so the loop parallelizes with no
// synchronization and no scratch memory -- the property the paper contrasts
// against the FWHT-based approach of its Ref. [43]. The production X mixer
// is the RX special case, which the fused layer pipeline runs through the
// dispatched simd::rx butterflies; apply_rx calls the same kernel, so the
// generic Algorithm 1 here checks it.
#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"
#include "common/parallel.hpp"
#include "simd/kernels.hpp"
#include "statevector/state.hpp"

namespace qokit::testing {

/// An SU(2) matrix U = [[a, -conj(b)], [b, conj(a)]].
struct Su2 {
  cdouble a{1.0, 0.0};
  cdouble b{0.0, 0.0};
};

/// Algorithm 1: y = (I x ... x U x ... x I) x in place, U on `qubit`.
/// `n_amps` must be a power of two > 2^qubit.
inline void su2(cdouble* x, std::uint64_t n_amps, int qubit, const Su2& u,
                Exec exec) {
  const std::int64_t pairs = static_cast<std::int64_t>(n_amps >> 1);
  const cdouble a = u.a;
  const cdouble b = u.b;
  const cdouble nbc = -std::conj(b);
  const cdouble ac = std::conj(a);
  const std::uint64_t stride = 1ull << qubit;
  parallel_for(exec, 0, pairs, [=](std::int64_t k) {
    const std::uint64_t i0 =
        insert_zero_bit(static_cast<std::uint64_t>(k), qubit);
    const std::uint64_t i1 = i0 | stride;
    const cdouble x0 = x[i0];
    const cdouble x1 = x[i1];
    x[i0] = a * x0 + nbc * x1;
    x[i1] = b * x0 + ac * x1;
  });
}

inline void check_qubit(const StateVector& sv, int qubit, const char* what) {
  if (qubit < 0 || qubit >= sv.num_qubits())
    throw std::out_of_range(std::string(what) + ": qubit out of range");
}

/// Algorithm 1 on a full state vector.
inline void apply_su2(StateVector& sv, int qubit, const Su2& u,
                      Exec exec = Exec::Parallel) {
  check_qubit(sv, qubit, "apply_su2");
  su2(sv.data(), sv.size(), qubit, u, exec);
}

/// e^{-i beta X_qubit} on a full state vector, through the dispatched
/// RX butterfly.
inline void apply_rx(StateVector& sv, int qubit, double beta,
                     Exec exec = Exec::Parallel) {
  check_qubit(sv, qubit, "apply_rx");
  simd::rx(sv.data(), sv.size(), qubit, std::cos(beta), std::sin(beta), exec);
}

/// Algorithm 2: apply U_i on every qubit i (uniform or per-qubit matrices).
inline void apply_su2_product(StateVector& sv, const Su2* us, int count,
                              Exec exec = Exec::Parallel) {
  if (count != sv.num_qubits())
    throw std::invalid_argument("apply_su2_product: need one U per qubit");
  for (int q = 0; q < count; ++q) su2(sv.data(), sv.size(), q, us[q], exec);
}

}  // namespace qokit::testing
