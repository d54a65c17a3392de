#include "fur/su2.hpp"

#include <cmath>
#include <stdexcept>

#include "common/bitops.hpp"
#include "simd/kernels.hpp"

namespace qokit {
namespace kern {

void su2(cdouble* x, std::uint64_t n_amps, int qubit, const Su2& u,
         Exec exec) {
  const std::int64_t pairs = static_cast<std::int64_t>(n_amps >> 1);
  const cdouble a = u.a;
  const cdouble b = u.b;
  const cdouble nbc = -std::conj(b);
  const cdouble ac = std::conj(a);
  const std::uint64_t stride = 1ull << qubit;
  parallel_for(exec, 0, pairs, [=](std::int64_t k) {
    const std::uint64_t i0 = insert_zero_bit(static_cast<std::uint64_t>(k),
                                             qubit);
    const std::uint64_t i1 = i0 | stride;
    const cdouble x0 = x[i0];
    const cdouble x1 = x[i1];
    x[i0] = a * x0 + nbc * x1;
    x[i1] = b * x0 + ac * x1;
  });
}

void rx(cdouble* x, std::uint64_t n_amps, int qubit, double c, double s,
        Exec exec) {
  // e^{-i beta X}: y0 = c x0 - i s x1, y1 = -i s x0 + c x1. Routed through
  // the dispatched butterfly kernels (simd/kernels.hpp): in-register
  // shuffles for qubit 0, contiguous dual-pointer streams above.
  simd::rx(x, n_amps, qubit, c, s, exec);
}

void rx(cfloat* x, std::uint64_t n_amps, int qubit, double c, double s,
        Exec exec) {
  simd::rx(x, n_amps, qubit, c, s, exec);
}

}  // namespace kern

namespace {

void check_qubit(const StateVector& sv, int qubit, const char* what) {
  if (qubit < 0 || qubit >= sv.num_qubits())
    throw std::out_of_range(std::string(what) + ": qubit out of range");
}

}  // namespace

void apply_su2(StateVector& sv, int qubit, const Su2& u, Exec exec) {
  check_qubit(sv, qubit, "apply_su2");
  kern::su2(sv.data(), sv.size(), qubit, u, exec);
}

void apply_rx(StateVector& sv, int qubit, double beta, Exec exec) {
  check_qubit(sv, qubit, "apply_rx");
  kern::rx(sv.data(), sv.size(), qubit, std::cos(beta), std::sin(beta), exec);
}

void apply_su2_product(StateVector& sv, const Su2* us, int count, Exec exec) {
  if (count != sv.num_qubits())
    throw std::invalid_argument("apply_su2_product: need one U per qubit");
  for (int q = 0; q < count; ++q) kern::su2(sv.data(), sv.size(), q, us[q], exec);
}

}  // namespace qokit
