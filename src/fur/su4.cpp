#include "fur/su4.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/bitops.hpp"

namespace qokit {
namespace kern {

void xy(cdouble* x, std::uint64_t n_amps, int q1, int q2, double c, double s,
        Exec exec) {
  const int lo = std::min(q1, q2);
  const int hi = std::max(q1, q2);
  const std::uint64_t b1 = 1ull << q1;
  const std::uint64_t b2 = 1ull << q2;
  double* d = reinterpret_cast<double*>(x);
  const std::int64_t groups = static_cast<std::int64_t>(n_amps >> 2);
  parallel_for(exec, 0, groups, [=](std::int64_t k) {
    const std::uint64_t base =
        insert_two_zero_bits(static_cast<std::uint64_t>(k), lo, hi);
    const std::uint64_t iA = (base | b1) << 1;  // |..q2=0..q1=1..>
    const std::uint64_t iB = (base | b2) << 1;  // |..q2=1..q1=0..>
    const double are = d[iA], aim = d[iA + 1];
    const double bre = d[iB], bim = d[iB + 1];
    // yA = c a - i s b ; yB = -i s a + c b (same butterfly as simd::rx).
    d[iA] = c * are + s * bim;
    d[iA + 1] = c * aim - s * bre;
    d[iB] = c * bre + s * aim;
    d[iB + 1] = c * bim - s * are;
  });
}

}  // namespace kern

void apply_xy(StateVector& sv, int q1, int q2, double beta, Exec exec) {
  if (q1 < 0 || q2 < 0 || q1 >= sv.num_qubits() || q2 >= sv.num_qubits() ||
      q1 == q2)
    throw std::invalid_argument("apply_xy: bad qubit pair");
  kern::xy(sv.data(), sv.size(), q1, q2, std::cos(beta), std::sin(beta), exec);
}

}  // namespace qokit
