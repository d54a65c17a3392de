#include "gatesim/execute.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/bitops.hpp"
#include "fur/su2.hpp"
#include "fur/su4.hpp"

namespace qokit {
namespace {

void apply_u1(StateVector& sv, int q, const std::array<cdouble, 4>& m,
              Exec exec) {
  cdouble* x = sv.data();
  const std::uint64_t stride = 1ull << q;
  parallel_for(exec, 0, static_cast<std::int64_t>(sv.size() >> 1),
               [=](std::int64_t k) {
                 const std::uint64_t i0 =
                     insert_zero_bit(static_cast<std::uint64_t>(k), q);
                 const std::uint64_t i1 = i0 | stride;
                 const cdouble x0 = x[i0];
                 const cdouble x1 = x[i1];
                 x[i0] = m[0] * x0 + m[1] * x1;
                 x[i1] = m[2] * x0 + m[3] * x1;
               });
}

/// H on qubit q: y0 = (x0 + x1) k, y1 = (x0 - x1) k with k = 1/sqrt(2).
/// Add then multiply leaves no product for FMA contraction to fuse, so
/// the gate rounds the same on every build.
void apply_h(StateVector& sv, int q, Exec exec) {
  constexpr double kInvSqrt2 = 0.70710678118654752440;
  cdouble* x = sv.data();
  const std::uint64_t stride = 1ull << q;
  parallel_for(exec, 0, static_cast<std::int64_t>(sv.size() >> 1),
               [=](std::int64_t k) {
                 const std::uint64_t i0 =
                     insert_zero_bit(static_cast<std::uint64_t>(k), q);
                 const std::uint64_t i1 = i0 | stride;
                 const cdouble x0 = x[i0];
                 const cdouble x1 = x[i1];
                 x[i0] = (x0 + x1) * kInvSqrt2;
                 x[i1] = (x0 - x1) * kInvSqrt2;
               });
}

void apply_cx(StateVector& sv, int control, int target, Exec exec) {
  cdouble* x = sv.data();
  const std::uint64_t cbit = 1ull << control;
  const std::uint64_t tbit = 1ull << target;
  // Enumerate pairs over the target qubit; swap only where control is set.
  parallel_for(exec, 0, static_cast<std::int64_t>(sv.size() >> 1),
               [=](std::int64_t k) {
                 const std::uint64_t i0 =
                     insert_zero_bit(static_cast<std::uint64_t>(k), target);
                 if (!(i0 & cbit)) return;
                 const std::uint64_t i1 = i0 | tbit;
                 const cdouble tmp = x[i0];
                 x[i0] = x[i1];
                 x[i1] = tmp;
               });
}

void apply_cz(StateVector& sv, int qa, int qb, Exec exec) {
  cdouble* x = sv.data();
  const std::uint64_t both = (1ull << qa) | (1ull << qb);
  parallel_for(exec, 0, static_cast<std::int64_t>(sv.size()),
               [=](std::int64_t i) {
                 if ((static_cast<std::uint64_t>(i) & both) == both)
                   x[i] = -x[i];
               });
}

void apply_swap(StateVector& sv, int qa, int qb, Exec exec) {
  cdouble* x = sv.data();
  const int lo = std::min(qa, qb);
  const int hi = std::max(qa, qb);
  const std::uint64_t ba = 1ull << qa;
  const std::uint64_t bb = 1ull << qb;
  parallel_for(exec, 0, static_cast<std::int64_t>(sv.size() >> 2),
               [=](std::int64_t k) {
                 const std::uint64_t base = insert_two_zero_bits(
                     static_cast<std::uint64_t>(k), lo, hi);
                 const cdouble tmp = x[base | ba];
                 x[base | ba] = x[base | bb];
                 x[base | bb] = tmp;
               });
}

void apply_zphase(StateVector& sv, std::uint64_t mask, double theta,
                  Exec exec) {
  cdouble* x = sv.data();
  const cdouble even(std::cos(theta / 2), -std::sin(theta / 2));
  const cdouble odd = std::conj(even);
  parallel_for(exec, 0, static_cast<std::int64_t>(sv.size()),
               [=](std::int64_t i) {
                 x[i] *= parity(static_cast<std::uint64_t>(i) & mask) ? odd
                                                                      : even;
               });
}

}  // namespace

void apply_gate(StateVector& sv, const Gate& g, Exec exec) {
  if (sv.precision() != Precision::F64)
    throw std::invalid_argument("apply_gate: f64 states only");
  switch (g.kind) {
    case GateKind::H:
      apply_h(sv, g.q0, exec);
      return;
    case GateKind::RX:
      kern::rx(sv.data(), sv.size(), g.q0, std::cos(g.param / 2),
               std::sin(g.param / 2), exec);
      return;
    case GateKind::RY: {
      const double c = std::cos(g.param / 2), s = std::sin(g.param / 2);
      apply_u1(sv, g.q0, {cdouble(c), cdouble(-s), cdouble(s), cdouble(c)},
               exec);
      return;
    }
    case GateKind::RZ:
      apply_zphase(sv, 1ull << g.q0, g.param, exec);
      return;
    case GateKind::CX:
      apply_cx(sv, g.q0, g.q1, exec);
      return;
    case GateKind::CZ:
      apply_cz(sv, g.q0, g.q1, exec);
      return;
    case GateKind::SWAP:
      apply_swap(sv, g.q0, g.q1, exec);
      return;
    case GateKind::ZPhase:
      apply_zphase(sv, g.zmask, g.param, exec);
      return;
    case GateKind::XY:
      kern::xy(sv.data(), sv.size(), g.q0, g.q1, std::cos(g.param / 2),
               std::sin(g.param / 2), exec);
      return;
    case GateKind::U1:
      apply_u1(sv, g.q0, g.m1, exec);
      return;
    case GateKind::U2:
      kern::su4(sv.data(), sv.size(), g.q0, g.q1, g.m2.data(), exec);
      return;
  }
  throw std::logic_error("apply_gate: unknown gate kind");
}

void run_circuit(StateVector& sv, const Circuit& c, Exec exec) {
  if (sv.precision() != Precision::F64)
    throw std::invalid_argument("run_circuit: f64 states only");
  if (sv.num_qubits() != c.num_qubits())
    throw std::invalid_argument("run_circuit: qubit-count mismatch");
  for (const Gate& g : c.gates()) apply_gate(sv, g, exec);
}

}  // namespace qokit
