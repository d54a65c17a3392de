#include "gatesim/gate.hpp"

#include <stdexcept>

#include "common/bitops.hpp"

namespace qokit {

Gate Gate::h(int q) {
  Gate g;
  g.kind = GateKind::H;
  g.q0 = q;
  return g;
}

Gate Gate::rx(int q, double theta) {
  Gate g;
  g.kind = GateKind::RX;
  g.q0 = q;
  g.param = theta;
  return g;
}

Gate Gate::ry(int q, double theta) {
  Gate g;
  g.kind = GateKind::RY;
  g.q0 = q;
  g.param = theta;
  return g;
}

Gate Gate::rz(int q, double theta) {
  Gate g;
  g.kind = GateKind::RZ;
  g.q0 = q;
  g.param = theta;
  g.zmask = 1ull << q;
  return g;
}

Gate Gate::cx(int control, int target) {
  if (control == target) throw std::invalid_argument("cx: equal qubits");
  Gate g;
  g.kind = GateKind::CX;
  g.q0 = control;
  g.q1 = target;
  return g;
}

Gate Gate::cz(int qa, int qb) {
  if (qa == qb) throw std::invalid_argument("cz: equal qubits");
  Gate g;
  g.kind = GateKind::CZ;
  g.q0 = qa;
  g.q1 = qb;
  return g;
}

Gate Gate::swap(int qa, int qb) {
  if (qa == qb) throw std::invalid_argument("swap: equal qubits");
  Gate g;
  g.kind = GateKind::SWAP;
  g.q0 = qa;
  g.q1 = qb;
  return g;
}

Gate Gate::zphase(std::uint64_t mask, double theta) {
  if (mask == 0) throw std::invalid_argument("zphase: empty mask");
  Gate g;
  g.kind = GateKind::ZPhase;
  g.zmask = mask;
  g.param = theta;
  return g;
}

Gate Gate::xy(int qa, int qb, double theta) {
  if (qa == qb) throw std::invalid_argument("xy: equal qubits");
  Gate g;
  g.kind = GateKind::XY;
  g.q0 = qa;
  g.q1 = qb;
  g.param = theta;
  return g;
}

Gate Gate::u1(int q, const std::array<cdouble, 4>& m) {
  Gate g;
  g.kind = GateKind::U1;
  g.q0 = q;
  g.m1 = m;
  return g;
}

Gate Gate::u2(int qa, int qb, const std::array<cdouble, 16>& m) {
  if (qa == qb) throw std::invalid_argument("u2: equal qubits");
  Gate g;
  g.kind = GateKind::U2;
  g.q0 = qa;
  g.q1 = qb;
  g.m2 = m;
  return g;
}

int Gate::support_size() const noexcept {
  if (kind == GateKind::ZPhase) return popcount(zmask);
  return q1 >= 0 ? 2 : 1;
}

std::uint64_t Gate::support_mask() const noexcept {
  if (kind == GateKind::ZPhase) return zmask;
  std::uint64_t m = 1ull << q0;
  if (q1 >= 0) m |= 1ull << q1;
  return m;
}

bool Gate::is_diagonal() const noexcept {
  return kind == GateKind::RZ || kind == GateKind::ZPhase ||
         kind == GateKind::CZ;
}

}  // namespace qokit
