// Gate set for the gate-at-a-time baseline simulator.
//
// This module deliberately models the execution strategy the paper compares
// against (Sec. III): a quantum program is a sequence of gates, and the
// simulator iterates over them, modifying the state vector once per gate.
// The phase operator must be compiled into ~|T| gates per layer, which is
// exactly the cost the precomputed-diagonal approach removes.
#pragma once

#include <array>
#include <cstdint>

#include "statevector/state.hpp"

namespace qokit {

/// Gate kinds supported by the baseline executor.
enum class GateKind {
  H,       ///< Hadamard
  RX,      ///< e^{-i theta/2 X}
  RY,      ///< e^{-i theta/2 Y}
  RZ,      ///< e^{-i theta/2 Z}
  CX,      ///< controlled-NOT (q0 control, q1 target)
  CZ,      ///< controlled-Z (symmetric diagonal)
  SWAP,    ///< exchange two qubits
  ZPhase,  ///< e^{-i theta/2 Z x Z x ... x Z} over `zmask` (diagonal)
  XY,      ///< e^{-i theta/2 (XX + YY)} -- two-qubit XY rotation
  U1,      ///< generic one-qubit matrix
  U2,      ///< generic two-qubit matrix
};

/// One gate instance. Matrix storage is used only by U1/U2.
struct Gate {
  GateKind kind = GateKind::H;
  int q0 = -1;              ///< first qubit (control for CX)
  int q1 = -1;              ///< second qubit (target for CX), -1 if unused
  double param = 0.0;       ///< rotation angle theta
  std::uint64_t zmask = 0;  ///< ZPhase support mask
  std::array<cdouble, 4> m1{};   ///< U1 row-major 2x2
  std::array<cdouble, 16> m2{};  ///< U2 row-major 4x4; index = b_q1*2 + b_q0

  static Gate h(int q);
  static Gate rx(int q, double theta);
  static Gate ry(int q, double theta);
  static Gate rz(int q, double theta);
  static Gate cx(int control, int target);
  static Gate cz(int qa, int qb);
  static Gate swap(int qa, int qb);
  static Gate zphase(std::uint64_t mask, double theta);
  static Gate xy(int qa, int qb, double theta);
  static Gate u1(int q, const std::array<cdouble, 4>& m);
  static Gate u2(int qa, int qb, const std::array<cdouble, 16>& m);

  /// Number of qubits the gate touches.
  int support_size() const noexcept;

  /// Mask of touched qubits.
  std::uint64_t support_mask() const noexcept;

  /// True for gates diagonal in the computational basis.
  bool is_diagonal() const noexcept;
};

}  // namespace qokit
