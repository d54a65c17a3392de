// The gate-at-a-time QAOA simulator: the baseline the paper measures the
// precomputed diagonal against (Sec. III), kept as a test oracle.
//
// A QAOA schedule is compiled into a gate list -- each order-m cost term
// becomes a CX ladder plus an RZ (2(m-1) + 1 gates), or one multi-qubit
// ZPhase -- and the gates update the state one at a time. The objective
// is summed term by term, with no diagonal. The phase layers therefore
// share no code with the production path, which is what makes the oracle
// independent of it. The RX and XY gates run the production kern::rx and
// kern::xy butterflies, so the mixers realize the same unitaries.
//
// Everything runs serially, on f64 states only: an f32 state throws
// std::invalid_argument. DESIGN.md "Paper figures: last measured" records
// what this baseline cost against the fast path.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "fur/mixers.hpp"
#include "fur/su2.hpp"
#include "fur/su4.hpp"
#include "statevector/state.hpp"
#include "terms/term.hpp"

namespace qokit::testing {

/// The gates a compiled QAOA circuit emits.
enum class GateKind {
  H,       ///< Hadamard
  RX,      ///< e^{-i theta/2 X}
  RZ,      ///< e^{-i theta/2 Z}
  CX,      ///< controlled-NOT (q0 control, q1 target)
  ZPhase,  ///< e^{-i theta/2 Z x Z x ... x Z} over `zmask` (diagonal)
  XY,      ///< e^{-i theta/2 (XX + YY)}: the two-qubit XY rotation
};

/// One gate instance.
struct Gate {
  GateKind kind = GateKind::H;
  int q0 = -1;              ///< first qubit (control for CX)
  int q1 = -1;              ///< second qubit (target for CX), -1 if unused
  double param = 0.0;       ///< rotation angle theta
  std::uint64_t zmask = 0;  ///< ZPhase and RZ support mask

  static Gate h(int q) { return {GateKind::H, q, -1, 0.0, 0}; }
  static Gate rx(int q, double theta) {
    return {GateKind::RX, q, -1, theta, 0};
  }
  static Gate rz(int q, double theta) {
    return {GateKind::RZ, q, -1, theta, 1ull << q};
  }
  static Gate cx(int control, int target) {
    if (control == target) throw std::invalid_argument("cx: equal qubits");
    return {GateKind::CX, control, target, 0.0, 0};
  }
  static Gate zphase(std::uint64_t mask, double theta) {
    if (mask == 0) throw std::invalid_argument("zphase: empty mask");
    return {GateKind::ZPhase, -1, -1, theta, mask};
  }
  static Gate xy(int qa, int qb, double theta) {
    if (qa == qb) throw std::invalid_argument("xy: equal qubits");
    return {GateKind::XY, qa, qb, theta, 0};
  }

  /// Mask of the qubits the gate touches.
  std::uint64_t support_mask() const noexcept {
    if (kind == GateKind::ZPhase) return zmask;
    std::uint64_t m = 1ull << q0;
    if (q1 >= 0) m |= 1ull << q1;
    return m;
  }
};

/// A flat sequence of gates on n qubits.
class Circuit {
 public:
  explicit Circuit(int num_qubits) : n_(num_qubits) {
    if (num_qubits < 1 || num_qubits > 34)
      throw std::invalid_argument("Circuit: bad qubit count");
  }

  int num_qubits() const noexcept { return n_; }
  const std::vector<Gate>& gates() const noexcept { return gates_; }
  std::size_t size() const noexcept { return gates_.size(); }

  /// Append a gate; throws std::out_of_range if it touches a qubit >= n.
  void append(Gate g) {
    if (g.support_mask() & ~(dim_of(n_) - 1ull))
      throw std::out_of_range("Circuit::append: gate exceeds qubit count");
    gates_.push_back(g);
  }

 private:
  int n_;
  std::vector<Gate> gates_;
};

/// How the phase operator e^{-i gamma C} is decomposed into gates.
enum class PhaseStyle {
  CxLadder,  ///< CX chain + RZ + reversed chain per term (Qiskit-style)
  MultiZ,    ///< one ZPhase(mask, 2 gamma w) diagonal gate per term
};

/// Gates of one phase layer appended to `c`. Constant terms emit no gate.
inline void append_phase_layer(Circuit& c, const TermList& terms, double gamma,
                               PhaseStyle style) {
  for (const Term& t : terms) {
    if (t.mask == 0) continue;
    const double theta = 2.0 * gamma * t.weight;
    if (style == PhaseStyle::MultiZ) {
      c.append(Gate::zphase(t.mask, theta));
      continue;
    }
    std::vector<int> qs;
    for (int q = 0; q < terms.num_qubits(); ++q)
      if (test_bit(t.mask, q)) qs.push_back(q);
    if (qs.size() == 1) {
      c.append(Gate::rz(qs[0], theta));
      continue;
    }
    // Parity ladder: accumulate parity onto the last qubit, rotate, unwind.
    for (std::size_t i = 0; i + 1 < qs.size(); ++i)
      c.append(Gate::cx(qs[i], qs[i + 1]));
    c.append(Gate::rz(qs.back(), theta));
    for (std::size_t i = qs.size() - 1; i-- > 0;)
      c.append(Gate::cx(qs[i], qs[i + 1]));
  }
}

/// Gates of one mixer layer appended to `c`: RX(2 beta) per qubit for the
/// X mixer, one XY(2 beta) per edge for the xy mixers, in the fur mixers'
/// edge order.
inline void append_mixer_layer(Circuit& c, MixerType mixer, double beta) {
  const int n = c.num_qubits();
  switch (mixer) {
    case MixerType::X:
      for (int q = 0; q < n; ++q) c.append(Gate::rx(q, 2.0 * beta));
      return;
    case MixerType::XYRing:
      if (n < 3) throw std::invalid_argument("xy ring: need n >= 3");
      for (int i = 0; i < n; ++i)
        c.append(Gate::xy(i, (i + 1) % n, 2.0 * beta));
      return;
    case MixerType::XYComplete:
      for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) c.append(Gate::xy(i, j, 2.0 * beta));
      return;
  }
  throw std::logic_error("append_mixer_layer: unknown mixer");
}

/// Full QAOA circuit: optional initial H layer (|0..0> -> |+>^n), then p
/// alternating phase and mixer layers.
inline Circuit compile_qaoa_circuit(const TermList& terms,
                                    std::span<const double> gammas,
                                    std::span<const double> betas,
                                    MixerType mixer = MixerType::X,
                                    PhaseStyle style = PhaseStyle::CxLadder,
                                    bool initial_h = true) {
  if (gammas.size() != betas.size())
    throw std::invalid_argument("compile_qaoa_circuit: length mismatch");
  Circuit c(terms.num_qubits());
  if (initial_h)
    for (int q = 0; q < c.num_qubits(); ++q) c.append(Gate::h(q));
  for (std::size_t l = 0; l < gammas.size(); ++l) {
    append_phase_layer(c, terms, gammas[l], style);
    append_mixer_layer(c, mixer, betas[l]);
  }
  return c;
}

inline void require_f64(const StateVector& sv, const char* who) {
  if (sv.precision() != Precision::F64)
    throw std::invalid_argument(std::string(who) + ": f64 states only");
}

/// Apply one gate in place.
inline void apply_gate(StateVector& sv, const Gate& g) {
  require_f64(sv, "apply_gate");
  cdouble* x = sv.data();
  const std::uint64_t pairs = sv.size() >> 1;
  switch (g.kind) {
    case GateKind::H: {
      // Add, then multiply by 1/sqrt(2): no product for FMA contraction
      // to fuse, so the gate rounds the same on every build.
      constexpr double kInvSqrt2 = 0.70710678118654752440;
      for (std::uint64_t k = 0; k < pairs; ++k) {
        const std::uint64_t i0 = insert_zero_bit(k, g.q0);
        const std::uint64_t i1 = i0 | (1ull << g.q0);
        const cdouble x0 = x[i0], x1 = x[i1];
        x[i0] = (x0 + x1) * kInvSqrt2;
        x[i1] = (x0 - x1) * kInvSqrt2;
      }
      return;
    }
    case GateKind::RX:
      kern::rx(x, sv.size(), g.q0, std::cos(g.param / 2),
               std::sin(g.param / 2), Exec::Serial);
      return;
    case GateKind::CX:
      // Pairs over the target qubit, swapped where the control is set.
      for (std::uint64_t k = 0; k < pairs; ++k) {
        const std::uint64_t i0 = insert_zero_bit(k, g.q1);
        if (i0 & (1ull << g.q0)) std::swap(x[i0], x[i0 | (1ull << g.q1)]);
      }
      return;
    case GateKind::RZ:
    case GateKind::ZPhase: {
      const cdouble even(std::cos(g.param / 2), -std::sin(g.param / 2));
      const cdouble odd = std::conj(even);
      for (std::uint64_t i = 0; i < sv.size(); ++i)
        x[i] *= parity(i & g.zmask) ? odd : even;
      return;
    }
    case GateKind::XY:
      kern::xy(x, sv.size(), g.q0, g.q1, std::cos(g.param / 2),
               std::sin(g.param / 2), Exec::Serial);
      return;
  }
  throw std::logic_error("apply_gate: unknown gate kind");
}

/// Run a whole circuit in place.
inline void run_circuit(StateVector& sv, const Circuit& c) {
  if (sv.num_qubits() != c.num_qubits())
    throw std::invalid_argument("run_circuit: qubit-count mismatch");
  for (const Gate& g : c.gates()) apply_gate(sv, g);
}

/// Objective from raw terms, sum_k w_k <prod Z>: the O(|T| 2^n) sum a
/// framework without a precomputed diagonal pays per evaluation.
inline double expectation_terms(const StateVector& sv, const TermList& terms) {
  if (terms.num_qubits() != sv.num_qubits())
    throw std::invalid_argument("expectation_terms: qubit-count mismatch");
  require_f64(sv, "expectation_terms");
  const cdouble* amp = sv.data();
  double total = terms.offset();  // constant term, <1> = norm = 1
  for (const Term& t : terms) {
    if (t.mask == 0) continue;
    double z = 0.0;
    for (std::uint64_t i = 0; i < sv.size(); ++i)
      z += std::norm(amp[i]) * parity_sign(i, t.mask);
    total += t.weight * z;
  }
  return total;
}

/// Options for the gate-based simulator.
struct GateSimConfig {
  MixerType mixer = MixerType::X;
  PhaseStyle phase_style = PhaseStyle::CxLadder;
};

/// Gate-based QAOA simulator with the fast simulators' call shape: each
/// call compiles the schedule into gates and runs them one at a time.
class GateQaoaSimulator {
 public:
  explicit GateQaoaSimulator(TermList terms, GateSimConfig cfg = {})
      : terms_(std::move(terms)), cfg_(cfg) {}

  int num_qubits() const { return terms_.num_qubits(); }

  /// Compile and run from |+>^n (an H layer on |0..0>) for the X mixer,
  /// or from the weight-n/2 Dicke state for the xy mixers.
  StateVector simulate_qaoa(std::span<const double> gammas,
                            std::span<const double> betas) const {
    const int n = num_qubits();
    const bool x_mixer = cfg_.mixer == MixerType::X;
    StateVector sv = x_mixer ? StateVector::basis_state(n, 0)
                             : StateVector::dicke_state(n, n / 2);
    run_circuit(sv, compile_qaoa_circuit(terms_, gammas, betas, cfg_.mixer,
                                         cfg_.phase_style,
                                         /*initial_h=*/x_mixer));
    // Constant terms compile to no gate but contribute the global phase
    // e^{-i gamma_l * offset} per layer; apply it so the state matches the
    // diagonal simulators exactly, not just up to phase.
    const double offset = terms_.offset();
    if (offset != 0.0) {
      double total = 0.0;
      for (double g : gammas) total += g;
      const cdouble phase(std::cos(-total * offset), std::sin(-total * offset));
      for (std::uint64_t i = 0; i < sv.size(); ++i) sv[i] *= phase;
    }
    return sv;
  }

  /// Objective via term-by-term Pauli-Z expectations.
  double get_expectation(const StateVector& result) const {
    return expectation_terms(result, terms_);
  }

 private:
  TermList terms_;
  GateSimConfig cfg_;
};

}  // namespace qokit::testing
