// Baseline QAOA "simulator class" with the same call shape as the fast
// simulator, but the gate-based cost model: each call re-compiles the
// phase operator into gates, executes them one at a time, and evaluates
// the objective term-by-term with no cached diagonal. This is the
// Qiskit-/cuStateVec-(gates)-like comparator used in Figs. 2-4.
#pragma once

#include <span>

#include "common/parallel.hpp"
#include "fur/mixers.hpp"
#include "gatesim/compile.hpp"
#include "statevector/state.hpp"
#include "terms/term.hpp"

namespace qokit {

/// Options for the baseline simulator.
struct GateSimConfig {
  Exec exec = Exec::Parallel;
  MixerType mixer = MixerType::X;
  PhaseStyle phase_style = PhaseStyle::CxLadder;
};

/// Gate-based QAOA simulator.
class GateQaoaSimulator {
 public:
  explicit GateQaoaSimulator(TermList terms, GateSimConfig cfg = {});

  int num_qubits() const { return terms_.num_qubits(); }
  const TermList& terms() const { return terms_; }
  const GateSimConfig& config() const { return cfg_; }

  /// Compile the full QAOA circuit for the given parameters. Exposed so
  /// the gatesim session backend can run it from its own initial state.
  Circuit build_circuit(std::span<const double> gammas,
                        std::span<const double> betas) const;

  /// Compile + execute from |+>^n (X mixer) or a Dicke state (xy mixers).
  StateVector simulate_qaoa(std::span<const double> gammas,
                            std::span<const double> betas) const;

  /// Objective via term-by-term Pauli-Z expectations: the O(|T| 2^n) cost a
  /// framework without a precomputed diagonal pays per evaluation.
  double get_expectation(const StateVector& result) const;

 private:
  TermList terms_;
  GateSimConfig cfg_;
};

}  // namespace qokit
