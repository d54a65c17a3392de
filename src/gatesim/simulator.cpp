#include "gatesim/simulator.hpp"

#include <cmath>

#include "diagonal/ops.hpp"
#include "gatesim/execute.hpp"

namespace qokit {

GateQaoaSimulator::GateQaoaSimulator(TermList terms, GateSimConfig cfg)
    : terms_(std::move(terms)), cfg_(cfg) {}

Circuit GateQaoaSimulator::build_circuit(std::span<const double> gammas,
                                         std::span<const double> betas) const {
  // The initial H layer is emitted only for the X mixer; xy-mixer runs
  // start from a Dicke state prepared directly (gate-based Dicke prep is
  // out of scope for the baseline).
  return compile_qaoa_circuit(terms_, gammas, betas, cfg_.mixer,
                              cfg_.phase_style,
                              /*initial_h=*/cfg_.mixer == MixerType::X);
}

StateVector GateQaoaSimulator::simulate_qaoa(
    std::span<const double> gammas, std::span<const double> betas) const {
  const int n = num_qubits();
  StateVector sv = cfg_.mixer == MixerType::X
                       ? StateVector::basis_state(n, 0)
                       : StateVector::dicke_state(n, n / 2);
  const Circuit c = build_circuit(gammas, betas);
  run_circuit(sv, c, cfg_.exec);
  // Constant terms compile to no gate but contribute the global phase
  // e^{-i gamma_l * offset} per layer; apply it so the state matches the
  // diagonal-simulator output exactly (not just up to phase).
  const double offset = terms_.offset();
  if (offset != 0.0) {
    double total = 0.0;
    for (double g : gammas) total += g;
    const cdouble phase(std::cos(-total * offset), std::sin(-total * offset));
    for (std::uint64_t i = 0; i < sv.size(); ++i) sv[i] *= phase;
  }
  return sv;
}

double GateQaoaSimulator::get_expectation(const StateVector& result) const {
  return expectation_terms(result, terms_, cfg_.exec);
}

}  // namespace qokit
