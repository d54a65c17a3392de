#include "optimize/objective.hpp"

#include <span>
#include <stdexcept>
#include <utility>

namespace qokit {

QaoaObjective::QaoaObjective(const QaoaFastSimulatorBase& sim, int p)
    : sim_(&sim), p_(p) {
  if (p < 1) throw std::invalid_argument("QaoaObjective: p must be >= 1");
}

double QaoaObjective::operator()(const std::vector<double>& x) const {
  if (static_cast<int>(x.size()) != 2 * p_)
    throw std::invalid_argument("QaoaObjective: expected 2p parameters");
  ++evals_;
  const std::span<const double> gammas(x.data(), p_);
  const std::span<const double> betas(x.data() + p_, p_);
  // Refill the scratch state with the initial state in place (reusing its
  // buffer) and evolve it: after the first call no statevector is
  // allocated, where simulate_qaoa would allocate a fresh initial state
  // per evaluation.
  sim_->fill_initial_state(scratch_);
  scratch_ = sim_->simulate_qaoa_from(std::move(scratch_), gammas, betas);
  return sim_->get_expectation(scratch_);
}

QaoaBatchObjective::QaoaBatchObjective(const BatchEvaluator& evaluator, int p)
    : evaluator_(&evaluator), p_(p) {
  if (p < 1) throw std::invalid_argument("QaoaBatchObjective: p must be >= 1");
}

std::vector<double> QaoaBatchObjective::operator()(
    const std::vector<std::vector<double>>& points) const {
  for (const std::vector<double>& x : points)
    if (static_cast<int>(x.size()) != 2 * p_)
      throw std::invalid_argument(
          "QaoaBatchObjective: expected 2p parameters");
  evals_ += static_cast<int>(points.size());
  ++batches_;
  return evaluator_->expectations_packed(points);
}

}  // namespace qokit
