#include "optimize/objective.hpp"

#include <stdexcept>

namespace qokit {

QaoaBatchObjective::QaoaBatchObjective(const BatchEvaluator& evaluator, int p)
    : evaluator_(&evaluator), p_(p) {
  if (p < 1) throw std::invalid_argument("QaoaBatchObjective: p must be >= 1");
}

std::vector<double> QaoaBatchObjective::operator()(
    const std::vector<std::vector<double>>& points) const {
  std::vector<QaoaParams> schedules;
  schedules.reserve(points.size());
  for (const std::vector<double>& x : points) {
    if (static_cast<int>(x.size()) != 2 * p_)
      throw std::invalid_argument(
          "QaoaBatchObjective: expected 2p parameters");
    schedules.push_back(QaoaParams::unflatten(x));
  }
  evals_ += static_cast<int>(points.size());
  ++batches_;
  return evaluator_->expectations(schedules);
}

}  // namespace qokit
