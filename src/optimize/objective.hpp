// The QAOA objective <gamma beta|C|gamma beta> as an optimizable functor.
//
// Wraps a BatchEvaluator: the simulator behind it owns the precomputed
// diagonal, so every point costs p mixer transforms + p phase multiplies
// + one fused inner product -- the loop of paper Fig. 1 that the
// optimizer drives. The functor owns no states: it runs on a caller's
// BatchEvaluator pool (a session's, in optimize), so steady-state
// evaluation performs zero statevector allocations. A scalar optimizer
// drives it with one-point populations.
#pragma once

#include <vector>

#include "batch/batch_eval.hpp"

namespace qokit {

/// Population objective for the batched optimizers: evaluates a set of
/// packed points through one submission to a caller's BatchEvaluator,
/// sharing the precomputed diagonal and that evaluator's per-thread
/// scratch pool across the whole optimization run (and, for a session's
/// evaluator, across runs). Matches the BatchObjectiveFn shape of
/// nelder_mead_batched / spsa_batched.
class QaoaBatchObjective {
 public:
  /// `evaluator` must outlive the objective. `p` fixes the parameter
  /// layout.
  QaoaBatchObjective(const BatchEvaluator& evaluator, int p);

  /// Objective values of a population of packed points x = (gamma_1..
  /// gamma_p, beta_1..beta_p), in submission order: one batch through the
  /// evaluator. Throws std::invalid_argument, evaluating nothing, unless
  /// every point has 2p entries.
  std::vector<double> operator()(
      const std::vector<std::vector<double>>& points) const;

  /// Number of simulator invocations (points evaluated) so far.
  int evaluations() const { return evals_; }

  /// Number of batches submitted so far.
  int batches() const { return batches_; }

 private:
  const BatchEvaluator* evaluator_;
  int p_;
  mutable int evals_ = 0;
  mutable int batches_ = 0;
};

}  // namespace qokit
