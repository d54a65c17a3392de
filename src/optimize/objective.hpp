// The QAOA objective <gamma beta|C|gamma beta> as an optimizable functor.
//
// Wraps any QaoaFastSimulatorBase: the simulator owns the precomputed
// diagonal, so every call costs p mixer transforms + p phase multiplies +
// one inner product -- the loop of paper Fig. 1 that the optimizer drives.
// Both functors reuse scratch statevectors across calls, refilled in place
// with the initial state (no cached copy) and evolved in place per
// simulate_qaoa_from's contract, so steady-state evaluation performs zero
// statevector allocations. The population functor owns no states at all:
// it runs on a caller's BatchEvaluator pool (a session's, in optimize).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "batch/batch_eval.hpp"
#include "fur/simulator.hpp"

namespace qokit {

/// Callable objective with evaluation counting. Not safe for concurrent
/// operator() calls on one instance (each instance owns one reused
/// scratch state, like BatchEvaluator's pool); distinct instances over
/// the same simulator are independent.
class QaoaObjective {
 public:
  /// `sim` must outlive the objective. `p` fixes the parameter layout:
  /// x = (gamma_1..gamma_p, beta_1..beta_p).
  QaoaObjective(const QaoaFastSimulatorBase& sim, int p);

  /// Objective value at packed parameters x (size 2p).
  double operator()(const std::vector<double>& x) const;

  /// Number of simulator invocations so far.
  int evaluations() const { return evals_; }

  /// Reset the evaluation counter.
  void reset_count() { evals_ = 0; }

  int p() const { return p_; }

 private:
  const QaoaFastSimulatorBase* sim_;
  int p_;
  mutable int evals_ = 0;
  mutable StateVector scratch_;  ///< refilled in place per call
};

/// Population objective for the batched optimizers: evaluates a set of
/// packed points through one submission to a caller's BatchEvaluator,
/// sharing the precomputed diagonal and that evaluator's per-thread
/// scratch pool across the whole optimization run (and, for a session's
/// evaluator, across runs). Matches the BatchObjectiveFn shape of
/// nelder_mead_batched / spsa_batched.
class QaoaBatchObjective {
 public:
  /// `evaluator` must outlive the objective; its options pick the batch
  /// parallelism. `p` fixes the parameter layout.
  QaoaBatchObjective(const BatchEvaluator& evaluator, int p);

  /// Objective values of a population of packed points (each size 2p),
  /// in submission order.
  std::vector<double> operator()(
      const std::vector<std::vector<double>>& points) const;

  /// Number of simulator invocations (points evaluated) so far.
  int evaluations() const { return evals_; }

  /// Number of batches submitted so far.
  int batches() const { return batches_; }

  void reset_count() { evals_ = batches_ = 0; }

  int p() const { return p_; }
  const BatchEvaluator& evaluator() const { return *evaluator_; }

 private:
  const BatchEvaluator* evaluator_;
  int p_;
  mutable int evals_ = 0;
  mutable int batches_ = 0;
};

}  // namespace qokit
