// The stable compatibility layer: each one-line method builds a
// throwaway ProblemSession and forwards through the unified
// request/response surface, so there is exactly one code path behind
// both API generations. Expectations, overlaps, states, and batch
// results stay bit-identical to the direct simulator/legacy paths
// (asserted by tests/test_crossvalidation.cpp); the one exception is
// SatEvaluation::p_satisfied, which now reuses the shared ground-overlap
// reduction instead of a bespoke serial scan and may differ from
// pre-session releases in the last ulp (the summation grouping differs).
#include "api/qokit.hpp"

#include <vector>

namespace qokit::api {
namespace {

QaoaParams to_params(std::span<const double> gammas,
                     std::span<const double> betas) {
  QaoaParams p;
  p.gammas.assign(gammas.begin(), gammas.end());
  p.betas.assign(betas.begin(), betas.end());
  return p;
}

}  // namespace

double qaoa_maxcut_expectation(const Graph& g, std::span<const double> gammas,
                               std::span<const double> betas,
                               std::string_view simulator) {
  const ProblemSession session =
      ProblemSession::maxcut(g, SimulatorSpec::parse(simulator));
  return *session.evaluate(to_params(gammas, betas)).expectation;
}

LabsEvaluation qaoa_labs_evaluate(int n, std::span<const double> gammas,
                                  std::span<const double> betas,
                                  std::string_view simulator) {
  const ProblemSession session =
      ProblemSession::labs(n, SimulatorSpec::parse(simulator));
  EvalRequest request;
  request.overlap = true;
  const EvalResult r = session.evaluate(to_params(gammas, betas), request);
  LabsEvaluation out;
  out.expectation = *r.expectation;
  out.ground_overlap = *r.overlap;
  out.min_energy = session.cost_diagonal().min_value();
  return out;
}

double qaoa_portfolio_expectation(const PortfolioInstance& inst,
                                  std::span<const double> gammas,
                                  std::span<const double> betas,
                                  std::string_view simulator) {
  const ProblemSession session =
      ProblemSession::portfolio(inst, SimulatorSpec::parse(simulator));
  return *session.evaluate(to_params(gammas, betas)).expectation;
}

SatEvaluation qaoa_sat_evaluate(const SatInstance& inst,
                                std::span<const double> gammas,
                                std::span<const double> betas,
                                std::string_view simulator) {
  const ProblemSession session =
      ProblemSession::sat(inst, SimulatorSpec::parse(simulator));
  EvalRequest request;
  request.overlap = true;
  const EvalResult r = session.evaluate(to_params(gammas, betas), request);
  SatEvaluation out;
  out.expected_violations = *r.expectation;
  out.satisfiable = session.cost_diagonal().min_value() < 0.5;
  // Probability mass on exactly-zero-violation strings. Clause counts are
  // integers, so when the instance is satisfiable the minimum is 0 and the
  // ground-overlap reduction (mass within tol of the minimum) is exactly
  // that mass; unsatisfiable instances have no zero-cost string at all.
  out.p_satisfied = out.satisfiable ? *r.overlap : 0.0;
  return out;
}

std::vector<double> qaoa_batch_expectation(
    const TermList& terms, std::span<const QaoaParams> schedules,
    std::string_view simulator) {
  const ProblemSession session(terms, SimulatorSpec::parse(simulator));
  return session.expectations(schedules);
}

std::vector<EvalResult> qaoa_batch_evaluate(
    const TermList& terms, std::span<const QaoaParams> schedules,
    const EvalRequest& request, std::string_view simulator) {
  const SimulatorSpec spec = SimulatorSpec::parse(simulator);
  // Before the throwaway session pays its precompute.
  check_batch(schedules, request, terms.num_qubits());
  const ProblemSession session(terms, spec);
  return session.evaluate_batch(schedules, request);
}

OptimizeOutcome optimize_qaoa(const TermList& terms, int p,
                              NelderMeadOptions opts,
                              std::string_view simulator) {
  const ProblemSession session(terms, SimulatorSpec::parse(simulator));
  OptimizerSpec optimizer;
  optimizer.p = p;
  optimizer.nelder_mead = opts;
  const EvalResult r = session.optimize(optimizer);
  OptimizeOutcome out;
  out.params = *r.params;
  out.fval = *r.expectation;
  out.evaluations = *r.evaluations;
  out.batches = *r.batches;
  return out;
}

}  // namespace qokit::api
