// qokit-cpp umbrella header and the stable compatibility layer.
//
// The primary public API is session-based (api/session.hpp): parse or
// build a typed SimulatorSpec, construct a ProblemSession once per
// problem, and route every query -- scalar, batch, optimize, sample --
// through EvalRequest/EvalResult so the precompute is paid exactly once.
//
// The "easy-to-use one-line methods" of paper Sec. IV below (MaxCut,
// LABS, portfolio, k-SAT, batch, optimize) are kept as the *stable
// compatibility layer*: thin wrappers that build a throwaway session per
// call and return bit-identical outputs to previous releases. Prefer a
// ProblemSession whenever the same problem is queried more than once.
#pragma once

#include <span>
#include <string_view>

#include "api/session.hpp"
#include "api/spec.hpp"
#include "batch/batch_eval.hpp"
#include "common/bitops.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "diagonal/ops.hpp"
#include "dist/dist_fur.hpp"
#include "fur/simulator.hpp"
#include "optimize/grid.hpp"
#include "optimize/labs_params.hpp"
#include "optimize/nelder_mead.hpp"
#include "optimize/objective.hpp"
#include "optimize/params.hpp"
#include "optimize/spsa.hpp"
#include "problems/graph.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/portfolio.hpp"
#include "problems/sat.hpp"
#include "problems/sk.hpp"
#include "statevector/sampling.hpp"
#include "terms/term.hpp"

namespace qokit::api {

// The `simulator` argument of every wrapper below is parsed by
// SimulatorSpec::parse (see api/spec.hpp for the full grammar): "auto",
// "serial", "u16", the distributed spellings "dist" and "dist:K", plus
// key=value options such as "seed=7". Unknown spellings throw
// std::invalid_argument naming the offending token -- no entry point
// falls back to a default.

/// QAOA objective for MaxCut on `g` at the given schedule (Listing 1).
/// Returns <C> with C = -cut, so -return is the expected cut weight.
double qaoa_maxcut_expectation(const Graph& g, std::span<const double> gammas,
                               std::span<const double> betas,
                               std::string_view simulator = "auto");

/// Result of the one-line LABS evaluation (Listing 3 semantics).
struct LabsEvaluation {
  double expectation = 0.0;    ///< <E(s)> over the QAOA state
  double ground_overlap = 0.0; ///< probability of an optimal sequence
  double min_energy = 0.0;     ///< optimum from the precomputed diagonal
};

/// Simulate LABS QAOA and report expectation + ground-state overlap.
LabsEvaluation qaoa_labs_evaluate(int n, std::span<const double> gammas,
                                  std::span<const double> betas,
                                  std::string_view simulator = "auto");

/// Portfolio-optimization objective under the ring-XY mixer started from
/// the in-budget Dicke state (Listing 2 semantics).
double qaoa_portfolio_expectation(const PortfolioInstance& inst,
                                  std::span<const double> gammas,
                                  std::span<const double> betas,
                                  std::string_view simulator = "auto");

/// Result of the one-line k-SAT evaluation.
struct SatEvaluation {
  double expected_violations = 0.0;  ///< <number of violated clauses>
  double p_satisfied = 0.0;          ///< probability of a satisfying string
  bool satisfiable = false;          ///< instance has a zero-cost string
};

/// Simulate QAOA on a k-SAT instance (the paper's Ref. [4] workload) and
/// report expected violations plus the satisfying-assignment probability.
SatEvaluation qaoa_sat_evaluate(const SatInstance& inst,
                                std::span<const double> gammas,
                                std::span<const double> betas,
                                std::string_view simulator = "auto");

/// Batched multi-schedule expectation: precompute the diagonal once and
/// evaluate <C> for every schedule through BatchEvaluator (shared scratch,
/// schedule- or state-parallel by the cost heuristic). Results are
/// bit-identical to calling simulate_qaoa per schedule in a loop.
std::vector<double> qaoa_batch_expectation(
    const TermList& terms, std::span<const QaoaParams> schedules,
    std::string_view simulator = "auto");

/// Full batched evaluation: expectations plus optional ground-state
/// overlaps and sampled bitstrings per schedule, per `opts`.
BatchResult qaoa_batch_evaluate(const TermList& terms,
                                std::span<const QaoaParams> schedules,
                                const BatchOptions& opts,
                                std::string_view simulator = "auto");

/// One-call parameter optimization: build the fast simulator for `terms`,
/// start from a linear-ramp schedule at depth p, run Nelder-Mead. The
/// optimizer submits its populations (initial simplex, shrink steps)
/// through BatchEvaluator -- identical trajectory to the scalar path,
/// evaluated batch-at-a-time.
struct OptimizeOutcome {
  QaoaParams params;      ///< optimized schedule
  double fval = 0.0;      ///< optimized objective
  int evaluations = 0;    ///< simulator calls spent
  int batches = 0;        ///< batch submissions those calls arrived in
};
OptimizeOutcome optimize_qaoa(const TermList& terms, int p,
                              NelderMeadOptions opts = {},
                              std::string_view simulator = "auto");

}  // namespace qokit::api
