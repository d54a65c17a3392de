// End-to-end flows through the high-level API (paper Listings 1-3).
#include "api/qokit.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "support/gate_oracle.hpp"

namespace qokit {
namespace {

TEST(Api, MaxCutExpectationIsMinusExpectedCut) {
  // Listing 1: all-to-all MaxCut with weight 0.3.
  const Graph g = Graph::complete(8, 0.3);
  const std::vector<double> gs{0.2}, bs{0.4};
  const double e = api::qaoa_maxcut_expectation(g, gs, bs);
  // Cross-check against the raw pipeline, built through the same factory.
  const TermList terms = maxcut_terms(g);
  const auto sim = choose_simulator(terms);
  EXPECT_NEAR(e, sim->get_expectation(sim->simulate_qaoa(gs, bs)), 1e-10);
  // Expectation of -cut lies within the spectrum.
  EXPECT_GE(e, sim->get_cost_diagonal().min_value() - 1e-9);
  EXPECT_LE(e, sim->get_cost_diagonal().max_value() + 1e-9);
}

TEST(Api, LabsEvaluationFieldsAreConsistent) {
  const std::vector<double> gs{0.15, 0.1}, bs{0.5, 0.3};
  const api::LabsEvaluation eval = api::qaoa_labs_evaluate(10, gs, bs);
  EXPECT_NEAR(eval.min_energy, labs_known_optimum(10), 1e-9);
  EXPECT_GE(eval.expectation, eval.min_energy - 1e-9);
  EXPECT_GT(eval.ground_overlap, 0.0);
  EXPECT_LE(eval.ground_overlap, 1.0 + 1e-12);
}

TEST(Api, OptimizedLabsQaoaLowersEnergyWellBelowUniform) {
  // LABS is hard: naive ramps barely beat the uniform superposition (the
  // paper needs p >~ 12 with transferred parameters for real amplification),
  // but a short optimized schedule must still lower <E> well below the
  // uniform-state value n(n-1)/2.
  const int n = 10;
  const TermList terms = labs_terms(n);
  const auto sim = choose_simulator(terms);
  const BatchEvaluator evaluator(*sim);
  const QaoaBatchObjective obj(evaluator, 2);
  double best = 1e300;
  // Multi-start: LABS is rugged, a single Nelder-Mead run can stall.
  for (const double gscale : {0.05, 0.1, 0.2}) {
    QaoaParams init = linear_ramp(2, 0.9);
    for (double& g : init.gammas) g *= gscale;  // gamma ~ 1/range(C)
    const OptResult r = nelder_mead_batched(std::cref(obj), init.flatten(),
                                            {.max_evals = 250});
    best = std::min(best, r.fval);
  }
  const double uniform_energy = terms.offset();  // <+|C|+> = 45 at n = 10
  EXPECT_LT(best, uniform_energy - 3.0);
}

TEST(Api, MaxCutRampAmplifiesAboveRandomAssignment) {
  // For MaxCut even an un-optimized linear ramp must beat the random-cut
  // baseline of |E|/2 expected cut.
  const Graph g = Graph::random_regular(10, 3, 33);
  const QaoaParams params = linear_ramp(3, 0.8);
  const double e = api::qaoa_maxcut_expectation(g, params.gammas,
                                                params.betas);
  EXPECT_LT(e, -static_cast<double>(g.num_edges()) / 2.0);
}

TEST(Api, PortfolioExpectationStaysInFeasibleRange) {
  const PortfolioInstance inst = random_portfolio(8, 3, 0.5, 17);
  const std::vector<double> gs{0.2, 0.1}, bs{0.4, 0.3};
  const double e = api::qaoa_portfolio_expectation(inst, gs, bs);
  // The xy-ring mixer keeps the state in the budget sector, so the
  // expectation lies within that sector's spectrum.
  double lo = 1e300, hi = -1e300;
  for (std::uint64_t x = 0; x < dim_of(8); ++x) {
    if (popcount(x) != 3) continue;
    lo = std::min(lo, inst.value(x));
    hi = std::max(hi, inst.value(x));
  }
  EXPECT_GE(e, lo - 1e-9);
  EXPECT_LE(e, hi + 1e-9);
}

TEST(Api, OptimizeQaoaImprovesObjective) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 21));
  const int p = 2;
  const auto sim = choose_simulator(terms);
  const BatchEvaluator evaluator(*sim);
  const QaoaBatchObjective probe(evaluator, p);
  const double ramp_value = probe({linear_ramp(p).flatten()}).front();
  const api::OptimizeOutcome out =
      api::optimize_qaoa(terms, p, {.max_evals = 300});
  EXPECT_LT(out.fval, ramp_value);
  EXPECT_GT(out.evaluations, 0);
  EXPECT_EQ(out.params.p(), p);
}

TEST(Api, DeeperQaoaDoesNotHurtLabsWithInterp) {
  // INTERP ladder p=1 -> 3: optimized value must be non-increasing in p.
  const TermList terms = labs_terms(8);
  const auto sim = choose_simulator(terms);
  const BatchEvaluator evaluator(*sim);
  double prev = 1e300;
  QaoaParams params = linear_ramp(1, 0.8);
  for (int p = 1; p <= 3; ++p) {
    const QaoaBatchObjective obj(evaluator, p);
    const OptResult r = nelder_mead_batched(std::cref(obj), params.flatten(),
                                            {.max_evals = 400});
    EXPECT_LE(r.fval, prev + 1e-6) << "p=" << p;
    prev = r.fval;
    params = interp_to_next_depth(QaoaParams::unflatten(r.x));
  }
}

TEST(Api, DistributedSimulatorPluggedIntoSameWorkflow) {
  const TermList terms = labs_terms(8);
  const std::vector<double> gs{0.3}, bs{0.6};
  const DistributedFurSimulator dist_sim(terms, {.ranks = 4});
  const auto single = choose_simulator(terms);
  EXPECT_NEAR(dist_sim.get_expectation(dist_sim.simulate_qaoa(gs, bs)),
              single->get_expectation(single->simulate_qaoa(gs, bs)), 1e-9);
}

TEST(Api, GateBaselineAgreesWithFastPathEndToEnd) {
  const Graph g = Graph::random_regular(8, 3, 29);
  const TermList terms = maxcut_terms(g);
  const std::vector<double> gs{0.35, 0.15}, bs{0.65, 0.25};
  const testing::GateQaoaSimulator gate_sim(terms, {});
  const double gate_e = gate_sim.get_expectation(gate_sim.simulate_qaoa(gs, bs));
  EXPECT_NEAR(gate_e, api::qaoa_maxcut_expectation(g, gs, bs), 1e-9);
}

}  // namespace
}  // namespace qokit
