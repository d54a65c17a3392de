#include "optimize/nelder_mead.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "optimize/objective.hpp"
#include "optimize/params.hpp"
#include "optimize/spsa.hpp"
#include "problems/maxcut.hpp"

namespace qokit {
namespace {

double sphere(const std::vector<double>& x) {
  double acc = 0.0;
  for (double v : x) acc += (v - 1.0) * (v - 1.0);
  return acc;
}

double rosenbrock(const std::vector<double>& x) {
  return 100.0 * std::pow(x[1] - x[0] * x[0], 2) + std::pow(1.0 - x[0], 2);
}

TEST(NelderMead, MinimizesSphere) {
  const OptResult r = nelder_mead(sphere, {0.0, 0.0, 0.0}, {.max_evals = 2000});
  EXPECT_LT(r.fval, 1e-8);
  for (double v : r.x) EXPECT_NEAR(v, 1.0, 1e-3);
}

TEST(NelderMead, MinimizesRosenbrock) {
  const OptResult r =
      nelder_mead(rosenbrock, {-1.2, 1.0}, {.max_evals = 4000, .xtol = 1e-10});
  EXPECT_LT(r.fval, 1e-6);
  EXPECT_NEAR(r.x[0], 1.0, 1e-2);
  EXPECT_NEAR(r.x[1], 1.0, 1e-2);
}

TEST(NelderMead, RespectsEvaluationBudget) {
  int count = 0;
  const auto f = [&count](const std::vector<double>& x) {
    ++count;
    return sphere(x);
  };
  const OptResult r = nelder_mead(f, {5.0, 5.0}, {.max_evals = 40});
  EXPECT_LE(count, 40 + 2);  // shrink step may finish its sweep
  EXPECT_EQ(r.evaluations, count);
}

TEST(NelderMead, ConvergedFlagOnEasyProblem) {
  const OptResult r = nelder_mead(sphere, {0.5}, {.max_evals = 500});
  EXPECT_TRUE(r.converged);
}

TEST(NelderMead, RejectsEmptyStart) {
  EXPECT_THROW(nelder_mead(sphere, {}), std::invalid_argument);
}

TEST(NelderMead, NonAdaptiveAlsoConverges) {
  const OptResult r =
      nelder_mead(sphere, {3.0, -2.0}, {.max_evals = 2000, .adaptive = false});
  EXPECT_LT(r.fval, 1e-6);
}

TEST(Spsa, ImprovesQuadratic) {
  const double f0 = sphere({4.0, -3.0});
  const OptResult r = spsa(sphere, {4.0, -3.0}, {.max_iterations = 400});
  EXPECT_LT(r.fval, f0 * 0.1);
}

TEST(Spsa, DeterministicPerSeed) {
  const OptResult a = spsa(sphere, {2.0, 2.0}, {.max_iterations = 50, .seed = 3});
  const OptResult b = spsa(sphere, {2.0, 2.0}, {.max_iterations = 50, .seed = 3});
  EXPECT_EQ(a.fval, b.fval);
}

TEST(Params, FlattenUnflattenRoundTrip) {
  QaoaParams p;
  p.gammas = {0.1, 0.2, 0.3};
  p.betas = {0.9, 0.8, 0.7};
  const auto x = p.flatten();
  ASSERT_EQ(x.size(), 6u);
  const QaoaParams q = QaoaParams::unflatten(x);
  EXPECT_EQ(q.gammas, p.gammas);
  EXPECT_EQ(q.betas, p.betas);
}

TEST(Params, UnflattenRejectsOddLength) {
  EXPECT_THROW(QaoaParams::unflatten({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Params, LinearRampShape) {
  const QaoaParams p = linear_ramp(4, 1.0);
  ASSERT_EQ(p.p(), 4);
  // gamma ramps up from 0; |beta| ramps down to 0 with beta < 0 (the
  // annealing-consistent sign for this library's conventions).
  for (int l = 0; l + 1 < 4; ++l) {
    EXPECT_LT(p.gammas[l], p.gammas[l + 1]);
    EXPECT_LT(std::abs(p.betas[l + 1]), std::abs(p.betas[l]));
    EXPECT_LT(p.betas[l], 0.0);
  }
  EXPECT_NEAR(p.gammas[0] - p.betas[0], 1.0, 1e-12);  // complementary ramps
}

TEST(Params, InterpPreservesEndpointsAndLength) {
  QaoaParams p;
  p.gammas = {0.1, 0.3, 0.5};
  p.betas = {0.6, 0.4, 0.2};
  const QaoaParams q = interp_to_next_depth(p);
  ASSERT_EQ(q.p(), 4);
  EXPECT_NEAR(q.gammas.front(), 0.1, 1e-12);
  EXPECT_NEAR(q.gammas.back(), 0.5, 1e-12);
  EXPECT_NEAR(q.betas.front(), 0.6, 1e-12);
  EXPECT_NEAR(q.betas.back(), 0.2, 1e-12);
  // Monotone input stays monotone under linear resampling.
  for (int l = 0; l + 1 < 4; ++l) EXPECT_LE(q.gammas[l], q.gammas[l + 1]);
}

TEST(Objective, MatchesDirectSimulation) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 9));
  const FurQaoaSimulator sim(terms, {});
  const BatchEvaluator evaluator(sim);
  const QaoaBatchObjective obj(evaluator, 1);
  const double via_obj = obj({{0.4, 0.8}}).front();
  const std::vector<double> gs{0.4}, bs{0.8};
  const double direct = sim.get_expectation(sim.simulate_qaoa(gs, bs));
  EXPECT_EQ(via_obj, direct);
  EXPECT_EQ(obj.evaluations(), 1);
}

TEST(Objective, RejectsWrongParameterCount) {
  const TermList terms = maxcut_terms(Graph::random_regular(6, 3, 5));
  const FurQaoaSimulator sim(terms, {});
  const BatchEvaluator evaluator(sim);
  const QaoaBatchObjective obj(evaluator, 2);
  EXPECT_THROW(obj({{0.1, 0.2, 0.3}}), std::invalid_argument);
  EXPECT_EQ(obj.evaluations(), 0);
}

TEST(Objective, OptimizationImprovesOverRampStart) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 13));
  const FurQaoaSimulator sim(terms, {});
  const int p = 2;
  const BatchEvaluator evaluator(sim);
  const QaoaBatchObjective obj(evaluator, p);
  const auto x0 = linear_ramp(p).flatten();
  const double f0 = obj({x0}).front();
  const OptResult r =
      nelder_mead_batched(std::cref(obj), x0, {.max_evals = 250});
  EXPECT_LE(r.fval, f0 + 1e-12);
  EXPECT_LT(r.fval, f0 - 1e-3);  // strictly better than the ramp for MaxCut
}

}  // namespace
}  // namespace qokit
