// Optimizer plumbing tests: routing grid search, Nelder-Mead, and SPSA
// through BatchEvaluator must not change a single bit of their
// trajectories. The scalar entry points delegate to the batched cores, so
// these tests compare (a) scalar-objective runs against batch-objective
// runs end to end, and (b) the rewired grid search against a hand-rolled
// sequential double loop replicating the pre-batch implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "api/qokit.hpp"

namespace qokit {
namespace {

void expect_same_result(const OptResult& a, const OptResult& b) {
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.fval, b.fval);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(BatchOptimizers, NelderMeadTrajectoryUnchangedByBatching) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 17));
  const FurQaoaSimulator sim(terms, {});
  const std::vector<double> x0 = linear_ramp(2).flatten();
  for (const int max_evals : {9, 40, 200}) {
    NelderMeadOptions opts;
    opts.max_evals = max_evals;
    const QaoaObjective scalar(sim, 2);
    const OptResult a = nelder_mead(
        [&scalar](const std::vector<double>& x) { return scalar(x); }, x0,
        opts);
    const BatchEvaluator evaluator(sim);
    const QaoaBatchObjective batched(evaluator, 2);
    const OptResult b = nelder_mead_batched(
        [&batched](const std::vector<std::vector<double>>& points) {
          return batched(points);
        },
        x0, opts);
    expect_same_result(a, b);
    EXPECT_EQ(scalar.evaluations(), batched.evaluations());
    // Batching actually batches: strictly fewer submissions than points.
    EXPECT_LT(batched.batches(), batched.evaluations());
  }
}

TEST(BatchOptimizers, SpsaTrajectoryUnchangedByBatching) {
  const TermList terms = labs_terms(8);
  const FurQaoaSimulator sim(terms, {});
  const std::vector<double> x0 = linear_ramp(2).flatten();
  SpsaOptions opts;
  opts.max_iterations = 40;
  opts.seed = 2024;
  const QaoaObjective scalar(sim, 2);
  const OptResult a = spsa(
      [&scalar](const std::vector<double>& x) { return scalar(x); }, x0,
      opts);
  const BatchEvaluator evaluator(sim);
  const QaoaBatchObjective batched(evaluator, 2);
  const OptResult b = spsa_batched(
      [&batched](const std::vector<std::vector<double>>& points) {
        return batched(points);
      },
      x0, opts);
  expect_same_result(a, b);
  EXPECT_EQ(scalar.evaluations(), batched.evaluations());
}

TEST(BatchOptimizers, NelderMeadBatchSizesAreThePopulations) {
  // On a synthetic objective, check the population structure the batched
  // core submits: one batch of dim+1 (initial simplex), singletons for
  // reflect/expand/contract, and -- once the simplex must shrink -- a
  // batch of dim. A staircase of flat plateaus defeats contraction, so
  // shrinks are guaranteed.
  auto f = [](const std::vector<double>& x) {
    double s = 0.0;
    for (const double v : x) s += std::floor(std::abs(v) * 8) / 8;
    return s;
  };
  std::vector<std::size_t> sizes;
  const BatchObjectiveFn recording =
      [&](const std::vector<std::vector<double>>& points) {
        sizes.push_back(points.size());
        std::vector<double> values;
        for (const auto& x : points) values.push_back(f(x));
        return values;
      };
  NelderMeadOptions opts;
  opts.max_evals = 120;
  const OptResult r =
      nelder_mead_batched(recording, {0.9, -1.1, 1.3}, opts);
  EXPECT_LT(r.fval, f({0.9, -1.1, 1.3}));
  ASSERT_FALSE(sizes.empty());
  EXPECT_EQ(sizes.front(), 4u);  // dim+1 initial simplex
  int shrink_batches = 0;
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_TRUE(sizes[i] == 1 || sizes[i] == 3) << "batch " << i;
    if (sizes[i] == 3) ++shrink_batches;
  }
  EXPECT_GT(shrink_batches, 0);
}

TEST(BatchOptimizers, NelderMeadHonorsBudgetMidShrink) {
  // A budget that runs out inside a shrink step: the batched core must
  // evaluate exactly as many shrunk vertices as the scalar
  // eval-then-break loop would, and total evaluations must agree.
  auto f = [](const std::vector<double>& x) {
    double s = 0.0;
    for (const double v : x) s += std::floor(std::abs(v) * 8) / 8;
    return s;
  };
  for (int max_evals = 5; max_evals <= 30; ++max_evals) {
    NelderMeadOptions opts;
    opts.max_evals = max_evals;
    int scalar_evals = 0;
    const OptResult a = nelder_mead(
        [&](const std::vector<double>& x) {
          ++scalar_evals;
          return f(x);
        },
        {0.9, -1.1, 1.3}, opts);
    const OptResult b = nelder_mead_batched(
        [&](const std::vector<std::vector<double>>& points) {
          std::vector<double> values;
          for (const auto& x : points) values.push_back(f(x));
          return values;
        },
        {0.9, -1.1, 1.3}, opts);
    expect_same_result(a, b);
    EXPECT_EQ(scalar_evals, a.evaluations) << max_evals;
  }
}

TEST(BatchOptimizers, WrongSizedCallbackReturnsThrow) {
  // The population callback is arbitrary user code; returning the wrong
  // number of values must throw rather than index out of bounds.
  const BatchObjectiveFn broken =
      [](const std::vector<std::vector<double>>&) {
        return std::vector<double>{};
      };
  EXPECT_THROW(nelder_mead_batched(broken, {0.5, 0.5}, {}),
               std::invalid_argument);
  EXPECT_THROW(spsa_batched(broken, {0.5, 0.5}, {}), std::invalid_argument);
}

TEST(BatchOptimizers, GridSearchMatchesSequentialDoubleLoop) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 23));
  for (const char* name : {"serial", "auto", "u16"}) {
    const auto sim = choose_simulator(terms, name);
    const GridResult r =
        grid_search_p1(*sim, 7, 5, -0.8, 0.8, -1.0, 1.0);
    // The pre-batch implementation: evaluate in gamma-major order, keep
    // the first strictly-smallest point.
    GridResult naive;
    naive.value = std::numeric_limits<double>::infinity();
    for (int gi = 0; gi < 7; ++gi) {
      const double g = -0.8 + 1.6 * gi / 6;
      for (int bi = 0; bi < 5; ++bi) {
        const double b = -1.0 + 2.0 * bi / 4;
        const double gamma_arr[1] = {g};
        const double beta_arr[1] = {b};
        const StateVector state = sim->simulate_qaoa(gamma_arr, beta_arr);
        const double v = sim->get_expectation(state);
        if (v < naive.value) naive = {g, b, v};
      }
    }
    EXPECT_EQ(r.gamma, naive.gamma) << name;
    EXPECT_EQ(r.beta, naive.beta) << name;
    EXPECT_EQ(r.value, naive.value) << name;
  }
}

TEST(BatchOptimizers, OptimizeQaoaApiMatchesManualBatchedRun) {
  const TermList terms = labs_terms(7);
  NelderMeadOptions opts;
  opts.max_evals = 60;
  const auto outcome = api::optimize_qaoa(terms, 2, opts, "serial");

  // Same factory spelling as the api:: call above, so both sides resolve
  // identical configuration (including prec=auto) and stay bit-equal.
  const auto sim = choose_simulator(terms, "serial");
  const BatchEvaluator evaluator(*sim);
  const QaoaBatchObjective objective(evaluator, 2);
  const OptResult manual = nelder_mead_batched(
      [&objective](const std::vector<std::vector<double>>& points) {
        return objective(points);
      },
      linear_ramp(2).flatten(), opts);
  EXPECT_EQ(outcome.params.flatten(), manual.x);
  EXPECT_EQ(outcome.fval, manual.fval);
  EXPECT_EQ(outcome.evaluations, manual.evaluations);
  EXPECT_GT(outcome.batches, 0);
  EXPECT_LT(outcome.batches, outcome.evaluations);
}

}  // namespace
}  // namespace qokit
