// The cache-blocked fused layer pipeline (src/pipeline/) must be
// *bit-identical* -- not merely close -- to the unfused per-qubit layer
// loop it replaces (tests/support/unfused_oracle.hpp), across every
// backend (serial / auto / u16 / dist:2 / dist:4),
// both Exec policies, every installable SIMD level and both precisions;
// fusion reorders the memory traversal, never the per-amplitude
// arithmetic. Also pins the plan's pass-count math, the tile-boundary edge
// cases (n < t, n == t, odd high-qubit remainders), that every X-mixer
// plan is active, and the unfused fallback (with diagnostic) for the xy
// mixers.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "api/qokit.hpp"
#include "common/cpu_features.hpp"
#include "pipeline/layer_exec.hpp"
#include "support/simd_levels.hpp"
#include "support/unfused_oracle.hpp"

namespace qokit {
namespace {

using testing::SimdLevelGuard;

/// Deterministic random problem per seed, cycling families (the
/// cross-validation idiom).
TermList random_problem(std::uint64_t seed, int* n_out) {
  Rng rng(seed * 7919);
  const int n = 8 + static_cast<int>(rng.uniform_int(4));  // 8..11
  *n_out = n;
  switch (seed % 3) {
    case 0:
      return maxcut_terms(Graph::random_regular(n - (n % 2), 3, seed));
    case 1:
      return labs_terms(n);
    default:
      return sk_terms(n, seed);
  }
}

/// A fixed 3-layer schedule exercising positive/negative angles.
QaoaParams test_schedule() {
  QaoaParams s;
  s.gammas = {0.31, -0.47, 0.83};
  s.betas = {0.78, 0.15, -0.52};
  return s;
}

/// Bitwise equality of two evolved states at either precision.
bool same_bits(const StateVector& a, const StateVector& b) {
  if (a.precision() != b.precision() || a.size() != b.size()) return false;
  return a.precision() == Precision::F32
             ? std::memcmp(a.data_f32(), b.data_f32(),
                           a.size() * sizeof(cfloat)) == 0
             : std::memcmp(a.data(), b.data(), a.size() * sizeof(cdouble)) ==
                   0;
}

/// The fused evolution of the simulator `name` builds must equal the
/// unfused oracle's byte for byte, and its simulate+reduce expectation
/// must equal the two-pass expectation of the oracle state.
void expect_fused_matches_oracle(const TermList& terms,
                                 const std::string& name) {
  const auto sim = make_simulator(terms, SimulatorSpec::parse(name));
  const QaoaParams sched = test_schedule();
  const StateVector fused = sim->simulate_qaoa(sched.gammas, sched.betas);
  const StateVector oracle =
      testing::unfused_simulate(*sim, sched.gammas, sched.betas);
  EXPECT_TRUE(same_bits(fused, oracle)) << name;
  StateVector state = sim->initial_state();
  EXPECT_EQ(sim->simulate_qaoa_expectation(state, sched.gammas, sched.betas),
            sim->get_expectation(oracle))
      << name;
}

class PipelineCrossValidationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineCrossValidationTest, FusedEqualsUnfusedOnEveryBackend) {
  const std::uint64_t seed = GetParam();
  int n = 0;
  const TermList terms = random_problem(seed, &n);
  SimdLevelGuard guard;
  for (const SimdLevel level : testing::installable_simd_levels()) {
    force_simd_level(level);
    for (const std::string name :
         {"serial", "auto", "auto:exec=serial", "u16", "u16:exec=serial",
          "dist:2", "dist:4"})
      for (const char* prec : {"", ":prec=f32"})
        expect_fused_matches_oracle(terms, name + prec);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineCrossValidationTest,
                         ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------------------------------------ edge cases

/// SK couplings, or a single-qubit field at n = 1 (SK needs two spins).
TermList tiling_problem(int n) {
  if (n >= 2) return sk_terms(n, 11);
  TermList t(1, {});
  t.add(0.7, {0});
  return t;
}

/// Build a FurQaoaSimulator with custom tiling and assert that its fused
/// evolution equals the unfused oracle's bitwise.
void expect_tiling_identical(int n, int tile_log2, int group_qubits,
                             int chunk_log2, bool use_u16, Exec exec,
                             Precision prec = Precision::F64) {
  const TermList terms = tiling_problem(n);
  FurConfig cfg;
  cfg.exec = exec;
  cfg.use_u16 = use_u16;
  cfg.prec = prec;
  cfg.geometry = {tile_log2, group_qubits, chunk_log2};
  const FurQaoaSimulator sim(terms, cfg);
  ASSERT_TRUE(sim.layer_plan().active());
  const QaoaParams sched = test_schedule();
  EXPECT_TRUE(same_bits(
      sim.simulate_qaoa(sched.gammas, sched.betas),
      testing::unfused_simulate(sim, sched.gammas, sched.betas)))
      << "n=" << n << " t=" << tile_log2 << " g=" << group_qubits
      << " c=" << chunk_log2 << " u16=" << use_u16
      << " f32=" << (prec == Precision::F32)
      << " level=" << simd_level_name(active_simd_level());
}

/// The same for the distributed simulator, whose post-alltoall sweep plan
/// starts at local qubit n - 2 log2(ranks).
void expect_dist_tiling_identical(int n, int ranks,
                                  const pipeline::Geometry& geometry,
                                  Precision prec) {
  const TermList terms = sk_terms(n, 11);
  const DistributedFurSimulator sim(
      terms, DistConfig{.ranks = ranks, .geometry = geometry, .prec = prec});
  const QaoaParams sched = test_schedule();
  EXPECT_TRUE(same_bits(
      sim.simulate_qaoa(sched.gammas, sched.betas),
      testing::unfused_simulate(sim, sched.gammas, sched.betas)))
      << "dist n=" << n << " ranks=" << ranks << " t=" << geometry.tile_log2
      << " g=" << geometry.group_qubits << " c=" << geometry.chunk_log2
      << " f32=" << (prec == Precision::F32)
      << " level=" << simd_level_name(active_simd_level());
}

TEST(PipelineTiling, TileBoundaryEdgeCases) {
  SimdLevelGuard guard;
  for (const SimdLevel level : testing::installable_simd_levels()) {
    force_simd_level(level);
    for (const Exec exec : {Exec::Serial, Exec::Parallel}) {
      expect_tiling_identical(3, 4, 2, 2, false, exec);  // n < t: one tile
      expect_tiling_identical(4, 4, 2, 2, false, exec);  // n == t
      expect_tiling_identical(9, 4, 2, 2, false,
                              exec);  // odd remainder: groups {2,2,1}
      expect_tiling_identical(9, 4, 3, 2, false,
                              exec);  // remainder group of 2
      expect_tiling_identical(2, 4, 2, 2, false,
                              exec);  // smaller than any tile
      expect_tiling_identical(9, 4, 2, 2, true,
                              exec);  // u16 table phase, tiled
      expect_tiling_identical(10, 5, 2, 4, true,
                              exec);  // chunk == row stride
      // Shapes the RX level grouping creates: adjacent levels share one
      // round trip, in pairs (and a lone odd level) where the family has
      // no rx3 kernels, else in triples and pairs (never a lone level but
      // for a unit of one). Counts below are the levels left after
      // phase_rx; the u16 path has two more, from qubit 0.
      for (const Precision prec : {Precision::F64, Precision::F32})
        for (const bool u16 : {false, true}) {
          const auto check = [&](int n, int t, int g, int c) {
            expect_tiling_identical(n, t, g, c, u16, exec, prec);
          };
          check(9, 5, 2, 2);   // in-tile 3: a pair and one, or a triple
          check(8, 6, 2, 2);   // in-tile 4: two pairs either way
          check(10, 4, 1, 2);  // strided groups of 1: every level alone
          check(10, 4, 3, 2);  // groups of 3: a pair and one, or a triple
          check(10, 4, 4, 2);  // a group of 4: two pairs either way
          check(9, 4, 5, 2);   // a group of 5: 2+2+1, or 3+2
          check(10, 4, 2, 1);  // chunk of 2 requested: clamped to 4
          check(10, 4, 2, 2);  // chunk of 4: one f32 register per row
          check(10, 4, 3, 4);  // chunk of 16
          check(1, 4, 2, 2);   // n = 1: phase and qubit 0 only
          check(2, 4, 2, 2);   // n = 2: one pair of levels, whole state
        }
    }
    // The rows a strided pass gathers are 2 amplitudes long only in the
    // dist sweep that starts at local qubit 1 (n = 2 log2(ranks) + 1).
    for (const Precision prec : {Precision::F64, Precision::F32})
      for (const pipeline::Geometry geometry :
           {pipeline::Geometry::defaults(), pipeline::Geometry{4, 2, 2},
            pipeline::Geometry{2, 1, 1}}) {
        expect_dist_tiling_identical(5, 4, geometry, prec);
        expect_dist_tiling_identical(7, 8, geometry, prec);
        expect_dist_tiling_identical(3, 2, geometry, prec);
      }
  }
}

TEST(PipelineTiling, OutOfRangeGeometryIsClampedToARunnablePlan) {
  // Degenerate knobs must not break identity (clamps: tile >= 2^2,
  // chunk in [2^2, 2^q_begin], group >= 1).
  expect_tiling_identical(8, 0, 0, 0, false, Exec::Serial);
  expect_tiling_identical(8, 30, 64, 25, false, Exec::Serial);
}

// ---------------------------------------------------------- plan shapes

TEST(LayerPlan, PassCountMathMatchesTheTilingFormula) {
  const pipeline::Geometry geometry = pipeline::Geometry::defaults();
  for (const int n : {16, 20, 22, 24, 30}) {
    const auto plan = pipeline::LayerPlan::build(n, MixerType::X, geometry);
    ASSERT_TRUE(plan.active());
    const int t = geometry.tile_log2;
    const int g = geometry.group_qubits;
    const int expected =
        1 + (n > t ? (n - t + g - 1) / g : 0);  // 1 + ceil((n - t)/g)
    EXPECT_EQ(plan.full_sweeps(), expected) << "n=" << n;
    // The acceptance bound: no worse than ceil(n/t) + 1 full sweeps at
    // the benchmarked sizes (the unfused loop costs n + 1).
    if (n <= 24) {
      EXPECT_LE(plan.full_sweeps(), (n + t - 1) / t + 1) << "n=" << n;
    }
    EXPECT_LT(plan.full_sweeps(), n + 1) << "n=" << n;
  }
}

TEST(LayerPlan, FirstPassFusesThePhaseIntoTheMixerSweep) {
  const auto plan = pipeline::LayerPlan::build(
      24, MixerType::X, pipeline::Geometry::defaults());
  ASSERT_TRUE(plan.active());
  ASSERT_FALSE(plan.passes().empty());
  const pipeline::LayerPass& first = plan.passes().front();
  EXPECT_FALSE(first.strided);
  EXPECT_TRUE(first.phase);
  EXPECT_EQ(first.q_begin, 0);
  // No other pass re-applies the diagonal phase.
  for (std::size_t i = 1; i < plan.passes().size(); ++i)
    EXPECT_FALSE(plan.passes()[i].phase) << i;
}

// ------------------------------------------------- fallbacks/diagnostics

TEST(PipelineFallback, XyMixersFallBackWithAPinnedDiagnostic) {
  const PortfolioInstance inst = random_portfolio(7, 3, 0.5, 11);
  const auto sim = choose_simulator_xyring(portfolio_terms(inst), "auto",
                                           inst.budget);
  const auto* fur = dynamic_cast<const FurQaoaSimulator*>(sim.get());
  ASSERT_NE(fur, nullptr);
  EXPECT_FALSE(fur->layer_plan().active());
  EXPECT_NE(fur->layer_plan().fallback_reason().find("xyring"),
            std::string::npos)
      << fur->layer_plan().fallback_reason();
}

TEST(LayerPlan, EveryXMixerPlanIsActiveAndOnlyXyMixersFallBack) {
  // No switch turns the pipeline off: every X-mixer shape plans fused
  // passes, whatever the geometry (including degenerate ones the clamps
  // repair). The xy mixers are the one unfused path left.
  for (const pipeline::Geometry geometry :
       {pipeline::Geometry::defaults(), pipeline::Geometry{0, 0, 0},
        pipeline::Geometry{30, 64, 25}})
    for (int n = 1; n <= 30; ++n) {
      const auto x_plan = pipeline::LayerPlan::build(n, MixerType::X, geometry);
      EXPECT_TRUE(x_plan.active())
          << "n=" << n << " t=" << geometry.tile_log2;
      EXPECT_EQ(x_plan.fallback_reason(), "");
      EXPECT_FALSE(x_plan.passes().empty());
      for (const auto& [mixer, token] :
           {std::pair{MixerType::XYRing, "xyring"},
            std::pair{MixerType::XYComplete, "xycomplete"}}) {
        const auto plan = pipeline::LayerPlan::build(n, mixer, geometry);
        EXPECT_FALSE(plan.active()) << "n=" << n << " " << token;
        EXPECT_EQ(plan.fallback_reason(),
                  std::string("mixer=") + token +
                      ": ordered two-qubit XY rotations cannot be "
                      "tile-fused; using the unfused path");
      }
    }
}

TEST(LayerPlan, MakeSimulatorRunsTheFixedGeometry) {
  const TermList terms = labs_terms(8);
  for (const char* name : {"auto", "serial", "u16", "auto:prec=f32"}) {
    const auto sim = make_simulator(terms, SimulatorSpec::parse(name));
    const auto* fur = dynamic_cast<const FurQaoaSimulator*>(sim.get());
    ASSERT_NE(fur, nullptr) << name;
    EXPECT_EQ(fur->config().geometry, pipeline::Geometry::defaults())
        << name;
    EXPECT_TRUE(fur->layer_plan().active()) << name;
  }
  for (const char* name : {"dist:2", "dist:4"}) {
    const auto sim = make_simulator(terms, SimulatorSpec::parse(name));
    const auto* dist =
        dynamic_cast<const DistributedFurSimulator*>(sim.get());
    ASSERT_NE(dist, nullptr) << name;
    EXPECT_EQ(dist->config().geometry, pipeline::Geometry::defaults())
        << name;
    EXPECT_TRUE(dist->layer_plan().active()) << name;
  }
}

TEST(PipelineFallback, RunLayerRejectsMisuse) {
  StateVector sv = StateVector::plus_state(4);
  const pipeline::LayerPlan inactive;
  pipeline::PhaseCtx ctx;
  EXPECT_THROW(pipeline::run_layer(inactive, sv.data(), sv.size(), ctx, 0.1,
                                   0.2, Exec::Serial),
               std::logic_error);
  const auto plan = pipeline::LayerPlan::build(
      4, MixerType::X, pipeline::Geometry::defaults());
  ASSERT_TRUE(plan.active());
  // No phase source.
  EXPECT_THROW(pipeline::run_layer(plan, sv.data(), sv.size(), ctx, 0.1,
                                   0.2, Exec::Serial),
               std::invalid_argument);
  // Array/plan size mismatch.
  const CostDiagonal diag = CostDiagonal::precompute(labs_terms(4));
  ctx.costs = diag.data();
  EXPECT_THROW(pipeline::run_layer(plan, sv.data(), sv.size() / 2, ctx, 0.1,
                                   0.2, Exec::Serial),
               std::invalid_argument);
}

// ------------------------------------------------- spec/session plumbing

TEST(PipelineSession, SessionsReuseOnePlanAndReportLayerTimings) {
  const Graph g = Graph::random_regular(8, 3, 5);
  const api::ProblemSession session =
      api::ProblemSession::maxcut(g, SimulatorSpec{});
  const auto* fur =
      dynamic_cast<const FurQaoaSimulator*>(&session.simulator());
  ASSERT_NE(fur, nullptr);
  EXPECT_TRUE(fur->layer_plan().active());
  api::EvalRequest request;
  request.timings = true;
  const QaoaParams sched = test_schedule();
  const api::EvalResult timed = session.evaluate(sched, request);
  ASSERT_TRUE(timed.timings.has_value());
  ASSERT_EQ(timed.timings->layer_ns.size(), sched.gammas.size());
  std::uint64_t total = 0;
  for (const std::uint64_t ns : timed.timings->layer_ns) total += ns;
  EXPECT_LE(total, timed.timings->simulate_ns);
  // The layer-by-layer timed evolution is bit-identical to the untimed
  // single-call one.
  const api::EvalResult untimed = session.evaluate(sched);
  EXPECT_EQ(timed.expectation, untimed.expectation);
  // The timed path must reject mismatched schedules exactly like the
  // untimed one (regression: it once sliced per layer without checking).
  QaoaParams ragged;
  ragged.gammas = {0.1, 0.2};
  ragged.betas = {0.3};
  EXPECT_THROW(session.evaluate(ragged, request), std::invalid_argument);
  EXPECT_THROW(session.evaluate(ragged), std::invalid_argument);
}

// ------------------------------------------------- fused expectation

TEST(PipelineFusedExpectation, UntimedSessionMatchesTheTwoPassOracle) {
  // n = 11: 2^11 amplitudes is wide enough for the fused final-pass
  // reduction (can_fuse_expectation needs the last pass to cover at
  // least one kReduceBlock). The untimed evaluate() takes the fused
  // simulate+reduce route; the timed one keeps the explicit two-pass
  // split so layer timings stay pure simulation. Expectation AND the
  // post-evolution reductions (overlap here) must agree bitwise.
  const QaoaParams sched = test_schedule();
  SimdLevelGuard guard;
  for (const SimdLevel level : testing::installable_simd_levels()) {
    force_simd_level(level);
    for (const char* name : {"auto", "serial", "u16", "u16:exec=serial"}) {
      const TermList terms = sk_terms(11, 9);
      const api::ProblemSession session(terms, SimulatorSpec::parse(name));
      const auto* fur =
          dynamic_cast<const FurQaoaSimulator*>(&session.simulator());
      ASSERT_NE(fur, nullptr) << name;
      ASSERT_TRUE(fur->layer_plan().active()) << name;
      // The setup must actually engage the fused reduction, or this test
      // would compare two-pass against itself.
      ASSERT_TRUE(pipeline::can_fuse_expectation(fur->layer_plan(),
                                                 std::uint64_t{1} << 11))
          << name;
      api::EvalRequest fused_req;
      fused_req.overlap = true;  // expectation defaults to true
      const api::EvalResult fused = session.evaluate(sched, fused_req);
      api::EvalRequest two_pass_req = fused_req;
      two_pass_req.timings = true;
      const api::EvalResult two_pass = session.evaluate(sched, two_pass_req);
      ASSERT_TRUE(fused.expectation.has_value()) << name;
      ASSERT_TRUE(two_pass.expectation.has_value()) << name;
      EXPECT_EQ(*fused.expectation, *two_pass.expectation) << name;
      ASSERT_TRUE(fused.overlap.has_value()) << name;
      EXPECT_EQ(*fused.overlap, *two_pass.overlap) << name;
    }
  }
}

TEST(PipelineFusedExpectation, SmallStatesFallBackToTwoPass) {
  // Below one reduce block the fused route must decline (and the
  // simulator silently run the two-pass default).
  const TermList terms = sk_terms(8, 9);
  const api::ProblemSession session(terms, SimulatorSpec::parse("auto"));
  const auto* fur =
      dynamic_cast<const FurQaoaSimulator*>(&session.simulator());
  ASSERT_NE(fur, nullptr);
  EXPECT_FALSE(pipeline::can_fuse_expectation(fur->layer_plan(),
                                              std::uint64_t{1} << 8));
  const QaoaParams sched = test_schedule();
  api::EvalRequest timed;
  timed.timings = true;
  EXPECT_EQ(session.evaluate(sched).expectation,
            session.evaluate(sched, timed).expectation);
}

TEST(PipelineDist, DistPlansTheLocalSliceAndMatchesOracleAtTheBoundary) {
  // n == 2 log2 K: after the alltoall the swapped-in globals start at
  // local qubit 0, exercising run_rx_sweep's tile branch.
  const TermList terms = sk_terms(4, 3);
  const DistributedFurSimulator sim(terms, DistConfig{.ranks = 4});
  EXPECT_TRUE(sim.layer_plan().active());
  EXPECT_EQ(sim.layer_plan().num_qubits(), 2);  // local qubits
  const QaoaParams sched = test_schedule();
  EXPECT_TRUE(same_bits(
      sim.simulate_qaoa(sched.gammas, sched.betas),
      testing::unfused_simulate(sim, sched.gammas, sched.betas)));
}

}  // namespace
}  // namespace qokit
