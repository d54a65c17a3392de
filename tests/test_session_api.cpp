// Session-API acceptance tests: SimulatorSpec round-tripping and
// rejection of unknown spellings at every entry point, and the
// amortization contract of ProblemSession -- a 64-schedule parameter
// sweep performs exactly one diagonal precompute and zero steady-state
// statevector allocations (pinned via the instrumented AlignedAllocator
// counter) while staying bit-identical to 64 legacy one-line calls on
// every backend, including dist:K.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/qokit.hpp"

namespace qokit {
namespace {

std::vector<QaoaParams> random_schedules(int count, int p,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QaoaParams> schedules(count);
  for (QaoaParams& s : schedules) {
    s.gammas.resize(p);
    s.betas.resize(p);
    for (int l = 0; l < p; ++l) {
      s.gammas[l] = rng.uniform(-0.6, 0.6);
      s.betas[l] = rng.uniform(-0.9, 0.9);
    }
  }
  return schedules;
}

// ------------------------------------------------------------ spec

TEST(SimulatorSpec, RoundTripsOverTheFullGrid) {
  // parse(to_string(spec)) must reproduce every field, for every
  // combination -- including ones make_simulator would reject (parse and
  // to_string are string-level; semantic validation happens at build).
  for (const Backend backend :
       {Backend::Auto, Backend::Serial, Backend::U16, Backend::Dist})
    for (const MixerType mixer :
         {MixerType::X, MixerType::XYRing, MixerType::XYComplete})
      for (const Exec exec : {Exec::Serial, Exec::Parallel})
        for (const int ranks : {2, 8})
          for (const int weight : {-1, 3})
            for (const std::uint64_t seed : {1ull, 42ull}) {
              SimulatorSpec spec;
              spec.backend = backend;
              spec.mixer = mixer;
              spec.exec = exec;
              spec.ranks = ranks;
              spec.initial_weight = weight;
              spec.sample_seed = seed;
              const std::string name = spec.to_string();
              EXPECT_EQ(SimulatorSpec::parse(name), spec) << name;
            }
}

TEST(SimulatorSpec, ParsesLegacyAndExtendedSpellings) {
  EXPECT_EQ(SimulatorSpec::parse("auto"), SimulatorSpec{});

  const SimulatorSpec serial = SimulatorSpec::parse("serial");
  EXPECT_EQ(serial.backend, Backend::Serial);
  EXPECT_EQ(serial.exec, Exec::Serial);

  const SimulatorSpec dist = SimulatorSpec::parse("dist:4");
  EXPECT_EQ(dist.backend, Backend::Dist);
  EXPECT_EQ(dist.ranks, 4);
  EXPECT_EQ(dist.exec, Exec::Parallel);
  EXPECT_EQ(dist.to_string(), "dist:4");
  EXPECT_EQ(SimulatorSpec::parse("dist").to_string(), "dist:2");

  const SimulatorSpec seeded = SimulatorSpec::parse("u16:seed=9");
  EXPECT_EQ(seeded.backend, Backend::U16);
  EXPECT_EQ(seeded.sample_seed, 9u);

  const SimulatorSpec mixed =
      SimulatorSpec::parse("serial:mixer=xyring:weight=3");
  EXPECT_EQ(mixed.mixer, MixerType::XYRing);
  EXPECT_EQ(mixed.initial_weight, 3);

  const SimulatorSpec dist_opts = SimulatorSpec::parse("dist:4:seed=7");
  EXPECT_EQ(dist_opts.ranks, 4);
  EXPECT_EQ(dist_opts.sample_seed, 7u);
}

TEST(SimulatorSpec, RejectsUnknownTokensNamingThem) {
  EXPECT_THROW((void)SimulatorSpec::parse(""), std::invalid_argument);
  struct Case {
    const char* name;
    const char* offending;  ///< token the error message must contain
  };
  for (const Case c :
       {Case{"gpu", "gpu"}, Case{"Serial", "Serial"},
        Case{"auto:fast", "fast"}, Case{"u16:bogus", "bogus"},
        Case{"auto:mixer=ring", "mixer=ring"},
        Case{"auto:exec=turbo", "exec=turbo"},
        Case{"auto:seed=x", "seed=x"},
        Case{"dist:4:junk=1", "junk=1"},
        Case{"auto:simd=sse", "simd=sse"}, Case{"dist:two", "two"},
        // -1 is weight's unset value, not a spelling: a negative weight
        // would build the default simulator under an unequal spec.
        Case{"auto:weight=-5", "weight=-5"},
        Case{"auto:mixer=xyring:weight=-1", "weight=-1"},
        // Process-wide settings are not spec options: the kernel family
        // is QOKIT_SIMD / force_simd_level, instrumentation QOKIT_OBS /
        // obs::set_enabled, and the pipeline geometry is fixed.
        Case{"auto:tune=static", "tune=static"},
        Case{"auto:tune=/dev/zero", "tune=/dev/zero"},
        Case{"auto:simd=scalar", "simd=scalar"},
        Case{"auto:obs=on", "obs=on"},
        // X-mixer layers always run the fused pipeline; the unfused loop
        // is a test oracle, not a served option.
        Case{"auto:pipeline=off", "pipeline=off"},
        Case{"auto:pipeline=on", "pipeline=on"},
        // Every X-mixer layer has one implementation, and exec= is the
        // one Exec switch: these backend names are refused, not aliased.
        Case{"fwht", "fwht"}, Case{"threaded", "threaded"},
        // A backend names a topology, not an implementation: the gate
        // simulator is a test oracle, and dist has one alltoall
        // transport, so neither has a spelling left.
        Case{"gatesim", "gatesim"}, Case{"dist:4:staged", "staged"},
        Case{"dist:4:pairwise", "pairwise"},
        Case{"dist:4:direct", "direct"},
        Case{"auto:alltoall=pairwise", "alltoall=pairwise"},
        Case{"dist:alltoall=direct", "alltoall=direct"}}) {
    try {
      (void)SimulatorSpec::parse(c.name);
      FAIL() << "parse accepted '" << c.name << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.offending), std::string::npos)
          << c.name << " -> " << e.what();
    }
  }
}

TEST(SimulatorSpec, RejectsOutOfRangeIntegerTokens) {
  // Integer tokens that overflow their type must throw -- never wrap or
  // truncate into a silently different configuration. The message calls
  // out the range problem and the offending token.
  struct Case {
    const char* name;
    const char* offending;
  };
  for (const Case c :
       {Case{"dist:99999999999999999999", "99999999999999999999"},
        Case{"dist:ranks=99999999999999999999", "99999999999999999999"},
        Case{"dist:ranks=2147483648", "2147483648"},  // INT_MAX + 1
        Case{"auto:seed=18446744073709551616", "18446744073709551616"},
        Case{"auto:mixer=xyring:weight=9999999999", "9999999999"}}) {
    try {
      (void)SimulatorSpec::parse(c.name);
      FAIL() << "parse accepted '" << c.name << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("out of range"), std::string::npos)
          << c.name << " -> " << what;
      EXPECT_NE(what.find(c.offending), std::string::npos)
          << c.name << " -> " << what;
    }
  }
  // The extremes that DO fit still parse exactly.
  EXPECT_EQ(SimulatorSpec::parse("auto:seed=18446744073709551615").sample_seed,
            18446744073709551615ull);
  EXPECT_EQ(SimulatorSpec::parse("dist:ranks=2147483647").ranks, 2147483647);
  // And the canonical spelling of a max-seed spec round-trips.
  const SimulatorSpec max_seed =
      SimulatorSpec::parse("auto:seed=18446744073709551615");
  EXPECT_EQ(SimulatorSpec::parse(max_seed.to_string()), max_seed);
}

TEST(SimulatorSpec, EveryEntryPointRejectsUnknownNames) {
  const Graph g = Graph::random_regular(6, 3, 1);
  const TermList terms = maxcut_terms(g);
  const PortfolioInstance inst = random_portfolio(6, 2, 0.5, 1);
  const SatInstance sat = random_ksat(6, 3, 10, 1);
  const std::vector<double> gs{0.3}, bs{0.5};
  const std::vector<QaoaParams> batch = random_schedules(2, 1, 3);

  EXPECT_THROW((void)api::qaoa_maxcut_expectation(g, gs, bs, "gpu"),
               std::invalid_argument);
  EXPECT_THROW((void)api::qaoa_labs_evaluate(6, gs, bs, "gpu"),
               std::invalid_argument);
  EXPECT_THROW((void)api::qaoa_portfolio_expectation(inst, gs, bs, "gpu"),
               std::invalid_argument);
  EXPECT_THROW((void)api::qaoa_sat_evaluate(sat, gs, bs, "gpu"),
               std::invalid_argument);
  EXPECT_THROW((void)api::qaoa_batch_expectation(terms, batch, "gpu"),
               std::invalid_argument);
  EXPECT_THROW((void)api::qaoa_batch_evaluate(terms, batch, {}, "gpu"),
               std::invalid_argument);
  EXPECT_THROW((void)api::optimize_qaoa(terms, 1, {}, "gpu"),
               std::invalid_argument);
  EXPECT_THROW(api::ProblemSession(terms, SimulatorSpec::parse("gpu")),
               std::invalid_argument);
  EXPECT_THROW((void)choose_simulator(terms, "gpu"), std::invalid_argument);
  EXPECT_THROW((void)choose_simulator_xyring(terms, "gpu"),
               std::invalid_argument);
  EXPECT_THROW((void)choose_simulator_xycomplete(terms, "gpu"),
               std::invalid_argument);
}

TEST(MakeSimulator, EnforcesSemanticConstraints) {
  const TermList terms = labs_terms(6);
  SimulatorSpec dist_xy;
  dist_xy.backend = Backend::Dist;
  dist_xy.mixer = MixerType::XYComplete;
  EXPECT_THROW((void)make_simulator(terms, dist_xy), std::invalid_argument);
}

TEST(MakeSimulator, ValidatesDistRankCounts) {
  const TermList terms = labs_terms(6);
  // Rank counts must be a power of two; the error names the value.
  for (const int bad : {0, -4, 3, 6, 100}) {
    SimulatorSpec spec;
    spec.backend = Backend::Dist;
    spec.ranks = bad;
    try {
      (void)make_simulator(terms, spec);
      FAIL() << "make_simulator accepted ranks=" << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("power of two"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
    }
  }
  // ...and cannot exceed the 2^n amplitudes they would partition.
  const TermList tiny = maxcut_terms(Graph::random_regular(4, 3, 1));
  SimulatorSpec too_many;
  too_many.backend = Backend::Dist;
  too_many.ranks = 32;  // 2^5 ranks over a 2^4-amplitude problem
  try {
    (void)make_simulator(tiny, too_many);
    FAIL() << "make_simulator accepted 32 ranks on 4 qubits";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("32"), std::string::npos) << what;
    EXPECT_NE(what.find("exceed"), std::string::npos) << what;
  }
  // Each rank is a thread, so the count is capped at kMaxRanks before
  // any thread starts, even where n >= 2*log2 K would fit it.
  SimulatorSpec above_cap;
  above_cap.backend = Backend::Dist;
  above_cap.ranks = 128;
  try {
    (void)make_simulator(labs_terms(14), above_cap);
    FAIL() << "make_simulator accepted 128 ranks";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("128"), std::string::npos) << what;
    EXPECT_NE(what.find("cap of " + std::to_string(kMaxRanks)),
              std::string::npos)
        << what;
  }
  // The largest count the backend supports here (it additionally needs
  // n >= 2*log2 K for its transpose) still constructs fine.
  EXPECT_EQ(make_simulator(tiny, [] {
              SimulatorSpec s;
              s.backend = Backend::Dist;
              s.ranks = 4;
              return s;
            }())->num_qubits(),
            4);
}

// ------------------------------------------------------------ session

TEST(ProblemSession, SweepDoesOnePrecomputeAndZeroSteadyStateAllocations) {
  // The acceptance sweep: 64 schedules through one session, on every
  // backend family including dist:K. After a warm-up sweep the aligned
  // counter must not move at all -- no statevector allocation, no
  // diagonal re-precompute -- and every value must equal the legacy
  // one-line call (which rebuilds the simulator per query) bit for bit.
  const int n = 10;
  const Graph g = Graph::random_regular(n, 3, 5);
  const std::vector<QaoaParams> schedules = random_schedules(64, 2, 7);

  // The xy-ring session refills a Dicke state per schedule: in place, or
  // the counter moves.
  for (const char* name : {"serial", "auto", "u16", "dist:2", "dist:4",
                           "auto:mixer=xyring:weight=3"}) {
    SCOPED_TRACE(name);
    std::vector<double> legacy(schedules.size());
    for (std::size_t i = 0; i < schedules.size(); ++i)
      legacy[i] = api::qaoa_maxcut_expectation(
          g, schedules[i].gammas, schedules[i].betas, name);

    const api::ProblemSession session =
        api::ProblemSession::maxcut(g, SimulatorSpec::parse(name));
    const double* diag_before = session.cost_diagonal().data();
    const std::vector<double> warm = session.expectations(schedules);
    EXPECT_EQ(warm, legacy);
    (void)session.evaluate(schedules[0]);  // warm the scalar scratch too

    const std::uint64_t baseline = aligned_allocation_count();
    for (int sweep = 0; sweep < 3; ++sweep)
      EXPECT_EQ(session.expectations(schedules), legacy);
    // Scalar evaluates share the same scratch economy.
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(*session.evaluate(schedules[i % 64]).expectation,
                legacy[i % 64]);
    EXPECT_EQ(aligned_allocation_count(), baseline);
    EXPECT_EQ(session.cost_diagonal().data(), diag_before);
  }
}

TEST(ProblemSession, BuildAllocatesOnlyTheDiagonal) {
  // A session's construction allocates its diagonal -- plus the uint16
  // codes for u16 -- and nothing else: no initial state is cached, and
  // every pool slot stays empty until a call fills it.
  const int n = 12;
  const TermList terms = maxcut_terms(Graph::random_regular(n, 3, 5));
  for (const char* name : {"auto", "serial", "u16", "dist:2", "dist:4"}) {
    SCOPED_TRACE(name);
    const SimulatorSpec spec = SimulatorSpec::parse(name);
    const bool u16 = spec.backend == Backend::U16;
    const std::uint64_t count = aligned_allocation_count();
    const std::uint64_t bytes = aligned_allocation_bytes();
    const api::ProblemSession session(terms, spec);
    EXPECT_EQ(aligned_allocation_count() - count, u16 ? 2u : 1u);
    EXPECT_EQ(aligned_allocation_bytes() - bytes,
              dim_of(n) * (sizeof(double) + (u16 ? 2 : 0)));
  }
}

TEST(ProblemSession, SecondOptimizeAllocatesNothing) {
  // optimize runs its populations through the session's own pool, so once
  // a first run has filled the slots it needs, an identical second run
  // allocates no aligned memory at all.
  const TermList terms = labs_terms(10);
  for (const char* name : {"auto", "serial", "dist:2"}) {
    SCOPED_TRACE(name);
    const api::ProblemSession session(terms, SimulatorSpec::parse(name));
    api::OptimizerSpec optimizer;
    optimizer.p = 2;
    optimizer.nelder_mead.max_evals = 40;
    const api::EvalResult first = session.optimize(optimizer);
    const std::uint64_t baseline = aligned_allocation_count();
    const api::EvalResult second = session.optimize(optimizer);
    EXPECT_EQ(aligned_allocation_count(), baseline);
    EXPECT_EQ(*second.expectation, *first.expectation);
    EXPECT_EQ(second.params->flatten(), first.params->flatten());
  }
}

TEST(ProblemSession, EvaluateSharesPoolSlotZeroWithExpectations) {
  // A one-schedule batch runs Inner in pool slot 0, and scalar evaluate
  // borrows the same slot: after expectations({s}), evaluate(s) allocates
  // nothing, and both give the same bits.
  const int n = 12;
  const TermList terms = labs_terms(n);
  const std::vector<QaoaParams> one = random_schedules(1, 3, 21);
  // Warm the per-thread fused-reduction scratch at this size, so only the
  // session's own buffers can move the counter.
  (void)api::ProblemSession(labs_terms(n), {}).evaluate(one[0]);
  for (const char* name : {"auto", "serial", "u16", "dist:2",
                           "auto:mixer=xyring"}) {
    SCOPED_TRACE(name);
    const api::ProblemSession session(terms, SimulatorSpec::parse(name));
    const std::vector<double> batched = session.expectations(one);
    const std::uint64_t baseline = aligned_allocation_count();
    const api::EvalResult scalar = session.evaluate(one[0]);
    EXPECT_EQ(aligned_allocation_count(), baseline);
    EXPECT_EQ(*scalar.expectation, batched[0]);
  }
}

TEST(ProblemSession, RefusesOversizedProblemsBeforeAllocating) {
  // A session allocates nothing but its diagonal at construction, so the
  // diagonal's own check is the one that has to fire.
  const TermList terms(40, {{1.0, 1ull << 39}, {0.5, 0b11}});
  const std::uint64_t before = aligned_allocation_count();
  for (const char* name : {"auto", "serial", "u16", "dist:4"}) {
    try {
      const api::ProblemSession session(terms, SimulatorSpec::parse(name));
      ADD_FAILURE() << name << " built a 40-qubit session";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("34-qubit limit"),
                std::string::npos)
          << name << ": " << e.what();
    }
  }
  EXPECT_EQ(aligned_allocation_count(), before);
}

TEST(ProblemSession, EvaluateBatchMatchesScalarEvaluateAndLegacyBatch) {
  const TermList terms = labs_terms(9);
  const std::vector<QaoaParams> schedules = random_schedules(6, 2, 11);
  const api::ProblemSession session(terms, {});
  api::EvalRequest request;
  request.overlap = true;
  request.shots = 16;

  const std::vector<api::EvalResult> batch =
      session.evaluate_batch(schedules, request);
  ASSERT_EQ(batch.size(), schedules.size());

  const BatchOptions legacy_opts{.compute_overlap = true,
                                 .sample_shots = 16};
  const BatchResult legacy =
      api::qaoa_batch_evaluate(terms, schedules, legacy_opts);

  for (std::size_t i = 0; i < schedules.size(); ++i) {
    EXPECT_EQ(*batch[i].expectation, legacy.expectations[i]) << i;
    EXPECT_EQ(*batch[i].overlap, legacy.overlaps[i]) << i;
    EXPECT_EQ(*batch[i].samples, legacy.samples[i]) << i;
    // Scalar path agrees bit for bit (same seed: batch index 0 and the
    // scalar call both draw from Rng(sample_seed + 0)).
    const api::EvalResult scalar = session.evaluate(schedules[i], request);
    EXPECT_EQ(*scalar.expectation, *batch[i].expectation) << i;
    EXPECT_EQ(*scalar.overlap, *batch[i].overlap) << i;
  }
  const api::EvalResult first = session.evaluate(schedules[0], request);
  EXPECT_EQ(*first.samples, *batch[0].samples);
}

TEST(ProblemSession, RequestFlagsControlResultFields) {
  const api::ProblemSession session = api::ProblemSession::labs(8);
  const QaoaParams params = random_schedules(1, 2, 13).front();

  const api::EvalResult plain = session.evaluate(params);
  EXPECT_TRUE(plain.expectation.has_value());
  EXPECT_FALSE(plain.overlap.has_value());
  EXPECT_FALSE(plain.samples.has_value());
  EXPECT_FALSE(plain.timings.has_value());
  EXPECT_FALSE(plain.params.has_value());

  api::EvalRequest request;
  request.expectation = false;
  request.overlap = true;
  request.shots = 8;
  request.timings = true;
  const api::EvalResult full = session.evaluate(params, request);
  EXPECT_FALSE(full.expectation.has_value());
  EXPECT_TRUE(full.overlap.has_value());
  ASSERT_TRUE(full.samples.has_value());
  EXPECT_EQ(full.samples->size(), 8u);
  ASSERT_TRUE(full.timings.has_value());
  EXPECT_EQ(full.timings->precompute_ns, session.precompute_ns());
  EXPECT_GT(full.timings->simulate_ns, 0u);

  // Negative shot counts throw on every path, as they always have.
  api::EvalRequest negative;
  negative.shots = -1;
  const std::vector<QaoaParams> batch{params};
  EXPECT_THROW((void)session.evaluate(params, negative),
               std::invalid_argument);
  EXPECT_THROW((void)session.evaluate_batch(batch, negative),
               std::invalid_argument);
  EXPECT_THROW((void)session.sample(params, -1), std::invalid_argument);
  BatchOptions bad;
  bad.sample_shots = -1;
  EXPECT_THROW((void)api::qaoa_batch_evaluate(session.terms(), batch, bad),
               std::invalid_argument);
}

TEST(ProblemSession, OptimizeMatchesLegacyOneLineOptimizer) {
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 9));
  const NelderMeadOptions nm{.max_evals = 120};
  const api::OptimizeOutcome legacy =
      api::optimize_qaoa(terms, 2, nm, "serial");

  const api::ProblemSession session(terms, SimulatorSpec::parse("serial"));
  api::OptimizerSpec optimizer;
  optimizer.p = 2;
  optimizer.nelder_mead = nm;
  const api::EvalResult r = session.optimize(optimizer);

  EXPECT_EQ(*r.expectation, legacy.fval);
  EXPECT_EQ(r.params->gammas, legacy.params.gammas);
  EXPECT_EQ(r.params->betas, legacy.params.betas);
  EXPECT_EQ(*r.evaluations, legacy.evaluations);
  EXPECT_EQ(*r.batches, legacy.batches);
  EXPECT_TRUE(r.iterations.has_value());
  EXPECT_TRUE(r.converged.has_value());

  api::OptimizerSpec invalid_depth;
  invalid_depth.p = 0;
  EXPECT_THROW((void)session.optimize(invalid_depth), std::invalid_argument);
  api::OptimizerSpec mismatched;
  mismatched.p = 3;
  mismatched.initial = linear_ramp(2);
  EXPECT_THROW((void)session.optimize(mismatched), std::invalid_argument);
}

TEST(ProblemSession, NonFiniteOrRaggedSchedulesAreRejectedNamingTheLayer) {
  // QaoaParams::check() runs before any state is touched; unchecked, a NaN
  // gamma or an infinite beta would run the whole schedule to a NaN.
  const api::ProblemSession session = api::ProblemSession::labs(8);
  const QaoaParams good = random_schedules(1, 3, 29).front();
  const double before = *session.evaluate(good).expectation;
  const auto expect_rejected = [](const auto& call, const std::string& what) {
    try {
      call();
      ADD_FAILURE() << "accepted a schedule with " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf}) {
    QaoaParams gamma_bad = good;
    gamma_bad.gammas[1] = bad;
    QaoaParams beta_bad = good;
    beta_bad.betas[2] = bad;
    for (const auto& [sched, what] :
         {std::pair{gamma_bad, "gamma at layer 1"},
          std::pair{beta_bad, "beta at layer 2"}}) {
      const std::vector<QaoaParams> batch = {good, sched};
      expect_rejected([&] { (void)session.evaluate(sched); }, what);
      expect_rejected([&] { (void)session.evaluate_batch(batch); }, what);
      expect_rejected([&] { (void)session.expectations(batch); }, what);
      expect_rejected([&] { (void)session.simulate(sched); }, what);
      expect_rejected([&] { (void)session.sample(sched, 4); }, what);
      api::OptimizerSpec optimizer;
      optimizer.p = 3;
      optimizer.initial = sched;
      expect_rejected([&] { (void)session.optimize(optimizer); }, what);
    }
  }
  QaoaParams ragged = good;
  ragged.betas.pop_back();
  expect_rejected([&] { (void)session.evaluate(ragged); },
                  "3 gammas but 2 betas");
  // Nothing ran: the session still evaluates bit-identically.
  EXPECT_EQ(*session.evaluate(good).expectation, before);
}

TEST(ProblemSession, EqualSpecsProduceIdenticalSampleStreamsAcrossExec) {
  // The sampling seed travels in the spec, and the evolved amplitudes are
  // Exec-independent (the SIMD layer's determinism guarantee), so serial
  // and parallel sessions with the same seed draw identical streams.
  const QaoaParams params = random_schedules(1, 2, 19).front();
  api::ProblemSession serial =
      api::ProblemSession::labs(9, SimulatorSpec::parse("serial:seed=123"));
  api::ProblemSession parallel =
      api::ProblemSession::labs(9, SimulatorSpec::parse("auto:seed=123"));
  const auto a = serial.sample(params, 64);
  const auto b = parallel.sample(params, 64);
  EXPECT_EQ(a, b);
  // And a fresh session with the same spec reproduces the stream.
  api::ProblemSession again =
      api::ProblemSession::labs(9, SimulatorSpec::parse("serial:seed=123"));
  EXPECT_EQ(again.sample(params, 64), a);
  // A different seed must (with overwhelming probability) differ.
  api::ProblemSession other =
      api::ProblemSession::labs(9, SimulatorSpec::parse("serial:seed=124"));
  EXPECT_NE(other.sample(params, 64), a);
}

TEST(ProblemSession, PortfolioBuilderDefaultsToInSectorXyMixer) {
  const PortfolioInstance inst = random_portfolio(8, 3, 0.5, 4);
  const api::ProblemSession session = api::ProblemSession::portfolio(inst);
  EXPECT_EQ(session.spec().mixer, MixerType::XYRing);
  EXPECT_EQ(session.spec().initial_weight, 3);

  const QaoaParams params = random_schedules(1, 2, 23).front();
  api::EvalRequest request;
  request.overlap = true;
  request.overlap_weight = inst.budget;
  const api::EvalResult r = session.evaluate(params, request);
  // Legacy path: the xyring factory with the same weight.
  const auto legacy = choose_simulator_xyring(portfolio_terms(inst), "auto",
                                              inst.budget);
  const StateVector ref = legacy->simulate_qaoa(params.gammas, params.betas);
  EXPECT_EQ(*r.expectation, legacy->get_expectation(ref));
  EXPECT_EQ(*r.overlap, legacy->get_overlap(ref, inst.budget));
  // The evolved state never leaves the budget sector.
  EXPECT_NEAR(session.simulate(params).weight_sector_mass(inst.budget), 1.0,
              1e-10);
}

}  // namespace
}  // namespace qokit
