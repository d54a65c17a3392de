#include "api/session.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "optimize/objective.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/sk.hpp"
#include "statevector/sampling.hpp"

namespace qokit::api {
namespace {

using steady = std::chrono::steady_clock;

std::uint64_t elapsed_ns(steady::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(steady::now() -
                                                           since)
          .count());
}

/// Build the simulator for the session's member-init list while timing
/// the construction (which is where the diagonal precompute happens).
std::unique_ptr<QaoaFastSimulatorBase> build_timed(
    const TermList& terms, const SimulatorSpec& spec,
    std::uint64_t* precompute_ns) {
  const steady::time_point start = steady::now();
  std::unique_ptr<QaoaFastSimulatorBase> sim = make_simulator(terms, spec);
  *precompute_ns = elapsed_ns(start);
  return sim;
}

BatchOptions batch_options_for(const EvalRequest& request,
                               std::uint64_t sample_seed) {
  BatchOptions opts;
  opts.parallelism = request.parallelism;
  opts.compute_expectation = request.expectation;
  opts.compute_overlap = request.overlap;
  opts.overlap_weight = request.overlap_weight;
  opts.sample_shots = request.shots;
  opts.sample_seed = sample_seed;
  return opts;
}

}  // namespace

ProblemSession::ProblemSession(const TermList& terms, SimulatorSpec spec)
    : spec_(spec),
      terms_(terms),
      sim_(build_timed(terms_, spec_, &precompute_ns_)),
      evaluator_(*sim_, batch_options_for(EvalRequest{}, spec.sample_seed)) {}

ProblemSession ProblemSession::maxcut(const Graph& g, SimulatorSpec spec) {
  return ProblemSession(maxcut_terms(g), spec);
}

ProblemSession ProblemSession::labs(int n, SimulatorSpec spec) {
  return ProblemSession(labs_terms(n), spec);
}

ProblemSession ProblemSession::portfolio(const PortfolioInstance& inst,
                                         SimulatorSpec spec) {
  // Listing 2 semantics by default: the Hamming-weight-preserving ring-XY
  // mixer started from the in-budget Dicke state. A spec that already
  // chose an xy mixer or a weight keeps its choice.
  if (spec.mixer == MixerType::X) spec.mixer = MixerType::XYRing;
  if (spec.initial_weight < 0) spec.initial_weight = inst.budget;
  return ProblemSession(portfolio_terms(inst), spec);
}

ProblemSession ProblemSession::sat(const SatInstance& inst,
                                   SimulatorSpec spec) {
  return ProblemSession(sat_terms(inst), spec);
}

ProblemSession ProblemSession::sk(int n, std::uint64_t seed,
                                  SimulatorSpec spec) {
  return ProblemSession(sk_terms(n, seed), spec);
}

EvalResult ProblemSession::evaluate(const QaoaParams& schedule,
                                    const EvalRequest& request) const {
  if (request.shots < 0)
    throw std::invalid_argument("EvalRequest: shots must be >= 0");
  schedule.check();
  const detail::ReentrancyGuard::Scope scope(guard_,
                                             "ProblemSession::evaluate");
  static const obs::Counter evaluates =
      obs::counter("qokit_evaluates_total");
  static const obs::Histogram layer_hist =
      obs::histogram("qokit_layer_ns");
  static const obs::Histogram reduce_hist =
      obs::histogram("qokit_reduce_ns");
  evaluates.add();
  obs::Span span("evaluate");
  span.attr("n", num_qubits());
  span.attr("p", static_cast<std::int64_t>(schedule.gammas.size()));
  span.attr("backend", qokit::to_string(spec_.backend).data());
  span.attr("prec_bits",
            static_cast<std::int64_t>(precision_bits(sim_->precision())));
  EvalResult out;
  const steady::time_point t0 = steady::now();
  // Refill batch pool slot 0 with the initial state in place (reusing its
  // buffer) and evolve it -- the exact arithmetic of a fresh simulator's
  // simulate_qaoa, without its allocations, and the same state an Inner
  // batch uses, so the session holds one state whichever path runs.
  StateVector& scratch = evaluator_.scratch_slot();
  sim_->fill_initial_state(scratch);
  std::vector<std::uint64_t> layer_ns;
  if (request.timings) {
    // Evolve layer by layer so the per-layer breakdown can be recorded.
    // Chaining p one-layer simulate_qaoa_from calls performs exactly the
    // arithmetic of the single p-layer call (the state is moved through),
    // so timed and untimed evaluations stay bit-identical. The one-layer
    // slices always match pairwise; schedule.check() above already
    // rejected a whole schedule whose lengths differ.
    const std::span<const double> gammas(schedule.gammas);
    const std::span<const double> betas(schedule.betas);
    layer_ns.reserve(gammas.size());
    for (std::size_t l = 0; l < gammas.size(); ++l) {
      obs::Span lspan("layer");
      lspan.attr("layer", static_cast<std::int64_t>(l));
      const steady::time_point tl = steady::now();
      scratch = sim_->simulate_qaoa_from(
          std::move(scratch), gammas.subspan(l, 1), betas.subspan(l, 1));
      layer_ns.push_back(elapsed_ns(tl));
      layer_hist.record(layer_ns.back());
    }
  } else if (request.expectation) {
    // Fused simulate+reduce: FurQaoaSimulator folds the expectation into
    // the final layer's last pipeline pass (skipping one full read of the
    // state); other backends run the two-pass default. Bit-identical to
    // simulate_qaoa_from + get_expectation either way, and the evolved
    // state stays in the slot for overlap/sampling below. The timed path
    // keeps the explicit two-pass split so layer timings stay pure
    // simulation.
    out.expectation = sim_->simulate_qaoa_expectation(
        scratch, schedule.gammas, schedule.betas);
  } else {
    scratch = sim_->simulate_qaoa_from(std::move(scratch), schedule.gammas,
                                       schedule.betas);
  }
  const std::uint64_t simulate_ns = elapsed_ns(t0);
  const steady::time_point t1 = steady::now();
  {
    obs::Span rspan("reduce");
    if (request.expectation && !out.expectation.has_value())
      out.expectation = sim_->get_expectation(scratch);
    if (request.overlap)
      out.overlap = sim_->get_overlap(scratch, request.overlap_weight);
    if (request.shots > 0)
      out.samples = StateSampler(scratch).sample(request.shots,
                                                 spec_.sample_seed);
  }
  const std::uint64_t reduce_ns = elapsed_ns(t1);
  reduce_hist.record(reduce_ns);
  if (request.timings)
    out.timings = Timings{precompute_ns_, simulate_ns, reduce_ns,
                          std::move(layer_ns)};
  return out;
}

std::vector<EvalResult> ProblemSession::evaluate_batch(
    std::span<const QaoaParams> schedules, const EvalRequest& request) const {
  for (const QaoaParams& s : schedules) s.check();
  const detail::ReentrancyGuard::Scope scope(
      guard_, "ProblemSession::evaluate_batch");
  BatchOptions opts = batch_options_for(request, spec_.sample_seed);
  opts.record_timings = request.timings;
  const steady::time_point t0 = steady::now();
  evaluator_.evaluate_into(schedules, opts, batch_scratch_);
  const std::uint64_t batch_ns = elapsed_ns(t0);
  std::vector<EvalResult> out(schedules.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (request.expectation)
      out[i].expectation = batch_scratch_.expectations[i];
    if (request.overlap) out[i].overlap = batch_scratch_.overlaps[i];
    if (request.shots > 0)
      out[i].samples = std::move(batch_scratch_.samples[i]);
    if (request.timings) {
      // Per-item attribution from the batch engine (this schedule's own
      // evolution and scoring time), plus the whole-call wall time so
      // callers can still see what the submission cost end to end.
      Timings t;
      t.precompute_ns = precompute_ns_;
      t.simulate_ns = batch_scratch_.simulate_ns[i];
      t.reduce_ns = batch_scratch_.reduce_ns[i];
      t.batch_ns = batch_ns;
      out[i].timings = std::move(t);
    }
  }
  return out;
}

std::vector<double> ProblemSession::expectations(
    std::span<const QaoaParams> schedules) const {
  for (const QaoaParams& s : schedules) s.check();
  const detail::ReentrancyGuard::Scope scope(
      guard_, "ProblemSession::expectations");
  return evaluator_.expectations(schedules);
}

EvalResult ProblemSession::optimize(const OptimizerSpec& optimizer) const {
  const detail::ReentrancyGuard::Scope scope(guard_,
                                             "ProblemSession::optimize");
  if (optimizer.p < 1)
    throw std::invalid_argument("ProblemSession::optimize: p must be >= 1");
  QaoaParams start = optimizer.initial;
  if (start.p() == 0) start = linear_ramp(optimizer.p);
  if (start.p() != optimizer.p)
    throw std::invalid_argument(
        "ProblemSession::optimize: initial schedule depth does not match p");
  start.check();
  // The populations ride the session's own pool: a per-call evaluator
  // would allocate (and, on worker threads, strand in glibc's per-thread
  // arenas) a fresh set of slots on every optimize.
  const QaoaBatchObjective objective(evaluator_, optimizer.p);
  const auto population =
      [&objective](const std::vector<std::vector<double>>& points) {
        return objective(points);
      };
  const steady::time_point t0 = steady::now();
  const OptResult r =
      optimizer.method == OptimizerSpec::Method::NelderMead
          ? nelder_mead_batched(population, start.flatten(),
                                optimizer.nelder_mead)
          : spsa_batched(population, start.flatten(), optimizer.spsa);
  EvalResult out;
  out.expectation = r.fval;
  out.params = QaoaParams::unflatten(r.x);
  out.evaluations = objective.evaluations();
  out.batches = objective.batches();
  out.iterations = r.iterations;
  out.converged = r.converged;
  out.timings = Timings{precompute_ns_, elapsed_ns(t0), 0};
  return out;
}

StateVector ProblemSession::simulate(const QaoaParams& schedule) const {
  schedule.check();
  const detail::ReentrancyGuard::Scope scope(guard_,
                                             "ProblemSession::simulate");
  return sim_->simulate_qaoa(schedule.gammas, schedule.betas);
}

std::vector<std::uint64_t> ProblemSession::sample(const QaoaParams& schedule,
                                                  int shots) const {
  EvalRequest request;
  request.expectation = false;
  request.shots = shots;
  EvalResult r = evaluate(schedule, request);
  return r.samples ? std::move(*r.samples) : std::vector<std::uint64_t>{};
}

}  // namespace qokit::api
