#include "api/session.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/timer.hpp"
#include "optimize/objective.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/sk.hpp"

namespace qokit::api {
namespace {

using steady = std::chrono::steady_clock;

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

}  // namespace

ProblemSession::ProblemSession(const TermList& terms, SimulatorSpec spec)
    : spec_(spec),
      terms_(terms),
      sim_(build_timed(terms_, spec_, &precompute_ns_)),
      evaluator_(*sim_, spec_.sample_seed) {}

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
  const detail::ReentrancyGuard::Scope scope(guard_,
                                             "ProblemSession::evaluate");
  obs::Span span("evaluate");
  span.attr("n", num_qubits());
  span.attr("p", static_cast<std::int64_t>(schedule.gammas.size()));
  span.attr("backend", qokit::to_string(spec_.backend).data());
  span.attr("exec", spec_.exec == Exec::Serial ? "serial" : "parallel");
  span.attr("prec_bits",
            static_cast<std::int64_t>(precision_bits(sim_->precision())));
  // A one-schedule batch: the engine checks the schedule, then runs it
  // Inner in pool slot 0, with the expectation fused into the final pass.
  EvalResult out = std::move(evaluator_.evaluate(
      std::span<const QaoaParams>(&schedule, 1), request)[0]);
  // Counted once it ran: a schedule the engine refuses is no evaluate.
  static const obs::Counter evaluates =
      obs::counter("qokit_evaluates_total");
  evaluates.add();
  out.timings.precompute_ns = precompute_ns_;
  return out;
}

std::vector<EvalResult> ProblemSession::evaluate_batch(
    std::span<const QaoaParams> schedules, const EvalRequest& request) const {
  const detail::ReentrancyGuard::Scope scope(
      guard_, "ProblemSession::evaluate_batch");
  const steady::time_point t0 = steady::now();
  std::vector<EvalResult> out = evaluator_.evaluate(schedules, request);
  const std::uint64_t batch_ns = elapsed_ns(t0);
  for (EvalResult& r : out) {
    r.timings.precompute_ns = precompute_ns_;
    r.timings.batch_ns = batch_ns;
  }
  return out;
}

std::vector<double> ProblemSession::expectations(
    std::span<const QaoaParams> schedules) const {
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
  out.timings.precompute_ns = precompute_ns_;
  out.timings.simulate_ns = elapsed_ns(t0);
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
