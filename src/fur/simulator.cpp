#include "fur/simulator.hpp"

#include <stdexcept>
#include <string>

#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "common/parallel.hpp"
#include "diagonal/ops.hpp"
#include "obs/obs.hpp"
#include "pipeline/layer_exec.hpp"

namespace qokit {
namespace {

/// One fused schedule over a raw amplitude array at either precision.
/// When `red` is set, the FINAL layer's last pass carries the expectation
/// reduction into `partials` (double at both precisions). The u16 factor
/// table is rebuilt per gamma into a per-thread, per-precision scratch
/// vector, so steady-state layers allocate nothing.
template <class T>
void fused_schedule(const pipeline::LayerPlan& plan, std::complex<T>* amp,
                    std::uint64_t n_amps, bool use_u16,
                    const CostDiagonal& diag, const DiagonalU16& diag16,
                    std::span<const double> gammas,
                    std::span<const double> betas, Exec exec,
                    const pipeline::ExpectationCtx* red = nullptr,
                    double* partials = nullptr) {
  thread_local aligned_vector<std::complex<T>> lut;  // u16 per-gamma factors
  for (std::size_t l = 0; l < gammas.size(); ++l) {
    pipeline::PhaseCtxT<T> ctx;
    if (use_u16) {
      diag16.phase_table_into(gammas[l], lut);
      ctx.codes = diag16.codes();
      ctx.table = lut.data();
    } else {
      ctx.costs = diag.data();
    }
    if (red && l + 1 == gammas.size()) {
      // Final layer: the reduction rides the last pass's write-back, so
      // the separate full-state expectation sweep never happens.
      pipeline::run_layer_expectation(plan, amp, n_amps, ctx, gammas[l],
                                      betas[l], exec, *red, partials);
    } else {
      pipeline::run_layer(plan, amp, n_amps, ctx, gammas[l], betas[l],
                          exec);
    }
  }
}

}  // namespace

StateVector QaoaFastSimulatorBase::initial_state() const {
  StateVector state;
  fill_initial_state(state);
  return state;
}

StateVector QaoaFastSimulatorBase::simulate_qaoa(
    std::span<const double> gammas, std::span<const double> betas) const {
  return simulate_qaoa_from(initial_state(), gammas, betas);
}

double QaoaFastSimulatorBase::simulate_qaoa_expectation(
    StateVector& state, std::span<const double> gammas,
    std::span<const double> betas) const {
  state = simulate_qaoa_from(std::move(state), gammas, betas);
  return get_expectation(state);
}

double QaoaFastSimulatorBase::get_expectation(const StateVector& result,
                                              const CostDiagonal& costs)
    const {
  return expectation(result, costs);
}

double QaoaFastSimulatorBase::get_overlap(const StateVector& result,
                                          const CostDiagonal& costs) const {
  return overlap_ground(result, costs);
}

std::vector<double> per_layer_expectations(const QaoaFastSimulatorBase& sim,
                                           std::span<const double> gammas,
                                           std::span<const double> betas) {
  if (gammas.size() != betas.size())
    throw std::invalid_argument("per_layer_expectations: length mismatch");
  std::vector<double> trace;
  trace.reserve(gammas.size());
  StateVector state = sim.initial_state();
  for (std::size_t l = 0; l < gammas.size(); ++l) {
    state = sim.simulate_qaoa_from(std::move(state), gammas.subspan(l, 1),
                                   betas.subspan(l, 1));
    trace.push_back(sim.get_expectation(state));
  }
  return trace;
}

namespace {

/// Refuses configurations no initial state or kernel can serve, at
/// construction rather than at the first evaluate's fill.
void check_config(const FurConfig& cfg, int num_qubits) {
  if (cfg.prec != Precision::F64 && cfg.mixer != MixerType::X)
    throw std::invalid_argument(
        "FurQaoaSimulator: prec=f32 supports the X mixer only");
  if (cfg.mixer != MixerType::X && cfg.initial_weight > num_qubits)
    throw std::invalid_argument(
        "FurQaoaSimulator: Dicke weight " +
        std::to_string(cfg.initial_weight) + " exceeds " +
        std::to_string(num_qubits) + " qubits");
}

}  // namespace

FurQaoaSimulator::FurQaoaSimulator(const TermList& terms, FurConfig cfg)
    : cfg_(cfg),
      diag_(CostDiagonal::precompute(terms, cfg.exec)),
      plan_(pipeline::LayerPlan::build(diag_.num_qubits(), cfg.mixer,
                                       cfg.geometry)) {
  check_config(cfg_, diag_.num_qubits());
  if (cfg_.use_u16) diag16_ = DiagonalU16::encode(diag_);
}

FurQaoaSimulator::FurQaoaSimulator(CostDiagonal costs, FurConfig cfg)
    : cfg_(cfg),
      diag_(std::move(costs)),
      plan_(pipeline::LayerPlan::build(diag_.num_qubits(), cfg.mixer,
                                       cfg.geometry)) {
  check_config(cfg_, diag_.num_qubits());
  if (cfg_.use_u16) diag16_ = DiagonalU16::encode(diag_);
}

void FurQaoaSimulator::fill_initial_state(StateVector& state) const {
  const int n = num_qubits();
  if (cfg_.mixer == MixerType::X) {
    state.assign_plus(n, cfg_.prec, cfg_.exec);
    return;
  }
  const int k = cfg_.initial_weight >= 0 ? cfg_.initial_weight : n / 2;
  state.assign_dicke(n, k, cfg_.prec, cfg_.exec);
}

StateVector FurQaoaSimulator::simulate_qaoa_from(
    StateVector state, std::span<const double> gammas,
    std::span<const double> betas) const {
  if (gammas.size() != betas.size())
    throw std::invalid_argument("simulate_qaoa: gammas/betas length mismatch");
  if (state.num_qubits() != num_qubits())
    throw std::invalid_argument("simulate_qaoa: state size mismatch");
  obs::Span span("simulate");
  span.attr("n", num_qubits());
  span.attr("p", static_cast<std::int64_t>(gammas.size()));
  span.attr("fused", plan_.active() ? 1 : 0);
  if (plan_.active()) {
    // Fused layer pipeline: the phase multiply rides the first mixer
    // sweep and butterflies run in cache-blocked tiles, cutting full
    // sweeps per layer from n + 1 to plan_.full_sweeps() — bit-identical
    // to the unfused loop (the traversal changes, the per-amplitude
    // arithmetic does not). Dispatch on the state's own precision so a
    // caller-provided f64 state through an f32 simulator still evolves
    // correctly (and vice versa).
    if (state.precision() == Precision::F32)
      fused_schedule(plan_, state.data_f32(), state.size(), cfg_.use_u16,
                     diag_, diag16_, gammas, betas, cfg_.exec);
    else
      fused_schedule(plan_, state.data(), state.size(), cfg_.use_u16, diag_,
                     diag16_, gammas, betas, cfg_.exec);
    return state;
  }
  // Algorithm 3, unfused, for the xy mixers (ordered two-qubit products
  // that no tile can fuse): per layer, one elementwise phase multiply
  // from the cached diagonal and one in-place mixer transform.
  for (std::size_t l = 0; l < gammas.size(); ++l) {
    if (cfg_.use_u16)
      apply_phase(state, diag16_, gammas[l], cfg_.exec);
    else
      apply_phase(state, diag_, gammas[l], cfg_.exec);
    apply_mixer(state, cfg_.mixer, betas[l], cfg_.exec);
  }
  return state;
}

double FurQaoaSimulator::simulate_qaoa_expectation(
    StateVector& state, std::span<const double> gammas,
    std::span<const double> betas) const {
  if (gammas.size() != betas.size())
    throw std::invalid_argument("simulate_qaoa: gammas/betas length mismatch");
  if (state.num_qubits() != num_qubits())
    throw std::invalid_argument("simulate_qaoa: state size mismatch");
  if (gammas.empty() || !plan_.active() ||
      !pipeline::can_fuse_expectation(plan_, state.size())) {
    // Two-pass path: xy mixers, tiny states, empty schedules.
    state = simulate_qaoa_from(std::move(state), gammas, betas);
    return get_expectation(state);
  }
  obs::Span span("simulate_expectation");
  span.attr("n", num_qubits());
  span.attr("p", static_cast<std::int64_t>(gammas.size()));
  pipeline::ExpectationCtx red;
  if (cfg_.use_u16) {
    red.codes = diag16_.codes();
    red.offset = diag16_.offset();
    red.scale = diag16_.scale();
  } else {
    red.costs = diag_.data();
  }
  thread_local aligned_vector<double> partials;
  partials.assign(state.size() / static_cast<std::uint64_t>(kReduceBlock),
                  0.0);
  if (state.precision() == Precision::F32)
    fused_schedule(plan_, state.data_f32(), state.size(), cfg_.use_u16,
                   diag_, diag16_, gammas, betas, cfg_.exec, &red,
                   partials.data());
  else
    fused_schedule(plan_, state.data(), state.size(), cfg_.use_u16, diag_,
                   diag16_, gammas, betas, cfg_.exec, &red,
                   partials.data());
  // Sequential sum in block-index order: parallel_reduce_blocks'
  // combination order, hence bit-identical to get_expectation(state).
  double acc = 0.0;
  for (const double p : partials) acc += p;
  return acc;
}

double FurQaoaSimulator::get_expectation(const StateVector& result) const {
  if (cfg_.use_u16) return expectation(result, diag16_, cfg_.exec);
  return expectation(result, diag_, cfg_.exec);
}

double FurQaoaSimulator::get_overlap(const StateVector& result,
                                     int restrict_weight) const {
  if (restrict_weight < 0) return overlap_ground(result, diag_, 1e-9, cfg_.exec);
  return overlap_ground_sector(result, diag_, restrict_weight, 1e-9,
                               cfg_.exec);
}

const DiagonalU16& FurQaoaSimulator::diagonal_u16() const {
  if (!cfg_.use_u16)
    throw std::logic_error("diagonal_u16: simulator not in u16 mode");
  return diag16_;
}

StateVector simulate_ma_qaoa(const FurQaoaSimulator& sim,
                             std::span<const double> gammas,
                             std::span<const double> betas) {
  const int n = sim.num_qubits();
  if (sim.config().mixer != MixerType::X)
    throw std::invalid_argument("simulate_ma_qaoa: X mixer only");
  if (betas.size() != gammas.size() * static_cast<std::size_t>(n))
    throw std::invalid_argument("simulate_ma_qaoa: need p*n mixer angles");
  StateVector state = sim.initial_state();
  const Exec exec = sim.config().exec;
  for (std::size_t l = 0; l < gammas.size(); ++l) {
    apply_phase(state, sim.get_cost_diagonal(), gammas[l], exec);
    apply_mixer_x_multiangle(state, betas.subspan(l * n, n), exec);
  }
  return state;
}

// The choose_simulator family is defined in api/spec.cpp: every name now
// parses through SimulatorSpec and every simulator is built by
// make_simulator, so the string grammar has exactly one home.

}  // namespace qokit
