// The QAOA fast-simulator class hierarchy (paper Sec. IV).
//
// Mirrors QOKit's Python API: an abstract base
// (qokit.fur.QAOAFastSimulatorBase) with simulate_qaoa plus get_-prefixed
// output methods, concrete simulators selected through choose_simulator
// family factories. Algorithm 3 (precompute once; per layer one elementwise
// phase multiply and one mixer transform) is the heart of simulate_qaoa.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "diagonal/cost_diagonal.hpp"
#include "diagonal/diagonal_u16.hpp"
#include "fur/mixers.hpp"
#include "pipeline/layer_plan.hpp"
#include "statevector/state.hpp"
#include "terms/term.hpp"

namespace qokit {

/// Construction-time options for FurQaoaSimulator.
struct FurConfig {
  Exec exec = Exec::Parallel;       ///< serial ("python") vs threaded ("c")
  MixerType mixer = MixerType::X;   ///< which mixing operator
  bool use_u16 = false;             ///< store/apply the uint16 diagonal
  int initial_weight = -1;          ///< Dicke weight for xy mixers; -1 = n/2
  /// Tiling of the fused layer pipeline (src/pipeline/) that runs every
  /// X-mixer layer. Any value gives the same bits; tests shrink it to
  /// reach tile-boundary shapes on small states.
  pipeline::Geometry geometry = pipeline::Geometry::defaults();
  /// Amplitude scalar width. F32 halves state memory and DRAM traffic per
  /// sweep; the diagonal, all angles, and every reduction stay double (see
  /// DESIGN.md "Mixed precision"). X mixer only — the ctor rejects F32
  /// with xy mixers.
  Precision prec = Precision::F64;
};

/// Abstract QAOA simulator: owns the precomputed cost diagonal and turns
/// (gamma, beta) parameter vectors into evolved states and objectives.
class QaoaFastSimulatorBase {
 public:
  virtual ~QaoaFastSimulatorBase() = default;

  virtual int num_qubits() const = 0;

  /// Amplitude precision this simulator evolves states at. Callers sizing
  /// scratch or cache entries (batch, serve) read this instead of
  /// assuming 16-byte amplitudes.
  virtual Precision precision() const = 0;

  /// Overwrite `state` with the default initial state -- |+>^n for the X
  /// mixer, the in-sector Dicke state for xy mixers -- at precision(),
  /// written in parallel under the simulator's own execution policy. The
  /// buffer is reused when it already holds num_qubits() amplitudes at
  /// precision() and reallocated otherwise, so a scratch slot is refilled
  /// in place with no cached copy to read from.
  virtual void fill_initial_state(StateVector& state) const = 0;

  /// The default initial state as a fresh allocation: fill_initial_state
  /// on an empty state, so both carry the same bits by construction.
  StateVector initial_state() const;

  /// Run Algorithm 3 from the default initial state. gammas and betas must
  /// have equal length p. The returned StateVector is the `result` object
  /// passed to the get_ methods.
  virtual StateVector simulate_qaoa(std::span<const double> gammas,
                                    std::span<const double> betas) const;

  /// Run Algorithm 3 from a caller-provided state (consumed in place).
  virtual StateVector simulate_qaoa_from(StateVector state,
                                         std::span<const double> gammas,
                                         std::span<const double> betas)
      const = 0;

  /// <result|C|result> using the precomputed diagonal.
  virtual double get_expectation(const StateVector& result) const = 0;

  /// Evolve `state` through the schedule (in place, like
  /// simulate_qaoa_from) and return <C> of the result in one call. The
  /// base implementation is the two-pass path: simulate, then
  /// get_expectation. FurQaoaSimulator overrides it to fuse the
  /// reduction into the final layer's last pipeline pass, skipping one
  /// full read of the state — bit-identical to the two-pass path by the
  /// kReduceBlock alignment argument (pipeline/layer_exec.hpp). The
  /// evolved state is left in `state` either way, so overlap/sampling
  /// can still consume it.
  virtual double simulate_qaoa_expectation(
      StateVector& state, std::span<const double> gammas,
      std::span<const double> betas) const;

  /// Expectation against a caller-supplied cost vector (QOKit's optional
  /// `costs` argument).
  double get_expectation(const StateVector& result,
                         const CostDiagonal& costs) const;

  /// Probability mass on minimum-cost basis states. If restrict_weight >= 0
  /// the minimum is taken within that Hamming-weight sector (relevant for
  /// constrained problems run under xy mixers).
  virtual double get_overlap(const StateVector& result,
                             int restrict_weight = -1) const = 0;

  /// Overlap against a caller-supplied cost vector (QOKit's optional
  /// `costs` argument to get_overlap).
  double get_overlap(const StateVector& result,
                     const CostDiagonal& costs) const;

  /// The evolved state itself (API parity with QOKit's get_statevector).
  const StateVector& get_statevector(const StateVector& result) const {
    return result;
  }

  /// |amp|^2 for every basis state.
  std::vector<double> get_probabilities(const StateVector& result) const {
    return result.probabilities();
  }

  /// The precomputed diagonal (QOKit's get_cost_diagonal).
  virtual const CostDiagonal& get_cost_diagonal() const = 0;

  /// True when one simulate_qaoa call already employs the machine's
  /// parallelism by itself (e.g. the virtual-rank distributed simulator
  /// spawns a thread per rank), so a batch engine should evaluate
  /// schedules sequentially rather than thread across them on top.
  virtual bool prefers_sequential_batches() const { return false; }
};

/// CPU fast simulator implementing Algorithm 3 over the fur kernels.
class FurQaoaSimulator final : public QaoaFastSimulatorBase {
 public:
  /// Precompute the diagonal from polynomial terms.
  explicit FurQaoaSimulator(const TermList& terms, FurConfig cfg = {});

  /// Adopt an existing cost vector (Listing 1's `costs` input path).
  FurQaoaSimulator(CostDiagonal costs, FurConfig cfg = {});

  int num_qubits() const override { return diag_.num_qubits(); }
  Precision precision() const override { return cfg_.prec; }
  void fill_initial_state(StateVector& state) const override;
  StateVector simulate_qaoa_from(StateVector state,
                                 std::span<const double> gammas,
                                 std::span<const double> betas) const override;
  using QaoaFastSimulatorBase::get_expectation;  // keep the costs overloads
  using QaoaFastSimulatorBase::get_overlap;
  double get_expectation(const StateVector& result) const override;
  double simulate_qaoa_expectation(StateVector& state,
                                   std::span<const double> gammas,
                                   std::span<const double> betas)
      const override;
  double get_overlap(const StateVector& result,
                     int restrict_weight = -1) const override;
  const CostDiagonal& get_cost_diagonal() const override { return diag_; }

  const FurConfig& config() const { return cfg_; }

  /// The compressed diagonal (valid only when cfg.use_u16).
  const DiagonalU16& diagonal_u16() const;

  /// The fused layer plan built at construction (once per simulator, and
  /// therefore once per session/batch — every schedule reuses it). It is
  /// inactive only for the xy mixers: simulate_qaoa_from then runs the
  /// unfused loop and fallback_reason() says why.
  const pipeline::LayerPlan& layer_plan() const { return plan_; }

 private:
  FurConfig cfg_;
  CostDiagonal diag_;
  DiagonalU16 diag16_;  ///< populated iff cfg_.use_u16
  pipeline::LayerPlan plan_;
};

/// Factory mirroring qokit.fur.choose_simulator: a thin wrapper over
/// make_simulator(terms, SimulatorSpec::parse(name)) — see api/spec.hpp
/// for the full grammar. Recognized base names: "auto" (threaded
/// fused-kernel, the default), "serial", "u16", and the distributed
/// spellings "dist" and "dist:K".
/// Unknown names throw std::invalid_argument naming the offending token.
std::unique_ptr<QaoaFastSimulatorBase> choose_simulator(
    const TermList& terms, std::string_view name = "auto");

/// Ring-XY-mixer variant of choose_simulator (same grammar; the mixer and
/// Dicke weight are forced onto the parsed spec).
std::unique_ptr<QaoaFastSimulatorBase> choose_simulator_xyring(
    const TermList& terms, std::string_view name = "auto",
    int initial_weight = -1);

/// Complete-graph-XY-mixer variant of choose_simulator.
std::unique_ptr<QaoaFastSimulatorBase> choose_simulator_xycomplete(
    const TermList& terms, std::string_view name = "auto",
    int initial_weight = -1);

/// Objective after each of the p layers (a depth trace): entry l is
/// <C> of the state after applying layers 1..l+1. Useful for studying how
/// energy descends along a schedule without re-simulating prefixes.
std::vector<double> per_layer_expectations(const QaoaFastSimulatorBase& sim,
                                           std::span<const double> gammas,
                                           std::span<const double> betas);

/// Multi-angle QAOA evolution (ma-QAOA): p phase angles and p*n per-qubit
/// mixer angles, laid out layer-major (betas[l*n + q] drives qubit q in
/// layer l). Reuses the simulator's precomputed diagonal; X mixer only.
StateVector simulate_ma_qaoa(const FurQaoaSimulator& sim,
                             std::span<const double> gammas,
                             std::span<const double> betas);

}  // namespace qokit
