// Distributed QAOA fast simulator (paper Sec. III-C, Algorithm 4).
//
// The 2^n statevector is sharded across K virtual ranks into contiguous
// slices of 2^(n - log2 K) amplitudes; rank r owns global indices
// [r * 2^(n-g), (r+1) * 2^(n-g)) with g = log2 K, i.e. the top g qubits
// are "global" (encoded in the rank index) and the low n-g are "local".
// Per layer each rank applies the phase multiply against its precomputed
// diagonal slice, runs the fused X-mixer on the local qubits, and the
// global qubits are handled by the alltoall qubit reordering: one block
// exchange swaps qubit ranges [n-2g, n-g) and [n-g, n), making the former
// global qubits local so the same in-place kernel can mix them, and a
// second exchange restores the canonical ordering. Requires n >= 2 log2 K.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "diagonal/cost_diagonal.hpp"
#include "dist/communicator.hpp"
#include "fur/simulator.hpp"
#include "statevector/state.hpp"
#include "terms/term.hpp"

namespace qokit {

/// Construction-time options for DistributedFurSimulator. The rank count
/// names the topology; the alltoall transport is always the in-place
/// pairwise exchange (Communicator::alltoall).
struct DistConfig {
  int ranks = 2;  ///< virtual rank count K: a power of two <= kMaxRanks
  /// Tiling of the fused layer execution on the rank-local slices (phase
  /// fused into the first local mixer sweep, tiled butterflies between
  /// the alltoall reorders). Any value gives the same bits.
  pipeline::Geometry geometry = pipeline::Geometry::defaults();
  /// Amplitude scalar width for the sharded state. F32 halves both the
  /// per-rank slice memory and every alltoall's exchanged bytes; the
  /// diagonal and the expectation stay double.
  Precision prec = Precision::F64;
};

/// Algorithm 4 on K virtual ranks. Drop-in replacement for
/// FurQaoaSimulator (same base interface; at f64 its states equal the
/// single-node ones byte for byte); X mixer only, as in the paper's
/// distributed implementation.
class DistributedFurSimulator final : public QaoaFastSimulatorBase {
 public:
  /// Precomputes the cost diagonal slice-by-slice across the ranks, each
  /// with precompute_costs (bit-identical to CostDiagonal::precompute).
  /// Throws std::invalid_argument if cfg.ranks is not a power of two or
  /// exceeds kMaxRanks, if n exceeds kMaxQubits, or if 2 * log2(ranks) > n
  /// (a rank must own at least as many local qubits as there are global
  /// ones for the reordering to fit). Every check runs before a thread
  /// starts or the diagonal allocates.
  explicit DistributedFurSimulator(const TermList& terms, DistConfig cfg = {});

  int num_qubits() const override { return diag_.num_qubits(); }
  Precision precision() const override { return cfg_.prec; }
  void fill_initial_state(StateVector& state) const override;
  StateVector simulate_qaoa_from(StateVector state,
                                 std::span<const double> gammas,
                                 std::span<const double> betas) const override;
  using QaoaFastSimulatorBase::get_expectation;  // keep the costs overloads
  using QaoaFastSimulatorBase::get_overlap;
  /// The ranks' slices are one buffer, so <C> is the single-node
  /// reduction over it: the same bits as FurQaoaSimulator's at any K.
  double get_expectation(const StateVector& result) const override;
  double get_overlap(const StateVector& result,
                     int restrict_weight = -1) const override;
  const CostDiagonal& get_cost_diagonal() const override { return diag_; }

  /// K > 1 rank threads are the parallelism here and count as filling
  /// the machine, so batch engines never stack a schedule team on top of
  /// them; one rank runs its layer serially (1 unit).
  std::int64_t layer_units() const override {
    return cfg_.ranks > 1 ? std::numeric_limits<std::int64_t>::max() : 1;
  }

  const DistConfig& config() const { return cfg_; }

  /// The fused plan each rank runs on its local slice (built once, for
  /// the local qubit count).
  const pipeline::LayerPlan& layer_plan() const { return local_plan_; }

 private:
  DistConfig cfg_;
  int log2_ranks_;
  VirtualRankWorld world_;
  CostDiagonal diag_;
  pipeline::LayerPlan local_plan_;
  /// Butterfly-only plan for the post-alltoall mix of the swapped-in
  /// global qubits (local positions [nl - g, nl)); built once alongside
  /// local_plan_ so the tiling rules have one home (LayerPlan).
  pipeline::LayerPlan global_sweep_plan_;
};

}  // namespace qokit
