// Executes a LayerPlan over a raw amplitude array.
//
// The executor is a second driver for the SIMD kernel families (a peer of
// src/simd/dispatch.cpp): it walks the plan's passes and hands the active
// family's block kernels cache-sized sub-ranges in tiled order instead of
// the flat kSimdBlock order. Because the same family kernels perform the
// same per-amplitude arithmetic in the same per-amplitude order — fusion
// only reorders *which amplitudes are visited when*, and no pass carries a
// cross-amplitude reduction — the result is bit-identical to the unfused
// apply_phase + apply_mixer_x loop at every dispatch level, Exec policy,
// and thread count (see DESIGN.md "The layer pipeline" for the alignment
// argument that makes this exact, not approximate).
#pragma once

#include <cstdint>

#include "pipeline/layer_plan.hpp"
#include "statevector/state.hpp"

namespace qokit::pipeline {

/// How run_layer applies the diagonal phase e^{-i gamma C}. Exactly one
/// source must be set: `costs` for the double-precision diagonal (sliced
/// at the same offsets as the amplitudes), or `codes` + `table` for the
/// uint16 codec (table = the per-gamma 65536-entry factor lookup).
/// Templated on the amplitude scalar: costs and codes stay double/u16 at
/// both precisions (the f32 path narrows only the per-amplitude factors,
/// so the table element type follows the amplitudes).
template <class T>
struct PhaseCtxT {
  const double* costs = nullptr;
  const std::uint16_t* codes = nullptr;
  const std::complex<T>* table = nullptr;
};
using PhaseCtx = PhaseCtxT<double>;
using PhaseCtxF32 = PhaseCtxT<float>;

/// Run one fused QAOA layer (phase by `gamma`, X mixer by `beta`) over
/// `amp[0, n_amps)`. n_amps must equal 2^plan.num_qubits(); the plan must
/// be active. `amp` may be a full state or one rank's slice (the
/// distributed simulator passes its local slice with a plan built for the
/// local qubit count). Deterministic for any Exec/thread count — at both
/// precisions: the f32 overload drives the f32 kernel family over the
/// identical pass/tile decomposition, so the bit-identity argument above
/// carries over unchanged (same amplitudes, same groups of 4-or-8, same
/// per-amplitude arithmetic).
void run_layer(const LayerPlan& plan, cdouble* amp, std::uint64_t n_amps,
               const PhaseCtx& phase, double gamma, double beta, Exec exec);
void run_layer(const LayerPlan& plan, cfloat* amp, std::uint64_t n_amps,
               const PhaseCtxF32& phase, double gamma, double beta,
               Exec exec);

/// Cost source for the fused expectation reduction (run_layer_expectation).
/// Exactly one of `costs` (double diagonal) or `codes` (+ offset/scale,
/// the u16 codec) must be set — mirroring the expectation_slice /
/// expectation_u16 dispatch pair.
struct ExpectationCtx {
  const double* costs = nullptr;
  const std::uint16_t* codes = nullptr;
  double offset = 0.0;
  double scale = 0.0;
};

/// True when a plan's FINAL pass can carry the expectation reduction:
/// the plan is active and non-empty, the array holds at least one
/// kReduceBlock, and the final pass's unit width is a whole number of
/// kReduceBlocks (so the fused partial blocks land at exactly the
/// absolute offsets the two-pass expectation_slice uses). With the
/// default Geometry every X-mixer plan for n >= 10 qualifies.
bool can_fuse_expectation(const LayerPlan& plan, std::uint64_t n_amps);

/// run_layer, plus: after each unit of the FINAL pass finishes its
/// butterflies, reduce that unit's amplitudes against `reduce` in
/// kReduceBlock sub-blocks, writing partials[abs_index / kReduceBlock].
/// Partial slots are disjoint across units (units partition the array),
/// so the fill is race-free under any Exec; the caller sums
/// partials[0, n_amps / kReduceBlock) sequentially in index order, which
/// reproduces parallel_reduce_blocks' combination order — making
/// fused-expectation results bit-identical to running run_layer followed
/// by expectation_slice / expectation_u16. Requires
/// can_fuse_expectation(plan, n_amps).
/// `partials` is double at both precisions (reductions never accumulate
/// at float width — see DESIGN.md "Mixed precision").
void run_layer_expectation(const LayerPlan& plan, cdouble* amp,
                           std::uint64_t n_amps, const PhaseCtx& phase,
                           double gamma, double beta, Exec exec,
                           const ExpectationCtx& reduce, double* partials);
void run_layer_expectation(const LayerPlan& plan, cfloat* amp,
                           std::uint64_t n_amps, const PhaseCtxF32& phase,
                           double gamma, double beta, Exec exec,
                           const ExpectationCtx& reduce, double* partials);

/// Execute a butterfly-only plan (LayerPlan::build_rx_sweep) over
/// `amp[0, n_amps)` with c = cos(beta), s = sin(beta). The distributed
/// simulator runs its prebuilt sweep plan on the alltoall-reordered slice
/// to mix the former-global qubits with the same tiling as the local
/// ones. Plans with phase work belong to run_layer; sweep passes carry
/// none by construction.
void run_sweep(const LayerPlan& plan, cdouble* amp, std::uint64_t n_amps,
               double c, double s, Exec exec);
void run_sweep(const LayerPlan& plan, cfloat* amp, std::uint64_t n_amps,
               double c, double s, Exec exec);

}  // namespace qokit::pipeline
