// Cache-blocked fused layer planning (the tiled multi-qubit pass pipeline).
//
// Algorithm 3 makes each QAOA layer one elementwise phase multiply plus one
// X-mixer transform, but executed naively that is n + 1 full sweeps of the
// 16·2^n-byte state per layer (one for the phase, one butterfly pass per
// qubit), so at n >= 24 the layer loop is DRAM traffic, not FLOPs. Lin et
// al. ("Towards Optimizations of Quantum Circuit Simulation for Solving
// Max-Cut Problems with QAOA", 2023) identify the fix: fuse the diagonal
// phase into the first butterfly sweep and group butterflies into
// cache-resident tiles so one read/write of the state advances many qubits.
//
// A LayerPlan is the static schedule of that execution, built once per
// simulator (and therefore once per session/batch — every schedule reuses
// it) from the qubit count, mixer choice, and tiling geometry:
//
//  - One leading *tile pass*: contiguous 2^t-amplitude tiles; each tile is
//    phase-multiplied and then swept by every butterfly with stride inside
//    the tile (qubits [0, min(t, n))) while it sits in cache.
//  - *Strided group passes* for the high qubits: g qubits [q0, q0 + g) are
//    advanced together by gathering 2^g rows of one chunk column into
//    cache and running all g butterflies on that working set.
//
// Full-array sweeps per layer drop from n + 1 to 1 + ceil((n - t)/g); the
// per-amplitude arithmetic is untouched (fusion only reorders the memory
// traversal), so the pipeline is bit-identical to the unfused loop, which
// lives on as the test oracle in tests/support/unfused_oracle.hpp (see
// layer_exec.hpp for the determinism argument).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fur/mixers.hpp"
#include "pipeline/geometry.hpp"

namespace qokit::pipeline {

/// One fused full-array sweep: an optional leading diagonal phase
/// multiply, then RX butterflies over qubits [q_begin, q_end) in ascending
/// order, both applied unit-by-unit.
struct LayerPass {
  bool strided = false;  ///< false: contiguous tiles; true: row groups
  int q_begin = 0;       ///< first butterfly qubit
  int q_end = 0;         ///< one past the last butterfly qubit
  /// e^{-i gamma c_x} from the cost diagonal (double or u16) before the
  /// unit's butterflies.
  bool phase = false;
  /// log2 of the unit width in amplitudes: the tile size for contiguous
  /// passes, the per-row chunk length for strided ones (<= q_begin so a
  /// chunk never crosses a row boundary).
  int width_log2 = 0;
};

/// The fused execution schedule for one QAOA layer over a 2^n-amplitude
/// array (the full state, or one rank's slice in the distributed
/// simulator). Only the xy mixers get an inactive plan: it carries a
/// human-readable fallback reason and the caller runs the unfused loop.
class LayerPlan {
 public:
  LayerPlan() = default;  ///< inactive; reason "no plan built"

  /// Plan one layer for an n-qubit array under `mixer`. X-mixer layers
  /// always plan fused passes; the xy mixers are ordered two-qubit
  /// products and return an inactive plan naming that reason. The
  /// geometry is clamped to valid ranges (tile and chunk never below 4
  /// amplitudes, chunk never above the pass's lowest qubit) so any
  /// Geometry value yields a runnable plan.
  static LayerPlan build(int num_qubits, MixerType mixer,
                         const Geometry& geometry);

  /// Plan a butterfly-only RX sweep over qubits [q_begin, q_end) of an
  /// n-qubit array: a contiguous tile pass for the qubits whose stride
  /// fits a tile, then strided groups — the same clamp and alignment
  /// rules as build(), kept in one place. The distributed
  /// simulator builds this once for the post-alltoall global-qubit mix.
  /// Always active.
  static LayerPlan build_rx_sweep(int num_qubits, int q_begin, int q_end,
                                  const Geometry& geometry);

  bool active() const noexcept { return active_; }
  /// Why the plan is inactive (empty when active) — the pinned diagnostic
  /// for fallback paths.
  const std::string& fallback_reason() const noexcept { return reason_; }

  std::span<const LayerPass> passes() const noexcept { return passes_; }
  int num_qubits() const noexcept { return n_; }

  /// Full-array sweeps one layer performs — the pipeline's figure of
  /// merit. The unfused loop costs n + 1 (n + 2 counting the cost read);
  /// a plan targets 1 + ceil((n - t)/g).
  int full_sweeps() const noexcept {
    return static_cast<int>(passes_.size());
  }

 private:
  bool active_ = false;
  int n_ = 0;
  std::string reason_ = "no plan built";
  std::vector<LayerPass> passes_;
};

}  // namespace qokit::pipeline
