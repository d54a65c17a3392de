// Pipeline tiling geometry: THE single site of the cache-blocking knobs.
//
// Every number that shapes a LayerPlan's memory traversal — the contiguous
// tile size, the strided group width, the per-row chunk length — lives in
// this one struct, and defaults() below is the only place in src/pipeline/
// where those values may appear as literals (enforced by the qokit_lint
// "pipeline-geometry" rule). Every simulator make_simulator builds runs
// defaults(); tests pass other values through FurConfig / DistConfig to
// reach tile-boundary shapes on small states.
//
// Geometry changes only reorder the state traversal — never the
// per-amplitude arithmetic — so ANY Geometry value produces bit-identical
// results to any other (LayerPlan::build clamps out-of-range values to a
// runnable plan; pinned by tests/test_pipeline.cpp).
#pragma once

namespace qokit::pipeline {

/// The three cache-blocking knobs of a fused layer plan.
struct Geometry {
  /// log2 of the contiguous tile in amplitudes. The default 2^16
  /// amplitudes = 1 MiB of state sits in any recent L2 alongside the
  /// 512 KiB cost slice the fused phase multiply streams.
  int tile_log2;
  /// High qubits advanced per strided pass. With the default chunk this
  /// bounds a pass working set to 2^6 rows x 16 KiB = 1 MiB.
  int group_qubits;
  /// log2 of the contiguous chunk (in amplitudes) gathered per row of a
  /// strided pass: 2^10 amplitudes = 16 KiB, long enough for the
  /// streaming prefetchers, small enough that 2^g rows stay
  /// cache-resident.
  int chunk_log2;

  /// The fixed geometry every production simulator runs (DESIGN.md
  /// "Geometry: fixed" has the measurements behind it).
  static constexpr Geometry defaults() noexcept { return {16, 6, 10}; }

  friend constexpr bool operator==(const Geometry&, const Geometry&) =
      default;
};

}  // namespace qokit::pipeline
