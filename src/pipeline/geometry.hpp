// Pipeline tiling geometry: THE single site of the cache-blocking knobs.
//
// Every number that shapes a LayerPlan's memory traversal — the contiguous
// tile size, the strided group width, the per-row chunk length — lives in
// this one struct, and defaults() and for_caches() below are the only
// place in src/pipeline/ where those values may appear as literals
// (enforced by the qokit_lint "pipeline-geometry" rule). make_simulator
// swaps in the whole machine-derived Geometry at once, never individual
// scattered constants.
//
// Geometry changes only reorder the state traversal — never the
// per-amplitude arithmetic — so ANY Geometry value produces bit-identical
// results to any other (LayerPlan::build clamps out-of-range values to a
// runnable plan; pinned by tests/test_pipeline.cpp and test_tune.cpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

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

  /// The static geometry: what a simulator built directly from a
  /// FurConfig / DistConfig runs, and what for_caches derives on the
  /// 32 KiB-L1d / 2 MiB-L2 machine class these numbers were hand-tuned
  /// for (pinned by test).
  static constexpr Geometry defaults() noexcept { return {16, 6, 10}; }

  /// Closed-form geometry from the per-core cache sizes. Pure — same
  /// caches, same geometry:
  ///   tile:  3/4 of L2 over the 24 B/amp fused sweep (amp + streamed cost)
  ///   chunk: half of L1d over 16 B/amp
  ///   group: rows such that 2^g chunks fill half of L2
  /// make_simulator applies it to the probed machine (MachineTopology).
  static constexpr Geometry for_caches(std::uint64_t l1d_bytes,
                                       std::uint64_t l2_bytes) noexcept {
    const auto floor_log2 = [](std::uint64_t v) {
      return static_cast<int>(std::bit_width(std::max<std::uint64_t>(v, 1))) -
             1;
    };
    Geometry g{};
    // Tile: the fused phase+mixer sweep streams 16 B of amplitude plus
    // 8 B of cost diagonal per amplitude; budget 3/4 of L2 so the tile
    // survives the butterfly re-walks.
    g.tile_log2 = std::clamp(floor_log2(l2_bytes * 3 / 4 / 24), 12, 20);
    // Chunk: one row's contiguous gather; half of L1d at 16 B/amp keeps
    // the chunk resident across the group's g butterfly passes.
    g.chunk_log2 = std::clamp(floor_log2(l1d_bytes / 2 / 16), 8, 13);
    // Group: 2^g rows x one chunk each should fill half of L2.
    const std::uint64_t chunk_bytes = std::uint64_t{16} << g.chunk_log2;
    g.group_qubits = std::clamp(floor_log2(l2_bytes / 2 / chunk_bytes), 2, 8);
    return g;
  }

  friend constexpr bool operator==(const Geometry&, const Geometry&) =
      default;
};

}  // namespace qokit::pipeline
