#include "pipeline/layer_plan.hpp"

#include <algorithm>

namespace qokit::pipeline {

namespace {

// The clamp rules the bit-identity argument in layer_exec.cpp relies on,
// in exactly one place: tiles >= 4 amplitudes keep every elementwise
// sub-range 4-aligned (the AVX2 phase kernel's group width); chunks are
// >= 4 when the pass's lowest qubit allows it (>= 2 always, which keeps
// butterfly pair ranges even-aligned) and never exceed that qubit's
// stride, so a chunk cannot cross a row boundary.
int clamped_tile(const Geometry& geometry) {
  return std::clamp(geometry.tile_log2, 2, 30);
}

LayerPass make_tile_pass(int q_begin, int q_end, bool phase,
                         const Geometry& geometry) {
  return LayerPass{.strided = false,
                   .q_begin = q_begin,
                   .q_end = q_end,
                   .phase = phase,
                   .width_log2 = clamped_tile(geometry)};
}

/// Strided groups for qubits [q_begin, q_end), g at a time.
void add_strided_passes(std::vector<LayerPass>& passes, int q_begin,
                        int q_end, const Geometry& geometry) {
  const int g = std::max(1, geometry.group_qubits);
  for (int q0 = q_begin; q0 < q_end; q0 += g)
    passes.push_back(LayerPass{
        .strided = true,
        .q_begin = q0,
        .q_end = std::min(q0 + g, q_end),
        .phase = false,
        .width_log2 =
            std::clamp(geometry.chunk_log2, std::min(2, q0), q0)});
}

}  // namespace

LayerPlan LayerPlan::build(int num_qubits, MixerType mixer,
                           const Geometry& geometry) {
  LayerPlan plan;
  plan.n_ = num_qubits;
  if (mixer != MixerType::X) {
    plan.reason_ = std::string("mixer=") +
                   (mixer == MixerType::XYRing ? "xyring" : "xycomplete") +
                   ": ordered two-qubit XY rotations cannot be tile-fused; "
                   "using the unfused path";
    return plan;
  }

  // e^{-i gamma C} fused into the first RX sweep, then strided groups.
  const int m = std::min(num_qubits, clamped_tile(geometry));
  plan.passes_.push_back(make_tile_pass(0, m, true, geometry));
  add_strided_passes(plan.passes_, m, num_qubits, geometry);
  plan.active_ = true;
  plan.reason_.clear();
  return plan;
}

LayerPlan LayerPlan::build_rx_sweep(int num_qubits, int q_begin, int q_end,
                                    const Geometry& geometry) {
  LayerPlan plan;
  plan.n_ = num_qubits;
  int q0 = q_begin;
  const int tile_end = std::min(q_end, clamped_tile(geometry));
  if (q0 < tile_end) {
    // Qubits with in-tile stride go through a contiguous tile pass; only
    // the higher qubits need row gathering. A strided pass from qubit 1
    // would gather 2-amplitude chunks, cutting the higher qubits' runs
    // below the f32 vector width where the unfused sweep keeps them whole.
    plan.passes_.push_back(make_tile_pass(q0, tile_end, false, geometry));
    q0 = tile_end;
  }
  add_strided_passes(plan.passes_, q0, q_end, geometry);
  plan.active_ = true;
  plan.reason_.clear();
  return plan;
}

}  // namespace qokit::pipeline
