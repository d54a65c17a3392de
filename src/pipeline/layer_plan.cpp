#include "pipeline/layer_plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace qokit::pipeline {

bool pipeline_disabled_by_env() {
  const char* v = std::getenv("QOKIT_PIPELINE");
  if (!v) return false;
  // "false" included because YAML CI configs coerce a bare `off` to the
  // boolean false before it reaches the environment.
  return std::strcmp(v, "off") == 0 || std::strcmp(v, "OFF") == 0 ||
         std::strcmp(v, "0") == 0 || std::strcmp(v, "false") == 0;
}

namespace {

// The clamp rules the bit-identity argument in layer_exec.cpp relies on,
// in exactly one place: tiles >= 4 amplitudes keep every elementwise
// sub-range 4-aligned (the AVX2 phase kernel's group width); chunks are
// >= 4 when the pass's lowest qubit allows it (>= 2 always, which keeps
// butterfly pair ranges even-aligned) and never exceed that qubit's
// stride, so a chunk cannot cross a row boundary.
int clamped_tile(const PipelineOptions& opts) {
  return std::clamp(opts.geometry.tile_log2, 2, 30);
}

LayerPass make_tile_pass(int q_begin, int q_end, PassButterfly butterfly,
                         PassPhase pre, const PipelineOptions& opts) {
  return LayerPass{.strided = false,
                   .q_begin = q_begin,
                   .q_end = q_end,
                   .butterfly = butterfly,
                   .pre = pre,
                   .post = PassPhase::None,
                   .width_log2 = clamped_tile(opts)};
}

LayerPass make_strided_pass(int q_begin, int q_end, PassButterfly butterfly,
                            const PipelineOptions& opts) {
  return LayerPass{
      .strided = true,
      .q_begin = q_begin,
      .q_end = q_end,
      .butterfly = butterfly,
      .pre = PassPhase::None,
      .post = PassPhase::None,
      .width_log2 = std::clamp(opts.geometry.chunk_log2,
                               std::min(2, q_begin), q_begin)};
}

}  // namespace

LayerPlan LayerPlan::build(int num_qubits, MixerType mixer,
                           MixerBackend backend,
                           const PipelineOptions& opts) {
  LayerPlan plan;
  plan.n_ = num_qubits;
  plan.opts_ = opts;
  if (mixer != MixerType::X) {
    // Checked first so the diagnostic names the structural reason even
    // when the pipeline is also disabled by options or environment.
    plan.reason_ = std::string("mixer=") +
                   (mixer == MixerType::XYRing ? "xyring" : "xycomplete") +
                   ": ordered two-qubit XY rotations cannot be tile-fused; "
                   "using the unfused path";
    return plan;
  }
  if (opts.mode == PipelineMode::Off) {
    plan.reason_ = "pipeline=off: unfused oracle path selected by options";
    return plan;
  }
  if (opts.mode == PipelineMode::Auto && pipeline_disabled_by_env()) {
    plan.reason_ = "QOKIT_PIPELINE=off: unfused oracle path selected by "
                   "environment";
    return plan;
  }

  const int g = std::max(1, opts.geometry.group_qubits);
  const int m = std::min(num_qubits, clamped_tile(opts));

  const auto add_tile = [&](PassButterfly butterfly, PassPhase pre) {
    plan.passes_.push_back(make_tile_pass(0, m, butterfly, pre, opts));
  };
  const auto add_groups = [&](PassButterfly butterfly) {
    for (int q0 = m; q0 < num_qubits; q0 += g)
      plan.passes_.push_back(make_strided_pass(
          q0, std::min(q0 + g, num_qubits), butterfly, opts));
  };

  if (backend == MixerBackend::Fused) {
    // e^{-i gamma C} fused into the first RX sweep, then strided groups.
    add_tile(PassButterfly::Rx, PassPhase::Diagonal);
    add_groups(PassButterfly::Rx);
  } else {
    // Fwht route: H^n · popcount diagonal · H^n, with the cost phase fused
    // into the first Hadamard sweep and the popcount diagonal fused into
    // the last pass of the forward transform (every unit of that pass has
    // completed all of its Hadamards by the time the diagonal runs).
    add_tile(PassButterfly::Hadamard, PassPhase::Diagonal);
    add_groups(PassButterfly::Hadamard);
    plan.passes_.back().post = PassPhase::Popcount;
    add_tile(PassButterfly::Hadamard, PassPhase::None);
    add_groups(PassButterfly::Hadamard);
  }
  plan.active_ = true;
  plan.reason_.clear();
  return plan;
}

LayerPlan LayerPlan::build_rx_sweep(int num_qubits, int q_begin, int q_end,
                                    const PipelineOptions& opts) {
  LayerPlan plan;
  plan.n_ = num_qubits;
  plan.opts_ = opts;
  const int g = std::max(1, opts.geometry.group_qubits);
  int q0 = q_begin;
  const int tile_end = std::min(q_end, clamped_tile(opts));
  if (q0 < tile_end) {
    // Qubits with in-tile stride go through a contiguous tile pass; only
    // the higher qubits need row gathering. A strided pass from qubit 1
    // would gather 2-amplitude chunks, cutting the higher qubits' runs
    // below the f32 vector width where the unfused sweep keeps them whole.
    plan.passes_.push_back(make_tile_pass(q0, tile_end, PassButterfly::Rx,
                                          PassPhase::None, opts));
    q0 = tile_end;
  }
  for (; q0 < q_end; q0 += g)
    plan.passes_.push_back(make_strided_pass(q0, std::min(q0 + g, q_end),
                                             PassButterfly::Rx, opts));
  plan.active_ = true;
  plan.reason_.clear();
  return plan;
}

}  // namespace qokit::pipeline
