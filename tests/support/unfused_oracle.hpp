// The unfused layer loops: the correctness oracle for the fused layer
// pipeline (src/pipeline/).
//
// Production runs every X-mixer layer as a few fused, cache-blocked passes.
// These helpers run the same layers the way the paper writes them: per
// layer one full-state phase multiply, then one mixer transform, qubit by
// qubit (n + 1 sweeps of the state instead of the plan's few). They call
// only public production kernels, which apply the same per-amplitude
// arithmetic as the fused executor, so a fused evolution must equal the
// oracle's byte for byte:
//
//  - Algorithm 3: apply_phase on the f64 or u16 diagonal, then apply_mixer
//    with the simulator's Exec policy and mixer;
//  - Algorithm 4: simd::apply_phase_slice, then dist_mixer_x, over a
//    VirtualRankWorld with the simulator's ranks.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "common/bitops.hpp"
#include "diagonal/ops.hpp"
#include "dist/dist_fur.hpp"
#include "fur/mixers.hpp"
#include "fur/simulator.hpp"
#include "simd/kernels.hpp"

namespace qokit::testing {

/// The mixer step of Algorithm 4, unfused: e^{-i beta sum X} over a
/// sharded state. `local` is this rank's slice of `local_size` =
/// 2^(num_qubits - log2 K) amplitudes, of either precision. One simd::rx
/// sweep per local qubit, then alltoall -> one sweep per former-global
/// qubit -> alltoall. Collective: every rank of `comm` calls it with the
/// same num_qubits and beta.
template <class C>
void dist_mixer_x(Communicator& comm, C* local, std::uint64_t local_size,
                  int num_qubits, double beta) {
  const int g = std::countr_zero(static_cast<unsigned>(comm.size()));
  const int nl = num_qubits - g;  // local qubits per rank
  if (nl < g)
    throw std::invalid_argument(
        "dist_mixer_x: need num_qubits >= 2*log2(ranks)");
  if (local_size != dim_of(nl))
    throw std::invalid_argument("dist_mixer_x: slice size mismatch");
  const double c = std::cos(beta);
  const double s = std::sin(beta);
  // Exec::Serial: the K rank threads are the parallelism.
  for (int q = 0; q < nl; ++q)
    simd::rx(local, local_size, q, c, s, Exec::Serial);
  if (g == 0) return;
  // Alltoall with block 2^(nl - g) swaps qubit ranges [nl-g, nl) and
  // [nl, n): the former global qubits land on the top g local positions.
  const std::uint64_t block = local_size >> g;
  comm.alltoall(local, block);
  for (int q = nl - g; q < nl; ++q)
    simd::rx(local, local_size, q, c, s, Exec::Serial);
  // The exchange is an involution; undo it to restore canonical order.
  comm.alltoall(local, block);
}

/// Algorithm 3, unfused, with `sim`'s configuration. Evolves `state` at
/// its own precision.
inline StateVector unfused_evolve(const FurQaoaSimulator& sim,
                                  StateVector state,
                                  std::span<const double> gammas,
                                  std::span<const double> betas) {
  const FurConfig& cfg = sim.config();
  for (std::size_t l = 0; l < gammas.size(); ++l) {
    if (cfg.use_u16)
      apply_phase(state, sim.diagonal_u16(), gammas[l], cfg.exec);
    else
      apply_phase(state, sim.get_cost_diagonal(), gammas[l], cfg.exec);
    apply_mixer(state, cfg.mixer, betas[l], cfg.exec);
  }
  return state;
}

/// Algorithm 4, unfused, with `sim`'s ranks: per layer each rank
/// multiplies its slice by the phase, then all ranks run the distributed
/// mixer (local qubits in place, global ones through the alltoall
/// reordering).
inline StateVector unfused_evolve(const DistributedFurSimulator& sim,
                                  StateVector state,
                                  std::span<const double> gammas,
                                  std::span<const double> betas) {
  const DistConfig& cfg = sim.config();
  const VirtualRankWorld world(cfg.ranks);
  const std::uint64_t local = state.size() / static_cast<unsigned>(cfg.ranks);
  const double* costs = sim.get_cost_diagonal().data();
  const int n = sim.num_qubits();
  const auto run = [&](auto* data) {
    world.run([&](Communicator& comm) {
      const std::uint64_t base = static_cast<std::uint64_t>(comm.rank()) *
                                 local;
      for (std::size_t l = 0; l < gammas.size(); ++l) {
        simd::apply_phase_slice(data + base, costs + base, local, gammas[l],
                                Exec::Serial);
        dist_mixer_x(comm, data + base, local, n, betas[l]);
      }
    });
  };
  if (state.precision() == Precision::F32)
    run(state.data_f32());
  else
    run(state.data());
  return state;
}

/// The oracle evolution of `sim`'s default initial state, for the fur and
/// dist simulators.
inline StateVector unfused_simulate(const QaoaFastSimulatorBase& sim,
                                    std::span<const double> gammas,
                                    std::span<const double> betas) {
  if (const auto* fur = dynamic_cast<const FurQaoaSimulator*>(&sim))
    return unfused_evolve(*fur, fur->initial_state(), gammas, betas);
  if (const auto* dist = dynamic_cast<const DistributedFurSimulator*>(&sim))
    return unfused_evolve(*dist, dist->initial_state(), gammas, betas);
  throw std::invalid_argument(
      "unfused_simulate: only the fur and dist simulators have a layer plan");
}

}  // namespace qokit::testing
