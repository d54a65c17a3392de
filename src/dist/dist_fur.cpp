#include "dist/dist_fur.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "diagonal/ops.hpp"
#include "obs/obs.hpp"
#include "pipeline/layer_exec.hpp"

namespace qokit {

namespace dist {

double expectation_slice(Communicator& comm, const cdouble* local,
                         const double* costs, std::uint64_t count) {
  return comm.allreduce_sum(
      qokit::expectation_slice(local, costs, count, Exec::Serial));
}

double expectation_slice(Communicator& comm, const cfloat* local,
                         const double* costs, std::uint64_t count) {
  return comm.allreduce_sum(
      qokit::expectation_slice(local, costs, count, Exec::Serial));
}

}  // namespace dist

DistributedFurSimulator::DistributedFurSimulator(const TermList& terms,
                                                 DistConfig cfg)
    : cfg_(cfg),
      log2_ranks_(std::countr_zero(static_cast<unsigned>(
          cfg.ranks > 0 ? cfg.ranks : 1))),
      world_(cfg.ranks) {
  const int n = terms.num_qubits();
  check_qubit_limit(n, "DistributedFurSimulator");
  if (2 * log2_ranks_ > n)
    throw std::invalid_argument(
        "DistributedFurSimulator: " + std::to_string(cfg.ranks) +
        " ranks need at least " + std::to_string(2 * log2_ranks_) +
        " qubits (2*log2 K), got " + std::to_string(n));
  // Distributed diagonal precompute: each rank fills its own slice with
  // the single-node kernel (precompute_costs), as the paper runs it once
  // per problem on every GPU/rank. An element depends on its index alone,
  // so the result is bit-identical to CostDiagonal::precompute.
  obs::Span span("precompute");
  span.attr("n", n);
  span.attr("ranks", cfg_.ranks);
  CostDiagonal::Values values(dim_of(n));  // unwritten until the ranks run
  double* out = values.data();
  const std::uint64_t local = values.size() >> log2_ranks_;
  world_.run([&](Communicator& comm) {
    const std::uint64_t base = static_cast<std::uint64_t>(comm.rank()) * local;
    precompute_costs(terms, base, {out + base, local});
  });
  diag_ = CostDiagonal::from_values(n, std::move(values));
  // Each rank's per-layer work is phase + X mixer on a 2^(n - g) slice:
  // plan it once for the local qubit count, plus a butterfly-only sweep
  // plan for the post-alltoall mix of the swapped-in global qubits.
  const int nl = n - log2_ranks_;
  local_plan_ = pipeline::LayerPlan::build(nl, MixerType::X, cfg_.geometry);
  global_sweep_plan_ = pipeline::LayerPlan::build_rx_sweep(
      nl, nl - log2_ranks_, nl, cfg_.geometry);
}

void DistributedFurSimulator::fill_initial_state(StateVector& state) const {
  // The rank slices are contiguous pieces of one buffer, so |+> is one
  // parallel fill of the whole state, like the single-node simulator's.
  state.assign_plus(num_qubits(), cfg_.prec, Exec::Parallel);
}

namespace {

/// One rank team's full schedule over the sharded amplitude array, at
/// either precision: Algorithm 4 with the rank-local phase + low-qubit
/// mixing run as tiled passes over the slice, and, after the alltoall
/// reorder, the swapped-in global qubits mixed by the same strided
/// tiling. Exec::Serial throughout (the K rank threads are the
/// parallelism).
template <class T>
void dist_schedule(const VirtualRankWorld& world,
                   const pipeline::LayerPlan& local_plan,
                   const pipeline::LayerPlan& global_sweep_plan,
                   std::complex<T>* data, std::uint64_t local,
                   const double* costs, int g,
                   std::span<const double> gammas,
                   std::span<const double> betas) {
  world.run([&](Communicator& comm) {
    const std::uint64_t base = static_cast<std::uint64_t>(comm.rank()) * local;
    std::complex<T>* slice = data + base;
    const pipeline::PhaseCtxT<T> ctx{.costs = costs + base};
    const std::uint64_t block = local >> g;
    for (std::size_t l = 0; l < gammas.size(); ++l) {
      pipeline::run_layer(local_plan, slice, local, ctx, gammas[l], betas[l],
                          Exec::Serial);
      if (g > 0) {
        comm.alltoall(slice, block);
        pipeline::run_sweep(global_sweep_plan, slice, local,
                            std::cos(betas[l]), std::sin(betas[l]),
                            Exec::Serial);
        comm.alltoall(slice, block);
      }
    }
  });
}

}  // namespace

StateVector DistributedFurSimulator::simulate_qaoa_from(
    StateVector state, std::span<const double> gammas,
    std::span<const double> betas) const {
  if (gammas.size() != betas.size())
    throw std::invalid_argument("simulate_qaoa: gammas/betas length mismatch");
  if (state.num_qubits() != num_qubits())
    throw std::invalid_argument("simulate_qaoa: state size mismatch");
  obs::Span span("simulate");
  span.attr("n", num_qubits());
  span.attr("p", static_cast<std::int64_t>(gammas.size()));
  span.attr("ranks", cfg_.ranks);
  const std::uint64_t local = state.size() >> log2_ranks_;
  const double* costs = diag_.data();
  const int g = log2_ranks_;
  if (state.precision() == Precision::F32)
    dist_schedule(world_, local_plan_, global_sweep_plan_, state.data_f32(),
                  local, costs, g, gammas, betas);
  else
    dist_schedule(world_, local_plan_, global_sweep_plan_, state.data(),
                  local, costs, g, gammas, betas);
  // The slices live in one contiguous buffer and the exchange is undone
  // every layer, so the "gather" is free.
  return state;
}

double DistributedFurSimulator::simulate_and_expectation(
    std::span<const double> gammas, std::span<const double> betas) const {
  const StateVector state = simulate_qaoa(gammas, betas);
  // Score the evolved slices in place: each rank reduces its own slice and
  // the total comes back through one allreduce -- the state is never
  // traversed as a whole.
  const std::uint64_t local = state.size() >> log2_ranks_;
  const double* costs = diag_.data();
  double result = 0.0;
  if (state.precision() == Precision::F32) {
    const cfloat* data = state.data_f32();
    world_.run([&](Communicator& comm) {
      const std::uint64_t base =
          static_cast<std::uint64_t>(comm.rank()) * local;
      const double total =
          dist::expectation_slice(comm, data + base, costs + base, local);
      if (comm.rank() == 0) result = total;
    });
    return result;
  }
  const cdouble* data = state.data();
  world_.run([&](Communicator& comm) {
    const std::uint64_t base = static_cast<std::uint64_t>(comm.rank()) * local;
    const double total =
        dist::expectation_slice(comm, data + base, costs + base, local);
    if (comm.rank() == 0) result = total;
  });
  return result;
}

double DistributedFurSimulator::get_expectation(
    const StateVector& result) const {
  return expectation(result, diag_);
}

double DistributedFurSimulator::get_overlap(const StateVector& result,
                                            int restrict_weight) const {
  if (restrict_weight < 0) return overlap_ground(result, diag_);
  // Shared sector helper: identical semantics to FurQaoaSimulator by
  // construction (the distributed simulator itself only runs the X mixer).
  return overlap_ground_sector(result, diag_, restrict_weight);
}

}  // namespace qokit
