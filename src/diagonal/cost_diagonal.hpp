// Precomputed diagonal of the problem Hamiltonian C-hat (paper Sec. III-A).
//
// The 2^n cost vector stores f(x) for every basis state x. It is computed
// once per problem and reused for (1) every phase-operator application,
// which becomes a single elementwise multiply by e^{-i gamma c_x}, and
// (2) every objective evaluation, which becomes one inner product. This is
// the paper's central optimization: it removes the |T|-dependent per-layer
// gate cost that dominates gate-based simulators at high depth.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "common/aligned.hpp"
#include "common/parallel.hpp"
#include "terms/term.hpp"

namespace qokit {

/// out[i] = c_{begin + i} for every i: the precompute kernel (Sec. III-A),
/// shared by CostDiagonal::precompute and the dist ranks' slices. It visits
/// each term once per block of 16 consecutive indices and adds
/// w * (-1)^{popcount(x & mask)} into 16 accumulators, so each c_x is the
/// sum terms.evaluate(x) forms: +0.0, then every term in list order. Any
/// begin and length work (a block is computed whole, stored in part).
void precompute_costs(const TermList& terms, std::uint64_t begin,
                      std::span<double> out);

/// sum_t |w_t| over every term, constant ones included, summed in list
/// order: a bound on every |c_x| precompute_costs forms (each of its
/// partial sums is bounded by the matching partial sum here, rounding
/// included). Throws std::invalid_argument naming `who` when the bound is
/// not finite (a NaN or infinite weight, or magnitudes whose sum
/// overflows), so such terms are refused before any 2^n allocation.
double checked_cost_bound(const TermList& terms, const char* who);

/// The 2^n cost vector c_x = f(x).
class CostDiagonal {
 public:
  /// The values' storage: streamed front to back by every phase and
  /// reduction pass, so a mapped block asks for huge pages.
  using Values = aligned_vector<double, PageUse::Streamed>;

  CostDiagonal();

  /// Precompute from polynomial terms (Eq. 1): precompute_costs over the
  /// whole index range, in chunks spread over threads under
  /// Exec::Parallel. c_x equals terms.evaluate(x) bit for bit under
  /// either Exec. Throws std::invalid_argument past kMaxQubits or when
  /// checked_cost_bound refuses the terms, before allocating.
  static CostDiagonal precompute(const TermList& terms,
                                 Exec exec = Exec::Parallel);

  /// Precompute from an arbitrary callable f(x) (the Python-lambda input
  /// path of QOKit's high-level API). Throws std::invalid_argument past
  /// kMaxQubits, before allocating.
  static CostDiagonal from_function(int num_qubits,
                                    const std::function<double(std::uint64_t)>& f,
                                    Exec exec = Exec::Parallel);

  /// Wrap existing values (the `costs` constructor argument in Listing 1).
  static CostDiagonal from_values(int num_qubits, Values values);

  int num_qubits() const noexcept { return n_; }
  std::uint64_t size() const noexcept { return values_.size(); }
  double operator[](std::uint64_t x) const noexcept { return values_[x]; }
  const double* data() const noexcept { return values_.data(); }
  const Values& values() const noexcept { return values_; }

  /// Minimum cost (the optimal objective value f(x*)). Computed together
  /// with the maximum in one scan on first use and cached; the values are
  /// immutable after construction, so the cache can never go stale.
  double min_value() const;

  /// Maximum cost (cached alongside min_value()).
  double max_value() const;

  /// Minimum cost within the Hamming-weight-`weight` sector (the ground
  /// value the XY-mixer overlap is measured against). All n+1 sector minima
  /// are computed in one scan on the first call and cached. Throws
  /// std::invalid_argument when `weight` is outside [0, num_qubits()].
  double sector_min(int weight) const;

  /// Number of basis states attaining the minimum within `tol`.
  std::uint64_t ground_state_count(double tol = 1e-9) const;

  /// Memory held by the vector in bytes (2^n * 8 for double storage).
  std::uint64_t memory_bytes() const noexcept { return size() * sizeof(double); }

 private:
  struct Cache;
  Cache& cache() const;
  Cache& ensure_extrema() const;

  int n_ = 0;
  Values values_;
  // Lazily filled derived values (extrema, sector minima). Shared between
  // copies — copies hold identical `values_`, so sharing is safe — and
  // guarded by std::once_flag, so concurrent readers race benignly.
  mutable std::shared_ptr<Cache> cache_;
};

/// Refuses phase angles that overflow: throws std::invalid_argument naming
/// the first layer l at which |gammas[l]| * largest is not finite (a
/// non-finite gamma included). `largest` bounds every |c_x|; `what` names
/// it in the message. The server passes checked_cost_bound, so it refuses
/// from the terms alone, before a cache checkout.
void check_phase_angles(double largest, const char* what,
                        std::span<const double> gammas);

/// check_phase_angles with largest = max_x |c_x|. Every simulator runs it
/// before its first layer, so such a schedule never evolves into a NaN
/// state. max_x |c_x| comes from the cached extrema: the diagonal is
/// scanned once.
void check_phase_angles(const CostDiagonal& diag,
                        std::span<const double> gammas);

}  // namespace qokit
