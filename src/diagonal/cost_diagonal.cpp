#include "diagonal/cost_diagonal.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "obs/obs.hpp"
#include "statevector/state.hpp"

namespace qokit {

/// Derived-value cache: filled lazily, at most once per field group.
/// std::once_flag is the one raw <mutex> primitive the project linter
/// permits outside common/sync.hpp: call_once carries its own complete
/// discipline (the callable runs exactly once, happens-before every
/// return), so there is no lock protocol left for the thread-safety
/// analysis to check.
struct CostDiagonal::Cache {
  std::once_flag extrema_once;
  double min = 0.0;
  double max = 0.0;
  std::once_flag sector_once;
  std::vector<double> sector_min;  // indexed by Hamming weight, size n+1
};

CostDiagonal::CostDiagonal() : cache_(std::make_shared<Cache>()) {}

CostDiagonal::Cache& CostDiagonal::cache() const {
  // Every constructed CostDiagonal owns a cache box; a moved-from object
  // loses it. Recreate on (single-threaded) reuse of such an object.
  if (!cache_) cache_ = std::make_shared<Cache>();
  return *cache_;
}

namespace {

/// Indices per term visit of precompute_costs.
constexpr std::uint64_t kLanes = 16;

/// Sign bits of a term's low four mask bits over the 16 lanes of a block:
/// kLowSign[m][j] has bit 63 set iff popcount(j & m) is odd.
constexpr auto kLowSign = [] {
  std::array<std::array<std::uint64_t, kLanes>, kLanes> t{};
  for (std::uint64_t m = 0; m < kLanes; ++m)
    for (std::uint64_t j = 0; j < kLanes; ++j)
      t[m][j] = static_cast<std::uint64_t>(std::popcount(j & m) & 1) << 63;
  return t;
}();

/// Amplitudes per parallel_for_blocks task of CostDiagonal::precompute:
/// 64 blocks amortize a task's start, and the smallest threaded range
/// (kParallelGrain, n = 15) still splits into 32 tasks.
constexpr std::int64_t kPrecomputeChunk = 1 << 10;

}  // namespace

void precompute_costs(const TermList& terms, std::uint64_t begin,
                      std::span<double> out) {
  const std::uint64_t end = begin + out.size();
  for (std::uint64_t base = begin & ~(kLanes - 1); base < end;
       base += kLanes) {
    // Lane j accumulates c_{base + j}. A term's sign is the parity of the
    // block's high bits times the table's low-bit parity; flipping w's
    // sign bit is exactly w * (-1.0), so lane j adds what
    // terms.evaluate(base + j) adds, in the same order, without a branch.
    double acc[kLanes] = {};
    for (const Term& t : terms) {
      const std::uint64_t w =
          std::bit_cast<std::uint64_t>(t.weight) ^
          (static_cast<std::uint64_t>(parity(base & t.mask)) << 63);
      const auto& low = kLowSign[t.mask & (kLanes - 1)];
      for (std::uint64_t j = 0; j < kLanes; ++j)
        acc[j] += std::bit_cast<double>(w ^ low[j]);
    }
    const std::uint64_t lo = std::max(base, begin);
    const std::uint64_t hi = std::min(base + kLanes, end);
    for (std::uint64_t x = lo; x < hi; ++x) out[x - begin] = acc[x - base];
  }
}

double checked_cost_bound(const TermList& terms, const char* who) {
  double bound = 0.0;
  for (const Term& t : terms) bound += std::abs(t.weight);
  if (!std::isfinite(bound))
    throw std::invalid_argument(std::string(who) +
                                ": the terms' sum of |weight| is " +
                                std::to_string(bound) + ", not finite");
  return bound;
}

CostDiagonal CostDiagonal::precompute(const TermList& terms, Exec exec) {
  check_qubit_limit(terms.num_qubits(), "CostDiagonal::precompute");
  checked_cost_bound(terms, "CostDiagonal::precompute");
  static const obs::Counter precomputes =
      obs::counter("qokit_precomputes_total");
  static const obs::Histogram precompute_hist =
      obs::histogram("qokit_precompute_ns");
  precomputes.add();
  obs::HistTimer timer(precompute_hist);
  obs::Span span("precompute");
  span.attr("n", terms.num_qubits());
  span.attr("terms", static_cast<std::int64_t>(terms.size()));
  CostDiagonal d;
  d.n_ = terms.num_qubits();
  const std::int64_t dim = static_cast<std::int64_t>(dim_of(d.n_));
  d.values_.resize(dim);  // unwritten: the kernel's threads touch it first
  double* out = d.values_.data();
  // Each element depends on its own index alone, so any split of the
  // range -- these chunks, or the dist ranks' slices -- gives the same
  // bits.
  parallel_for_blocks(exec, dim, kPrecomputeChunk,
                      [&](std::int64_t b, std::int64_t e) {
                        precompute_costs(
                            terms, static_cast<std::uint64_t>(b),
                            {out + b, static_cast<std::size_t>(e - b)});
                      });
  return d;
}

CostDiagonal CostDiagonal::from_function(
    int num_qubits, const std::function<double(std::uint64_t)>& f, Exec exec) {
  check_qubit_limit(num_qubits, "CostDiagonal::from_function");
  CostDiagonal d;
  d.n_ = num_qubits;
  const std::int64_t dim = static_cast<std::int64_t>(dim_of(num_qubits));
  d.values_.resize(dim);  // unwritten: f writes every element
  double* out = d.values_.data();
  parallel_for(exec, 0, dim, [&](std::int64_t x) {
    out[x] = f(static_cast<std::uint64_t>(x));
  });
  return d;
}

CostDiagonal CostDiagonal::from_values(int num_qubits, Values values) {
  if (values.size() != dim_of(num_qubits))
    throw std::invalid_argument("from_values: size must be 2^n");
  CostDiagonal d;
  d.n_ = num_qubits;
  d.values_ = std::move(values);
  return d;
}

CostDiagonal::Cache& CostDiagonal::ensure_extrema() const {
  if (values_.empty()) throw std::logic_error("extrema: empty diagonal");
  Cache& c = cache();
  std::call_once(c.extrema_once, [&] {
    const auto [lo, hi] = std::minmax_element(values_.begin(), values_.end());
    c.min = *lo;
    c.max = *hi;
  });
  return c;
}

double CostDiagonal::min_value() const { return ensure_extrema().min; }

double CostDiagonal::max_value() const { return ensure_extrema().max; }

double CostDiagonal::sector_min(int weight) const {
  if (values_.empty()) throw std::logic_error("sector_min: empty diagonal");
  if (weight < 0 || weight > n_)
    throw std::invalid_argument("sector_min: weight outside [0, n]");
  Cache& c = cache();
  std::call_once(c.sector_once, [&] {
    std::vector<double> m(static_cast<std::size_t>(n_) + 1,
                          std::numeric_limits<double>::infinity());
    for (std::uint64_t x = 0; x < values_.size(); ++x) {
      double& slot = m[static_cast<std::size_t>(popcount(x))];
      slot = std::min(slot, values_[x]);
    }
    c.sector_min = std::move(m);
  });
  return c.sector_min[static_cast<std::size_t>(weight)];
}

std::uint64_t CostDiagonal::ground_state_count(double tol) const {
  const double lo = min_value();
  std::uint64_t count = 0;
  for (double v : values_)
    if (v <= lo + tol) ++count;
  return count;
}

void check_phase_angles(double largest, const char* what,
                        std::span<const double> gammas) {
  for (std::size_t l = 0; l < gammas.size(); ++l) {
    if (std::isfinite(std::abs(gammas[l]) * largest)) continue;
    char text[128];
    std::snprintf(text, sizeof text, "gamma %g times %s %g", gammas[l], what,
                  largest);
    throw std::invalid_argument("phase angle at layer " + std::to_string(l) +
                                " is not finite: " + text);
  }
}

void check_phase_angles(const CostDiagonal& diag,
                        std::span<const double> gammas) {
  if (gammas.empty()) return;
  check_phase_angles(
      std::max(std::abs(diag.min_value()), std::abs(diag.max_value())),
      "the largest |cost|", gammas);
}

}  // namespace qokit
