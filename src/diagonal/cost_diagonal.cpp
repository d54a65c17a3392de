#include "diagonal/cost_diagonal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/bitops.hpp"
#include "obs/obs.hpp"

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

CostDiagonal CostDiagonal::precompute(const TermList& terms, Exec exec) {
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
  d.values_.assign(dim, 0.0);
  double* out = d.values_.data();
  const Term* ts = terms.terms().data();
  const std::size_t nt = terms.size();

  // One thread owns one output element: the GPU-kernel layout of the
  // paper, and the layout reused verbatim for distributed slices.
  parallel_for(exec, 0, dim, [&](std::int64_t x) {
    double acc = 0.0;
    for (std::size_t k = 0; k < nt; ++k)
      acc += ts[k].weight * parity_sign(static_cast<std::uint64_t>(x),
                                        ts[k].mask);
    out[x] = acc;
  });
  return d;
}

CostDiagonal CostDiagonal::from_function(
    int num_qubits, const std::function<double(std::uint64_t)>& f, Exec exec) {
  CostDiagonal d;
  d.n_ = num_qubits;
  const std::int64_t dim = static_cast<std::int64_t>(dim_of(num_qubits));
  d.values_.assign(dim, 0.0);
  double* out = d.values_.data();
  parallel_for(exec, 0, dim, [&](std::int64_t x) {
    out[x] = f(static_cast<std::uint64_t>(x));
  });
  return d;
}

CostDiagonal CostDiagonal::from_values(int num_qubits,
                                       aligned_vector<double> values) {
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

}  // namespace qokit
