#include "statevector/state.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"
#include "simd/kernels.hpp"

namespace qokit {

void check_qubit_limit(int num_qubits, const char* who) {
  if (num_qubits < 0)
    throw std::invalid_argument(std::string(who) + ": negative qubit count " +
                                std::to_string(num_qubits));
  if (num_qubits > kMaxQubits)
    throw std::invalid_argument(std::string(who) + ": " +
                                std::to_string(num_qubits) +
                                " qubits exceed the " +
                                std::to_string(kMaxQubits) + "-qubit limit");
}

StateVector::StateVector(int num_qubits, Precision prec)
    : n_(num_qubits), prec_(prec) {
  check_qubit_limit(num_qubits, "StateVector");
  if (prec_ == Precision::F32)
    amp32_.assign(dim_of(num_qubits), cfloat(0.0f, 0.0f));
  else
    amp64_.assign(dim_of(num_qubits), cdouble(0.0, 0.0));
}

StateVector StateVector::basis_state(int num_qubits, std::uint64_t x,
                                     Precision prec) {
  StateVector sv(num_qubits, prec);
  if (x >= sv.size()) throw std::out_of_range("basis_state: index too large");
  if (prec == Precision::F32)
    sv.amp32_[x] = cfloat(1.0f, 0.0f);
  else
    sv.amp64_[x] = cdouble(1.0, 0.0);
  return sv;
}

StateVector StateVector::plus_state(int num_qubits, Precision prec) {
  StateVector sv;
  sv.assign_plus(num_qubits, prec, Exec::Parallel);
  return sv;
}

StateVector StateVector::dicke_state(int num_qubits, int weight,
                                     Precision prec) {
  StateVector sv;
  sv.assign_dicke(num_qubits, weight, prec, Exec::Parallel);
  return sv;
}

void StateVector::reshape(int num_qubits, Precision prec) {
  check_qubit_limit(num_qubits, "StateVector");
  if (prec_ != prec || size() != dim_of(num_qubits))
    *this = StateVector(num_qubits, prec);
}

namespace {

/// Writes amplitude(x) + 0i at every index x of `sv` under `exec`, the
/// double rounded once to float at F32: the one store behind every
/// initial state.
template <class F>
void fill_real(StateVector& sv, Exec exec, F amplitude) {
  const auto count = static_cast<std::int64_t>(sv.size());
  if (sv.precision() == Precision::F32) {
    cfloat* amp = sv.data_f32();
    parallel_for(exec, 0, count, [amp, amplitude](std::int64_t i) {
      const double a = amplitude(static_cast<std::uint64_t>(i));
      amp[i] = cfloat(static_cast<float>(a), 0.0f);
    });
    return;
  }
  cdouble* amp = sv.data();
  parallel_for(exec, 0, count, [amp, amplitude](std::int64_t i) {
    amp[i] = cdouble(amplitude(static_cast<std::uint64_t>(i)), 0.0);
  });
}

}  // namespace

void StateVector::assign_plus(int num_qubits, Precision prec, Exec exec) {
  reshape(num_qubits, prec);
  const double a = 1.0 / std::sqrt(static_cast<double>(size()));
  fill_real(*this, exec, [a](std::uint64_t) { return a; });
}

void StateVector::assign_dicke(int num_qubits, int weight, Precision prec,
                               Exec exec) {
  if (weight < 0 || weight > num_qubits)
    throw std::invalid_argument("dicke_state: weight out of range");
  reshape(num_qubits, prec);
  // C(n, k) in integers: each step's product is divisible by i + 1, and
  // the largest intermediate (C(34, 16) * 18 < 2^36) fits easily. The
  // count is exact, so this is the amplitude a popcount census gives.
  std::uint64_t sector = 1;
  for (int i = 0; i < weight; ++i)
    sector = sector * static_cast<std::uint64_t>(num_qubits - i) /
             static_cast<std::uint64_t>(i + 1);
  const double a = 1.0 / std::sqrt(static_cast<double>(sector));
  fill_real(*this, exec, [a, weight](std::uint64_t x) {
    return popcount(x) == weight ? a : 0.0;
  });
}

StateVector StateVector::to_precision(Precision prec) const {
  if (prec == prec_) return *this;
  StateVector out(n_, prec);
  if (prec == Precision::F32) {
    for (std::uint64_t i = 0; i < size(); ++i)
      out.amp32_[i] = cfloat(static_cast<float>(amp64_[i].real()),
                             static_cast<float>(amp64_[i].imag()));
  } else {
    for (std::uint64_t i = 0; i < size(); ++i)
      out.amp64_[i] = cdouble(amp32_[i]);
  }
  return out;
}

double StateVector::norm_squared(Exec exec) const {
  if (prec_ == Precision::F32)
    return simd::norm_squared(amp32_.data(), size(), exec);
  return simd::norm_squared(amp64_.data(), size(), exec);
}

void StateVector::normalize() {
  const double n2 = norm_squared();
  if (n2 <= 0.0) throw std::runtime_error("normalize: zero vector");
  const double inv = 1.0 / std::sqrt(n2);
  if (prec_ == Precision::F32) {
    const float invf = static_cast<float>(inv);
    for (auto& v : amp32_) v *= invf;
  } else {
    for (auto& v : amp64_) v *= inv;
  }
}

cdouble StateVector::inner(const StateVector& other) const {
  if (other.size() != size())
    throw std::invalid_argument("inner: dimension mismatch");
  if (other.prec_ != prec_)
    throw std::invalid_argument("inner: precision mismatch (widen first)");
  cdouble acc(0.0, 0.0);
  if (prec_ == Precision::F32) {
    for (std::uint64_t i = 0; i < size(); ++i)
      acc += std::conj(cdouble(amp32_[i])) * cdouble(other.amp32_[i]);
  } else {
    for (std::uint64_t i = 0; i < size(); ++i)
      acc += std::conj(amp64_[i]) * other.amp64_[i];
  }
  return acc;
}

void StateVector::probabilities_in_place(Exec exec) {
  if (prec_ == Precision::F32) {
    cfloat* a = amp32_.data();
    parallel_for(exec, 0, static_cast<std::int64_t>(size()),
                 [a](std::int64_t i) {
                   const cdouble w(a[i]);
                   a[i] = cfloat(static_cast<float>(std::norm(w)), 0.0f);
                 });
    return;
  }
  cdouble* a = amp64_.data();
  parallel_for(exec, 0, static_cast<std::int64_t>(size()),
               [a](std::int64_t i) { a[i] = cdouble(std::norm(a[i]), 0.0); });
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> p(size());
  if (prec_ == Precision::F32) {
    for (std::uint64_t i = 0; i < size(); ++i)
      p[i] = std::norm(cdouble(amp32_[i]));
  } else {
    for (std::uint64_t i = 0; i < size(); ++i) p[i] = std::norm(amp64_[i]);
  }
  return p;
}

double StateVector::weight_sector_mass(int k) const {
  double acc = 0.0;
  for (std::uint64_t x = 0; x < size(); ++x)
    if (popcount(x) == k) acc += std::norm(at(x));
  return acc;
}

double StateVector::max_abs_diff(const StateVector& other) const {
  if (other.size() != size())
    throw std::invalid_argument("max_abs_diff: dimension mismatch");
  double m = 0.0;
  for (std::uint64_t i = 0; i < size(); ++i)
    m = std::max(m, std::abs(at(i) - other.at(i)));
  return m;
}

}  // namespace qokit
