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
  StateVector sv(num_qubits, prec);
  const double a = 1.0 / std::sqrt(static_cast<double>(sv.size()));
  if (prec == Precision::F32) {
    const cfloat v(static_cast<float>(a), 0.0f);
    for (auto& amp : sv.amp32_) amp = v;
  } else {
    for (auto& amp : sv.amp64_) amp = cdouble(a, 0.0);
  }
  return sv;
}

StateVector StateVector::dicke_state(int num_qubits, int weight,
                                     Precision prec) {
  if (weight < 0 || weight > num_qubits)
    throw std::invalid_argument("dicke_state: weight out of range");
  StateVector sv(num_qubits, prec);
  std::uint64_t count = 0;
  for (std::uint64_t x = 0; x < sv.size(); ++x)
    if (popcount(x) == weight) ++count;
  const double a = 1.0 / std::sqrt(static_cast<double>(count));
  for (std::uint64_t x = 0; x < sv.size(); ++x)
    if (popcount(x) == weight) {
      if (prec == Precision::F32)
        sv.amp32_[x] = cfloat(static_cast<float>(a), 0.0f);
      else
        sv.amp64_[x] = cdouble(a, 0.0);
    }
  return sv;
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
