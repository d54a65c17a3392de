#include "fur/mixers.hpp"

#include <cmath>
#include <stdexcept>

#include "fur/su2.hpp"
#include "fur/su4.hpp"

namespace qokit {

void apply_mixer_x(StateVector& sv, double beta, Exec exec) {
  const double c = std::cos(beta);
  const double s = std::sin(beta);
  if (sv.precision() == Precision::F32) {
    for (int q = 0; q < sv.num_qubits(); ++q)
      kern::rx(sv.data_f32(), sv.size(), q, c, s, exec);
    return;
  }
  for (int q = 0; q < sv.num_qubits(); ++q)
    kern::rx(sv.data(), sv.size(), q, c, s, exec);
}

void apply_mixer_x_multiangle(StateVector& sv, std::span<const double> betas,
                              Exec exec) {
  if (sv.precision() != Precision::F64)
    throw std::invalid_argument(
        "apply_mixer_x_multiangle: f64 states only (prec=f32 supports the "
        "uniform X mixer)");
  if (static_cast<int>(betas.size()) != sv.num_qubits())
    throw std::invalid_argument(
        "apply_mixer_x_multiangle: need one beta per qubit");
  for (int q = 0; q < sv.num_qubits(); ++q)
    kern::rx(sv.data(), sv.size(), q, std::cos(betas[q]), std::sin(betas[q]),
             exec);
}

void apply_mixer_xy_ring(StateVector& sv, double beta, Exec exec) {
  const int n = sv.num_qubits();
  if (sv.precision() != Precision::F64)
    throw std::invalid_argument("xy_ring mixer: f64 states only");
  if (n < 3) throw std::invalid_argument("xy_ring mixer: need n >= 3");
  const double c = std::cos(beta);
  const double s = std::sin(beta);
  for (int i = 0; i < n; ++i)
    kern::xy(sv.data(), sv.size(), i, (i + 1) % n, c, s, exec);
}

void apply_mixer_xy_complete(StateVector& sv, double beta, Exec exec) {
  const int n = sv.num_qubits();
  if (sv.precision() != Precision::F64)
    throw std::invalid_argument("xy_complete mixer: f64 states only");
  if (n < 2) throw std::invalid_argument("xy_complete mixer: need n >= 2");
  const double c = std::cos(beta);
  const double s = std::sin(beta);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      kern::xy(sv.data(), sv.size(), i, j, c, s, exec);
}

void apply_mixer(StateVector& sv, MixerType type, double beta, Exec exec) {
  switch (type) {
    case MixerType::X:
      apply_mixer_x(sv, beta, exec);
      return;
    case MixerType::XYRing:
      apply_mixer_xy_ring(sv, beta, exec);
      return;
    case MixerType::XYComplete:
      apply_mixer_xy_complete(sv, beta, exec);
      return;
  }
  throw std::logic_error("apply_mixer: unknown mixer type");
}

}  // namespace qokit
