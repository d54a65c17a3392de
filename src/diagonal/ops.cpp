#include "diagonal/ops.hpp"

#include <cmath>
#include <stdexcept>

#include "common/bitops.hpp"
#include "simd/kernels.hpp"

namespace qokit {
namespace {

void check_dims(std::uint64_t a, std::uint64_t b, const char* what) {
  if (a != b) throw std::invalid_argument(std::string(what) + ": size mismatch");
}

}  // namespace

void apply_phase(StateVector& sv, const CostDiagonal& diag, double gamma,
                 Exec exec) {
  check_dims(sv.size(), diag.size(), "apply_phase");
  if (sv.precision() == Precision::F32) {
    apply_phase_slice(sv.data_f32(), diag.data(), sv.size(), gamma, exec);
    return;
  }
  apply_phase_slice(sv.data(), diag.data(), sv.size(), gamma, exec);
}

void apply_phase_slice(cdouble* amp, const double* costs, std::uint64_t count,
                       double gamma, Exec exec) {
  simd::apply_phase_slice(amp, costs, count, gamma, exec);
}

void apply_phase_slice(cfloat* amp, const double* costs, std::uint64_t count,
                       double gamma, Exec exec) {
  simd::apply_phase_slice(amp, costs, count, gamma, exec);
}

void apply_phase(StateVector& sv, const DiagonalU16& diag, double gamma,
                 Exec exec) {
  check_dims(sv.size(), diag.size(), "apply_phase(u16)");
  // Per-thread reusable tables (1 MiB f64 / 256 KiB f32): after a
  // thread's first layer the u16 phase path performs zero allocations,
  // matching the other hot paths and keeping the scratch-reuse allocation
  // pins valid for the u16 backend too.
  if (sv.precision() == Precision::F32) {
    thread_local aligned_vector<std::complex<float>> lut32;
    diag.phase_table_into(gamma, lut32);
    simd::apply_phase_table(sv.data_f32(), diag.codes(), lut32.data(),
                            sv.size(), exec);
    return;
  }
  thread_local aligned_vector<std::complex<double>> lut;
  diag.phase_table_into(gamma, lut);
  simd::apply_phase_table(sv.data(), diag.codes(), lut.data(), sv.size(),
                          exec);
}

double expectation(const StateVector& sv, const CostDiagonal& diag,
                   Exec exec) {
  check_dims(sv.size(), diag.size(), "expectation");
  if (sv.precision() == Precision::F32)
    return expectation_slice(sv.data_f32(), diag.data(), sv.size(), exec);
  return expectation_slice(sv.data(), diag.data(), sv.size(), exec);
}

double expectation_slice(const cdouble* amp, const double* costs,
                         std::uint64_t count, Exec exec) {
  return simd::expectation_slice(amp, costs, count, exec);
}

double expectation_slice(const cfloat* amp, const double* costs,
                         std::uint64_t count, Exec exec) {
  return simd::expectation_slice(amp, costs, count, exec);
}

double expectation(const StateVector& sv, const DiagonalU16& diag,
                   Exec exec) {
  check_dims(sv.size(), diag.size(), "expectation(u16)");
  if (sv.precision() == Precision::F32)
    return simd::expectation_u16(sv.data_f32(), diag.codes(), diag.offset(),
                                 diag.scale(), sv.size(), exec);
  return simd::expectation_u16(sv.data(), diag.codes(), diag.offset(),
                               diag.scale(), sv.size(), exec);
}

double overlap_ground(const StateVector& sv, const CostDiagonal& diag,
                      double tol, Exec exec) {
  check_dims(sv.size(), diag.size(), "overlap_ground");
  const double lo = diag.min_value();
  if (sv.precision() == Precision::F32)
    return simd::overlap_ground(sv.data_f32(), diag.data(), lo + tol,
                                sv.size(), exec);
  return simd::overlap_ground(sv.data(), diag.data(), lo + tol, sv.size(),
                              exec);
}

double overlap_ground_sector(const StateVector& sv, const CostDiagonal& diag,
                             int weight, double tol, Exec exec) {
  check_dims(sv.size(), diag.size(), "overlap_ground_sector");
  if (weight < 0 || weight > diag.num_qubits())
    throw std::invalid_argument("overlap_ground_sector: empty weight sector");
  // The per-weight minimum is cached inside the diagonal (one scan for all
  // weights on first use), leaving a single filtered-reduction pass here.
  const double lo = diag.sector_min(weight);
  const double* c = diag.data();
  const double threshold = lo + tol;
  // Block-ordered reduction (not an OpenMP reduction) so the result is
  // independent of thread count, matching the simd-layer determinism
  // contract the other overlap/expectation paths follow.
  if (sv.precision() == Precision::F32) {
    const cfloat* amp = sv.data_f32();
    return parallel_reduce_blocks(
        exec, static_cast<std::int64_t>(sv.size()), kSimdBlock,
        [amp, c, weight, threshold](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t i = b; i < e; ++i)
            if (popcount(static_cast<std::uint64_t>(i)) == weight &&
                c[i] <= threshold) {
              const double re = amp[i].real(), im = amp[i].imag();
              acc += re * re + im * im;
            }
          return acc;
        });
  }
  const cdouble* amp = sv.data();
  return parallel_reduce_blocks(
      exec, static_cast<std::int64_t>(sv.size()), kSimdBlock,
      [amp, c, weight, threshold](std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t i = b; i < e; ++i)
          if (popcount(static_cast<std::uint64_t>(i)) == weight &&
              c[i] <= threshold)
            acc += std::norm(amp[i]);
        return acc;
      });
}

}  // namespace qokit
