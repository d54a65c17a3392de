// The 2^n complex state vector and its initial states.
//
// Matches the paper's storage model: qubit q at bit q of the index, with
// the amplitude scalar selectable per state (complex128 by default,
// complex64 for the bandwidth-halving mixed-precision path). Initial
// states cover |+>^n (transverse-field mixer) and Dicke states |D_n^k>
// (Hamming-weight-preserving xy mixers).
//
// Precision is a runtime tag, not a template parameter, so the virtual
// simulator API, the batch scratch pool, and the serving stack move
// StateVector values around without caring which width is inside. The
// initial states are in-place fills (assign_plus / assign_dicke) that reuse
// a buffer of the right size and precision and reallocate any other, so a
// scratch state is refilled without a cached copy to read from; the
// plus_state / dicke_state factories are built on the same fills, so the
// bits have one source. Everything numeric that *aggregates*
// amplitudes (norms, expectations, the sampler CDF) accumulates in double
// regardless of the amplitude width — see DESIGN.md "Mixed precision".
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/parallel.hpp"

namespace qokit {

using cdouble = std::complex<double>;
using cfloat = std::complex<float>;

/// Amplitude scalar width of one StateVector. F64 is the default and the
/// accuracy oracle; F32 halves bytes moved per pass and doubles SIMD lane
/// width at ~1e-6 relative amplitude error (pinned by test_precision).
enum class Precision { F64, F32 };

/// 64 (F64) or 32 (F32); feeds the qokit_precision_bits gauge and spans.
inline constexpr int precision_bits(Precision p) noexcept {
  return p == Precision::F32 ? 32 : 64;
}

/// sizeof one complex amplitude at this precision.
inline constexpr std::uint64_t amplitude_bytes(Precision p) noexcept {
  return p == Precision::F32 ? sizeof(cfloat) : sizeof(cdouble);
}

/// Largest supported qubit count for an in-memory state vector (2^34
/// amplitudes = 256 GiB) or cost diagonal.
inline constexpr int kMaxQubits = 34;

/// Refuses a 2^n buffer before it is allocated: throws
/// std::invalid_argument ("<who>: <n> qubits exceed the 34-qubit limit")
/// unless 0 <= num_qubits <= kMaxQubits.
void check_qubit_limit(int num_qubits, const char* who);

/// Owning 2^n-amplitude state vector.
class StateVector {
 public:
  StateVector() = default;

  /// All-zero (invalid, norm 0) vector of n qubits; fill before use.
  explicit StateVector(int num_qubits, Precision prec = Precision::F64);

  /// |x> for a computational basis state x.
  static StateVector basis_state(int num_qubits, std::uint64_t x,
                                 Precision prec = Precision::F64);

  /// Uniform superposition |+>^n, the standard QAOA initial state.
  static StateVector plus_state(int num_qubits,
                                Precision prec = Precision::F64);

  /// Dicke state |D_n^k>: equal superposition of all basis states with
  /// Hamming weight k. The in-sector initial state for xy mixers
  /// (f64-only subsystem; F32 Dicke states are still constructible).
  static StateVector dicke_state(int num_qubits, int weight,
                                 Precision prec = Precision::F64);

  /// Overwrite this state with |+>^n at `prec`: every amplitude becomes
  /// 1/sqrt(2^n) (at F32, that double rounded once to float). The buffer
  /// is reused when it already holds 2^n amplitudes at `prec` and
  /// reallocated otherwise; the write is one parallel_for under `exec`.
  void assign_plus(int num_qubits, Precision prec, Exec exec);

  /// Overwrite this state with |D_n^k> at `prec`, reusing the buffer like
  /// assign_plus: 1/sqrt(C(n, k)) at every index of Hamming weight k and
  /// zero elsewhere, written per index under `exec`. Throws
  /// std::invalid_argument unless 0 <= weight <= num_qubits.
  void assign_dicke(int num_qubits, int weight, Precision prec, Exec exec);

  int num_qubits() const noexcept { return n_; }
  Precision precision() const noexcept { return prec_; }
  std::uint64_t size() const noexcept {
    return prec_ == Precision::F32 ? amp32_.size() : amp64_.size();
  }
  /// Amplitude storage footprint (size() * width of one amplitude).
  std::uint64_t bytes() const noexcept {
    return size() * amplitude_bytes(prec_);
  }

  /// F64 amplitude access. The legacy (and default) surface: every caller
  /// predating the mixed-precision path reads through these, and they are
  /// only valid on an F64 state (the f32 buffer is a different array —
  /// callers on the f32 path use data_f32()/data_as<float>()).
  cdouble* data() noexcept { return amp64_.data(); }
  const cdouble* data() const noexcept { return amp64_.data(); }
  cdouble& operator[](std::uint64_t i) noexcept { return amp64_[i]; }
  const cdouble& operator[](std::uint64_t i) const noexcept {
    return amp64_[i];
  }

  /// F32 amplitude access (null on an F64 state).
  cfloat* data_f32() noexcept { return amp32_.data(); }
  const cfloat* data_f32() const noexcept { return amp32_.data(); }

  /// Amplitude x widened to double regardless of storage precision.
  cdouble at(std::uint64_t i) const noexcept {
    return prec_ == Precision::F32 ? cdouble(amp32_[i]) : amp64_[i];
  }

  /// Converting copy; a same-precision request is a plain copy. F32->F64
  /// widening is exact; F64->F32 rounds each component to nearest float.
  StateVector to_precision(Precision prec) const;

  /// Squared 2-norm sum |a_x|^2 (1 for a valid quantum state), accumulated
  /// in double at either precision. Defaults Parallel like every other
  /// Exec-taking entry point (the simd layer guarantees the result is
  /// bit-identical either way); pinned by test_statevector's
  /// ExecDefaultsAreUniform.
  double norm_squared(Exec exec = Exec::Parallel) const;

  /// Scale so that norm_squared() == 1. Throws on the zero vector.
  void normalize();

  /// <this|other>; requires matching precision (widen first to mix).
  cdouble inner(const StateVector& other) const;

  /// |a_x|^2 for every x (double at either precision).
  std::vector<double> probabilities() const;

  /// Destructive variant (QOKit's preserve_state=False): overwrite each
  /// amplitude with |a_x|^2 + 0i in place, avoiding the extra 2^n-double
  /// allocation. The state is no longer a quantum state afterwards; read
  /// the probabilities from the real parts. On f32 states the square is
  /// computed in double and rounded once on the store.
  void probabilities_in_place(Exec exec = Exec::Parallel);

  /// Total probability mass on basis states of Hamming weight k.
  double weight_sector_mass(int k) const;

  /// Max |a_x - b_x| between two states (test/diagnostic helper). Works
  /// across precisions — both sides are widened to double before the
  /// subtraction, which is what the f32-vs-f64 drift study measures.
  double max_abs_diff(const StateVector& other) const;

 private:
  /// Make this an n-qubit state at `prec`, keeping the buffer when its
  /// size and precision already match (contents are then left as they
  /// are) and allocating a zeroed one otherwise.
  void reshape(int num_qubits, Precision prec);

  int n_ = 0;
  Precision prec_ = Precision::F64;
  aligned_vector<cdouble> amp64_;
  aligned_vector<cfloat> amp32_;
};

}  // namespace qokit
