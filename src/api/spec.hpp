// Typed simulator configuration for the public API.
//
// The one-line methods historically selected backends via an untyped
// string that every entry point re-parsed (and the distributed spellings
// were recognized by only some of them). SimulatorSpec is the single
// typed description of "which simulator, configured how": every string
// spelling parses into it exactly once, every factory consumes it, and
// to_string() renders the canonical spelling back, so a spec can be
// logged, stored, and compared for equality. choose_simulator and
// friends remain as thin wrappers over make_simulator(terms, spec).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "fur/mixers.hpp"
#include "fur/simulator.hpp"
#include "terms/term.hpp"

namespace qokit {

/// Which topology a spec selects: FurQaoaSimulator on one node, or
/// DistributedFurSimulator over `ranks` virtual ranks.
enum class Backend {
  Auto,  ///< the default: fused-kernel FurQaoaSimulator
  U16,   ///< FurQaoaSimulator over the uint16-compressed diagonal
  Dist,  ///< DistributedFurSimulator over `ranks` virtual ranks
};

/// Canonical backend token ("auto", "u16" or "dist").
std::string_view to_string(Backend backend);

/// Typed construction-time configuration for every simulator backend. The
/// spec alone decides which simulator make_simulator builds: no
/// environment variable changes its meaning. Process-wide settings choose
/// how the machine runs a spec, one switch each -- the kernel family
/// QOKIT_SIMD / force_simd_level, instrumentation QOKIT_OBS /
/// obs::set_enabled. X-mixer layers always run the fused pipeline, so no
/// option selects it.
///
/// String grammar (SimulatorSpec::parse):
///
///   spec    := backend (":" option)*
///   backend := "auto" | "u16" | "dist" [":" K]
///            | "serial"                       (alias of "auto:exec=serial")
///   option  := "mixer="  ("x" | "xyring" | "xycomplete")
///            | "exec="   ("serial" | "parallel")
///            | "ranks="  <int >= 1>           (dist only)
///            | "weight=" <int >= 0>           (Dicke weight, xy mixers)
///            | "seed="   <uint64>             (sampling seed)
///            | "prec="   ("f32" | "f64")
///
/// Any other token throws std::invalid_argument naming the offending
/// token -- no spelling silently falls back to a default simulator.
/// parse() validates tokens only; semantic constraints (e.g. dist with an
/// XY mixer, or a field the backend ignores) are enforced by
/// make_simulator and the simulator it builds.
struct SimulatorSpec {
  Backend backend = Backend::Auto;
  MixerType mixer = MixerType::X;
  /// Kernel execution policy. Backend::Dist, whose rank threads are the
  /// parallelism, accepts only Parallel.
  Exec exec = Exec::Parallel;
  int ranks = 2;  ///< virtual rank count (Backend::Dist only; else 2)
  /// Dicke weight for xy mixers; -1 = n/2 (and the only value the X mixer
  /// accepts).
  int initial_weight = -1;
  std::uint64_t sample_seed = 1;  ///< base seed for drawn bitstrings
  /// Amplitude scalar width. F32 runs the X mixer only (the xy mixers
  /// refuse it); to_string() elides the F64 default.
  Precision prec = Precision::F64;

  /// Parse a spelling per the grammar above. Throws std::invalid_argument
  /// naming the offending token on anything unrecognized.
  static SimulatorSpec parse(std::string_view name);

  /// Canonical spelling; parse(to_string()) reproduces the spec exactly
  /// (including every non-default field).
  std::string to_string() const;

  friend bool operator==(const SimulatorSpec&, const SimulatorSpec&) =
      default;
};

/// Build the simulator a spec describes. The single factory behind
/// choose_simulator / choose_simulator_xyring / choose_simulator_xycomplete
/// and the session API. Throws std::invalid_argument on semantically
/// invalid combinations: dist with a non-X mixer, or a rank count that is
/// not a power of two, exceeds the 2^n amplitudes, or exceeds kMaxRanks
/// (checked by VirtualRankWorld); naming the field, on a field the built
/// simulator would ignore: ranks != 2 off dist, exec=serial on dist, or a
/// weight with the X mixer; and, from the simulator's own config check,
/// on prec=f32 with an xy mixer, an xy mixer below its minimum size, or a
/// Dicke weight above n. Every check runs before a thread starts or the
/// diagonal allocates.
///
/// Every fur and dist simulator it builds runs the fixed pipeline
/// geometry, pipeline::Geometry::defaults(). It changes no process-wide
/// setting: with OMP_NUM_THREADS unset, OpenMP's own default picks the
/// thread count.
std::unique_ptr<QaoaFastSimulatorBase> make_simulator(
    const TermList& terms, const SimulatorSpec& spec);

}  // namespace qokit
