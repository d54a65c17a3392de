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

#include "dist/alltoall.hpp"
#include "fur/mixers.hpp"
#include "fur/simulator.hpp"
#include "pipeline/layer_plan.hpp"
#include "terms/term.hpp"

namespace qokit {

/// Which simulator implementation a spec selects.
enum class Backend {
  Auto,      ///< the default: threaded fused-kernel FurQaoaSimulator
  Serial,    ///< single-threaded FurQaoaSimulator (portable reference)
  Threaded,  ///< explicit OpenMP FurQaoaSimulator
  U16,       ///< FurQaoaSimulator over the uint16-compressed diagonal
  Fwht,      ///< FurQaoaSimulator with the two-transform mixer (X only)
  Gatesim,   ///< gate-at-a-time evolution (diagonal-scored; baseline)
  Dist,      ///< DistributedFurSimulator over `ranks` virtual ranks
};

/// Canonical backend token ("auto", "serial", ..., "dist").
std::string_view to_string(Backend backend);

/// Amplitude precision a spec requests. Auto defers to the QOKIT_PREC
/// environment variable ("f32" selects float amplitudes when the resolved
/// backend supports them; anything else means f64) and otherwise means
/// f64 — so default spec spellings, cache keys, and results are untouched
/// by this knob. Explicit F32 on an unsupported combination (gatesim, xy
/// mixers) throws from make_simulator instead of silently widening.
enum class Prec {
  Auto,  ///< QOKIT_PREC env, else f64; downgrades silently if unsupported
  F32,   ///< float amplitudes (X mixer fur/dist backends only)
  F64,   ///< double amplitudes (the pre-existing behavior)
};

/// Typed construction-time configuration for every simulator backend. A
/// spec configures the one simulator built from it and nothing else:
/// process-wide settings have one switch each -- the kernel family
/// QOKIT_SIMD / force_simd_level, instrumentation QOKIT_OBS /
/// obs::set_enabled.
///
/// String grammar (SimulatorSpec::parse):
///
///   spec    := backend (":" option)*
///   backend := "auto" | "serial" | "threaded" | "u16" | "fwht"
///            | "gatesim" | "dist" [":" K [":" staged|pairwise|direct]]
///   option  := "mixer="    ("x" | "xyring" | "xycomplete")
///            | "exec="     ("serial" | "parallel")
///            | "ranks="    <int>                (dist only)
///            | "alltoall=" ("staged" | "pairwise" | "direct")
///            | "weight="   <int>                (Dicke weight, xy mixers)
///            | "seed="     <uint64>             (sampling seed)
///            | "pipeline=" ("auto" | "on" | "off")
///            | "prec="     ("auto" | "f32" | "f64")
///
/// Any other token throws std::invalid_argument naming the offending
/// token -- no spelling silently falls back to a default simulator.
/// parse() validates tokens only; semantic constraints (e.g. fwht or
/// dist with an XY mixer) are enforced by make_simulator.
struct SimulatorSpec {
  Backend backend = Backend::Auto;
  MixerType mixer = MixerType::X;
  /// Kernel execution policy. parse() defaults this per backend (Serial
  /// for "serial", Parallel otherwise); ignored by Backend::Dist, whose
  /// rank threads are the parallelism.
  Exec exec = Exec::Parallel;
  int ranks = 2;  ///< virtual rank count (Backend::Dist only)
  AlltoallStrategy alltoall = AlltoallStrategy::Staged;  ///< Dist only
  int initial_weight = -1;  ///< Dicke weight for xy mixers; -1 = n/2
  std::uint64_t sample_seed = 1;  ///< base seed for drawn bitstrings
  /// Cache-blocked fused layer execution (src/pipeline/). Auto follows
  /// QOKIT_PIPELINE (on unless the env says off); Off pins the unfused
  /// oracle path, bit-identical by contract. Ignored by Backend::Gatesim
  /// (gate-at-a-time evolution has no layer plan).
  pipeline::PipelineMode pipeline = pipeline::PipelineMode::Auto;
  /// Amplitude scalar width (see enum Prec). Auto = QOKIT_PREC env, else
  /// f64; to_string() elides Auto so default spellings are unchanged.
  Prec prec = Prec::Auto;

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
/// / choose_simulator_distributed and the session API. Throws
/// std::invalid_argument on semantically invalid combinations (fwht or
/// dist with a non-X mixer).
///
/// The first call probes the machine (probe_machine) and applies the
/// result once per process: every simulator gets the pipeline geometry
/// Geometry::for_caches(L1d, L2); OpenMP runs one thread per physical
/// core unless OMP_NUM_THREADS is set; NUMA first-touch placement turns
/// on when there is more than one node. None of these changes a result
/// bit.
std::unique_ptr<QaoaFastSimulatorBase> make_simulator(
    const TermList& terms, const SimulatorSpec& spec);

struct MachineTopology;  // common/machine_probe.hpp

/// The rules make_simulator's first call runs on probe_machine(): set the
/// thread count and first-touch switch above for `topo` process-wide,
/// publish the qokit_tune_* gauges, and return Geometry::for_caches of its
/// caches. Separate from the probe so the rules can be checked against a
/// pinned topology.
pipeline::Geometry apply_machine(const MachineTopology& topo);

}  // namespace qokit
