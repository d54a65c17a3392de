// QAOA circuit compiler: polynomial terms -> gate sequence.
//
// This reproduces what standard frameworks (Qiskit et al.) must do before
// simulating QAOA: every phase layer expands each order-m term into a CX
// ladder plus an RZ (2(m-1) + 1 gates), so the per-layer gate count scales
// with |T| -- the overhead the paper's precomputation eliminates. A MultiZ
// style emits one diagonal multi-qubit phase gate per term instead (the
// "diagonal gates" optimization referenced for tensor networks).
#pragma once

#include <span>

#include "fur/mixers.hpp"
#include "gatesim/circuit.hpp"
#include "terms/term.hpp"

namespace qokit {

/// How the phase operator e^{-i gamma C} is decomposed into gates.
enum class PhaseStyle {
  CxLadder,  ///< CX chain + RZ + reversed chain per term (Qiskit-style)
  MultiZ,    ///< one ZPhase(mask, 2 gamma w) diagonal gate per term
};

/// Gates of one phase layer appended to `c`.
void append_phase_layer(Circuit& c, const TermList& terms, double gamma,
                        PhaseStyle style);

/// Gates of one mixer layer appended to `c`. The X mixer emits RX(2 beta)
/// per qubit; xy mixers emit one XY(2 beta) rotation per edge in the same
/// order as the fur mixers, so both simulators realize identical unitaries.
void append_mixer_layer(Circuit& c, MixerType mixer, double beta);

/// Full QAOA circuit: optional initial H layer (|0..0> -> |+>^n), then p
/// alternating phase and mixer layers.
Circuit compile_qaoa_circuit(const TermList& terms,
                             std::span<const double> gammas,
                             std::span<const double> betas,
                             MixerType mixer = MixerType::X,
                             PhaseStyle style = PhaseStyle::CxLadder,
                             bool initial_h = true);

}  // namespace qokit
