// Quickstart: the session-based C++ equivalent of Listing 1 in the paper.
//
// Build the weighted all-to-all MaxCut terms, open a ProblemSession (one
// diagonal precompute), and answer queries through the unified
// EvalRequest/EvalResult surface.
#include <cstdio>

#include "api/qokit.hpp"

int main() {
  using namespace qokit;

  const int n = 16;  // number of qubits
  // Terms for all-to-all MaxCut with weight 0.3 (Listing 1, line 5).
  const Graph g = Graph::complete(n, 0.3);

  // The session owns the simulator, the precomputed cost diagonal, and a
  // scratch-state pool; every later query reuses all three.
  const api::ProblemSession session =
      api::ProblemSession::maxcut(g, SimulatorSpec::parse("auto"));

  const CostDiagonal& costs = session.cost_diagonal();
  std::printf("n = %d, |T| = %zu terms\n", n, session.terms().size());
  std::printf("cost diagonal: 2^%d entries, min %.3f, max %.3f "
              "(precomputed once, %.3f ms)\n",
              costs.num_qubits(), costs.min_value(), costs.max_value(),
              session.precompute_ns() / 1e6);

  // One request selects everything this query needs.
  const QaoaParams params = linear_ramp(/*p=*/3, /*dt=*/0.8);
  api::EvalRequest request;
  request.overlap = true;
  const api::EvalResult r = session.evaluate(params, request);

  std::printf("QAOA objective <C> = %.6f (expected cut %.6f)\n",
              *r.expectation, -*r.expectation);
  std::printf("ground-state overlap = %.6f\n", *r.overlap);
  std::printf("simulate %.3f ms, score %.3f ms (no re-precompute)\n",
              r.timings.simulate_ns / 1e6, r.timings.reduce_ns / 1e6);

  // Repeat queries are cheap: the second evaluation reuses the diagonal
  // and the scratch statevector, refilled with |+> in place.
  const api::EvalResult again = session.evaluate(params, request);
  std::printf("second call simulate %.3f ms (identical result: %s)\n",
              again.timings.simulate_ns / 1e6,
              *again.expectation == *r.expectation ? "yes" : "no");

  // With QOKIT_OBS=1 in the environment (or obs::set_enabled), write the
  // metrics snapshot (JSON + Prometheus exposition) and the
  // chrome://tracing trace next to the binary. A no-op when off.
  if (obs::dump())
    std::printf("observability exports written (qokit_obs_*.json/.prom)\n");
  return 0;
}
