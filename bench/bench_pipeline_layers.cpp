// Layer pipeline: fused cache-blocked passes vs the unfused per-qubit
// loop, ns/layer at n = 20, 22, 24, serial and parallel, emitting
// BENCH_pipeline.json.
//
// Times one FurQaoaSimulator's fused simulate_qaoa_from against the
// unfused oracle loop of tests/support/unfused_oracle.hpp over the same
// simulator (same kernels, same SIMD dispatch level), so the ratio
// isolates the traversal change: the unfused loop streams the state n + 1
// times per layer, the plan 1 + ceil((n - t)/g) times. Acceptance target:
// >= 1.3x fewer ns/layer at n = 24. Results are cross-checked bitwise
// before timing — a mismatch exits 2, so the bench doubles as a large-n
// identity smoke.
//
// Smoke mode (QOKIT_BENCH_SMOKE=1 or --smoke): n = 16 only, 1 rep — used
// by CI (and `ctest -C bench -L bench-smoke`) to keep the JSON generation
// path alive without burning minutes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "fur/simulator.hpp"
#include "statevector/state.hpp"
#include "support/unfused_oracle.hpp"

namespace {

using namespace qokit;

struct Result {
  int n;
  const char* exec;
  double unfused_ns_layer;
  double fused_ns_layer;
  int unfused_sweeps;  // n + 1: phase + one butterfly pass per qubit
  int fused_sweeps;    // LayerPlan::full_sweeps()
};

/// Best-of-`reps` wall time of `run`.
template <class F>
double time_best(int reps, F&& run) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    run();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) ||
      (std::getenv("QOKIT_BENCH_SMOKE") != nullptr);
  const int reps = smoke ? 1 : 3;
  const int layers = smoke ? 2 : 4;
  const std::vector<int> ns =
      smoke ? std::vector<int>{16} : std::vector<int>{20, 22, 24};

  std::vector<Result> results;
  bool identical = true;
  for (int n : ns) {
    // A random dense diagonal stands in for any precomputed problem; the
    // layer loop never looks past the values.
    const std::uint64_t dim = dim_of(n);
    Rng rng(4200 + static_cast<std::uint64_t>(n));
    aligned_vector<double> values(dim);
    for (double& v : values) v = rng.uniform(-8.0, 8.0);
    const CostDiagonal diag =
        CostDiagonal::from_values(n, std::move(values));

    std::vector<double> gammas(layers), betas(layers);
    for (int l = 0; l < layers; ++l) {
      gammas[l] = 0.1 + 0.07 * l;
      betas[l] = 0.8 - 0.11 * l;
    }

    for (const Exec exec : {Exec::Serial, Exec::Parallel}) {
      const FurQaoaSimulator fused(diag, FurConfig{.exec = exec});

      // Identity gate before timing: the fused evolution must match the
      // unfused oracle bit for bit.
      {
        const StateVector a = fused.simulate_qaoa(gammas, betas);
        const StateVector b =
            testing::unfused_simulate(fused, gammas, betas);
        if (a.max_abs_diff(b) != 0.0) {
          std::fprintf(stderr, "FUSED != UNFUSED at n=%d exec=%d\n", n,
                       static_cast<int>(exec));
          identical = false;
        }
      }

      StateVector state = fused.initial_state();
      const double unfused_s = time_best(reps, [&] {
        state = testing::unfused_evolve(fused, std::move(state), gammas,
                                        betas);
      }) / layers;
      const double fused_s = time_best(reps, [&] {
        state = fused.simulate_qaoa_from(std::move(state), gammas, betas);
      }) / layers;

      const char* exec_name = exec == Exec::Serial ? "serial" : "parallel";
      results.push_back({n, exec_name, unfused_s * 1e9, fused_s * 1e9,
                         n + 1, fused.layer_plan().full_sweeps()});
      std::printf(
          "n=%2d %-8s unfused %10.2f ms/layer (%2d sweeps)  fused %10.2f "
          "ms/layer (%2d sweeps)  %5.2fx\n",
          n, exec_name, unfused_s * 1e3, n + 1, fused_s * 1e3,
          fused.layer_plan().full_sweeps(), unfused_s / fused_s);
      std::fflush(stdout);
    }
  }

  std::FILE* out = std::fopen("BENCH_pipeline.json", "w");
  if (!out) {
    std::perror("BENCH_pipeline.json");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_context(out, smoke);
  std::fprintf(out,
               "  \"layers\": %d,\n"
               "  \"results\": [\n",
               layers);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(out,
                 "    {\"n\": %d, \"exec\": \"%s\", "
                 "\"unfused_ns_per_layer\": %.0f, \"fused_ns_per_layer\": "
                 "%.0f, \"speedup\": %.3f, \"unfused_sweeps\": %d, "
                 "\"fused_sweeps\": %d}%s\n",
                 r.n, r.exec, r.unfused_ns_layer, r.fused_ns_layer,
                 r.unfused_ns_layer / r.fused_ns_layer, r.unfused_sweeps,
                 r.fused_sweeps, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return identical ? 0 : 2;
}
