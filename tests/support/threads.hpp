// Reaching a batch mode through the OpenMP thread count: a BatchEvaluator
// sizes its pool from max_threads() when it is built and the batch rule
// reads the count again per call, so build the evaluator (or session)
// inside with_threads.
#pragma once

#include "batch/batch_eval.hpp"
#include "common/parallel.hpp"

namespace qokit::testing {

/// Runs `f` at `threads` OpenMP threads, then restores the count (also
/// when `f` throws). Setting the count starts no thread.
template <class F>
void with_threads(int threads, F&& f) {
#if defined(_OPENMP)
  struct Restore {
    int saved;
    ~Restore() { omp_set_num_threads(saved); }
  } const restore{omp_get_max_threads()};
  omp_set_num_threads(threads);
#else
  (void)threads;  // a build without OpenMP always has one thread
#endif
  f();
}

/// The mode of a batch of two or more on a one-unit layer: Outer wherever
/// there is a second thread.
inline BatchParallelism spread_mode() {
  return max_threads() > 1 ? BatchParallelism::Outer
                           : BatchParallelism::Inner;
}

}  // namespace qokit::testing
