// 2^n buffers from the OS (src/common/aligned.hpp). AlignedAllocator maps
// every block of kMapThreshold bytes or more and unmaps it on free, and no
// 2^n buffer is zero-filled before its one writer runs. Pinned here:
//  - every owner gives its blocks back: aligned_live_bytes() returns to its
//    baseline and the blocks' pages are unmapped once a session, a
//    BatchEvaluator and a serve-cache eviction drop them (LeakSanitizer
//    does not track mapped blocks, so this is their leak check);
//  - an evicted session's pages leave the process (/proc/self/statm), the
//    second time too, where a heap allocator keeps them;
//  - storage nothing zeroes any more is written in full: the diagonals
//    equal TermList::evaluate bit for bit, and StateVector(n, prec) is
//    still all zeros.
// The counters move from OpenMP and serve threads, so the tsan CI leg
// runs this file too.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <fstream>
#include <vector>

#include "api/session.hpp"
#include "batch/batch_eval.hpp"
#include "common/aligned.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "diagonal/diagonal_u16.hpp"
#include "dist/dist_fur.hpp"
#include "fur/simulator.hpp"
#include "problems/graph.hpp"
#include "problems/maxcut.hpp"
#include "serve/session_cache.hpp"
#include "statevector/state.hpp"

namespace qokit {
namespace {

/// A few dozen terms whose costs are integers plus one half: the u16
/// codes are exact, and no cost is 0, which an unwritten mapped page
/// reads.
TermList problem(int n, std::uint64_t seed) {
  TermList terms = maxcut_terms(Graph::erdos_renyi(n, 0.3, seed));
  terms.add_mask(0.5, 0);
  return terms;
}

std::vector<QaoaParams> schedules(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QaoaParams> out(static_cast<std::size_t>(count));
  for (QaoaParams& s : out)
    for (int l = 0; l < 2; ++l) {
      s.gammas.push_back(rng.uniform(-0.6, 0.6));
      s.betas.push_back(rng.uniform(-0.9, 0.9));
    }
  return out;
}

/// First amplitude of a state, at whichever width it holds.
const void* first_amplitude(const StateVector& sv) {
  if (sv.precision() == Precision::F32) return sv.data_f32();
  return sv.data();
}

/// True when the page at `p` is not mapped in this process. A block that
/// went back to a heap stays mapped, and one that came from aligned_alloc
/// is not page aligned (mincore then fails with EINVAL, not ENOMEM).
bool unmapped(const void* p) {
  unsigned char resident = 0;
  // mincore takes a non-const pointer but only reads the mapping.
  return ::mincore(const_cast<void*>(p), 1, &resident) != 0 &&
         errno == ENOMEM;
}

/// Scalar evaluate (pool slot 0), an Outer batch (every slot) and a
/// sampled evaluate: everything a served session fills.
void exercise(const api::ProblemSession& session) {
  const std::vector<QaoaParams> batch = schedules(
      static_cast<int>(session.batch().pool_size()), 3);
  api::EvalRequest request;
  request.shots = 64;
  (void)session.evaluate(batch.front(), request);
  api::EvalRequest wide;
  wide.parallelism = BatchParallelism::Outer;
  (void)session.evaluate_batch(batch, wide);
}

TEST(AlignedBuffers, MappedBlocksGoBackToTheOs) {
  // SK-16-sized buffers: the 512 KiB diagonal and 1 MiB states, the
  // smallest ones that are mapped. Each drop is checked before anything
  // else allocates, since a new mapping may reuse the freed range.
  const int n = 16;
  static_assert(std::uint64_t{8} << 16 == kMapThreshold);
  const SimulatorSpec spec = SimulatorSpec::parse("auto");
  // Per-thread scratch (the fused reduction's partials) outlives any one
  // session: warm it, so the baseline already holds it.
  exercise(api::ProblemSession(problem(n, 1), spec));
  const std::uint64_t baseline = aligned_live_bytes();

  const void* diagonal = nullptr;
  const void* slot = nullptr;
  {
    const api::ProblemSession session(problem(n, 2), spec);
    exercise(session);
    EXPECT_GE(aligned_live_bytes() - baseline,
              dim_of(n) * sizeof(double) +
                  session.batch().pool_size() * dim_of(n) *
                      amplitude_bytes(session.simulator().precision()));
    diagonal = session.cost_diagonal().data();
    slot = first_amplitude(session.batch().scratch_slot());
  }
  EXPECT_TRUE(unmapped(diagonal)) << "session diagonal";
  EXPECT_TRUE(unmapped(slot)) << "session pool slot";
  EXPECT_EQ(aligned_live_bytes(), baseline) << "session";

  const TermList terms = problem(n, 3);
  const FurQaoaSimulator sim(terms, {});
  const std::uint64_t with_sim = aligned_live_bytes();
  {
    const BatchEvaluator evaluator(sim);
    BatchOptions opts;
    opts.parallelism = BatchParallelism::Outer;
    opts.sample_shots = 16;
    (void)evaluator.evaluate(
        schedules(static_cast<int>(evaluator.pool_size()), 4), opts);
    EXPECT_GT(aligned_live_bytes(), with_sim);
    slot = first_amplitude(evaluator.scratch_slot());
  }
  EXPECT_TRUE(unmapped(slot)) << "batch pool slot";
  EXPECT_EQ(aligned_live_bytes(), with_sim) << "batch evaluator";

  {
    // Room for one session: building the second evicts the first.
    const std::uint64_t one = [&] {
      const api::ProblemSession probe(problem(n, 4), spec);
      return serve::session_footprint_bytes(probe);
    }();
    serve::SessionCache cache(one + one / 2);
    std::uint64_t with_first = 0;
    {
      serve::SessionLease lease = cache.checkout(problem(n, 5), spec);
      exercise(lease.session());
      diagonal = lease->cost_diagonal().data();
      slot = first_amplitude(lease->batch().scratch_slot());
      with_first = aligned_live_bytes();
    }
    serve::SessionLease lease = cache.checkout(problem(n, 6), spec);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(unmapped(diagonal)) << "evicted diagonal";
    EXPECT_TRUE(unmapped(slot)) << "evicted pool slot";
    exercise(lease.session());
    // Same shape, so the survivor holds what the evicted one held.
    EXPECT_EQ(aligned_live_bytes(), with_first) << "serve-cache eviction";
  }
  EXPECT_EQ(aligned_live_bytes(), with_sim) << "serve cache";
}

/// Resident bytes of this process, or -1 without /proc.
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0, resident = -1;
  if (!(statm >> size >> resident)) return -1;
  return resident * ::sysconf(_SC_PAGESIZE);
}

TEST(AlignedBuffers, EvictedSessionsLeaveTheProcess) {
  if (resident_bytes() < 0) GTEST_SKIP() << "no /proc/self/statm";
  const int n = 20;  // 8 MiB diagonal, 16 MiB f64 states
  const SimulatorSpec spec = SimulatorSpec::parse("auto");
  // Budget below one session: every check-in evicts eagerly.
  serve::SessionCache cache(1);
  // Twice: a heap allocator that raises its mmap threshold to a freed
  // mapped chunk's size (glibc does) gives the first session's pages back
  // but keeps the second's.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    std::int64_t held = 0;
    std::uint64_t footprint = 0;
    {
      serve::SessionLease lease = cache.checkout(problem(n, 10 + round), spec);
      (void)lease->evaluate(schedules(1, 7).front());
      // The diagonal and pool slot 0, both written in full.
      footprint = dim_of(n) * (sizeof(double) +
                               amplitude_bytes(lease->simulator().precision()));
      held = resident_bytes();
    }
    const std::int64_t after = resident_bytes();
    EXPECT_EQ(cache.stats().sessions, 0u);
    EXPECT_GE(held - after, static_cast<std::int64_t>(footprint * 3 / 4))
        << "resident " << held << " B with the session, " << after
        << " B after its eviction; it held " << footprint << " B";
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(AlignedBuffers, UnwrittenDiagonalsAreWrittenInFull) {
  // Above the threshold: nothing zeroes these buffers, so an element the
  // writer skipped would read 0 (a fresh mapping) or stale heap bytes.
  for (const int n : {17, 18}) {
    SCOPED_TRACE(n);
    const TermList terms = problem(n, 20 + n);
    std::vector<double> expected(dim_of(n));
    for (std::uint64_t x = 0; x < expected.size(); ++x)
      expected[x] = terms.evaluate(x);
    const auto check = [&](const char* who, auto value_at) {
      for (std::uint64_t x = 0; x < expected.size(); ++x)
        ASSERT_EQ(bits(value_at(x)), bits(expected[x]))
            << who << " x=" << x << ": " << value_at(x) << " vs "
            << expected[x];
    };
    for (const Exec exec : {Exec::Serial, Exec::Parallel}) {
      const CostDiagonal d = CostDiagonal::precompute(terms, exec);
      check(exec == Exec::Serial ? "precompute serial" : "precompute",
            [&](std::uint64_t x) { return d[x]; });
    }
    const CostDiagonal f = CostDiagonal::from_function(
        n, [&](std::uint64_t x) { return terms.evaluate(x); });
    check("from_function", [&](std::uint64_t x) { return f[x]; });
    for (const int ranks : {2, 4}) {
      const DistributedFurSimulator dist(terms, {.ranks = ranks});
      const CostDiagonal& d = dist.get_cost_diagonal();
      check(ranks == 2 ? "dist:2" : "dist:4",
            [&](std::uint64_t x) { return d[x]; });
    }
    const DiagonalU16 codes =
        DiagonalU16::encode(CostDiagonal::precompute(terms));
    ASSERT_TRUE(codes.is_exact());
    check("u16", [&](std::uint64_t x) { return codes.decode(x); });
  }
}

TEST(AlignedBuffers, ZeroStateIsZeroAboveAndBelowTheThreshold) {
  // StateVector(n, prec) writes its zeros itself. A same-size state
  // dropped first leaves dirty bytes for a heap block to hand back.
  for (const int n : {10, 17, 18})
    for (const Precision prec : {Precision::F64, Precision::F32}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " f"
                                        << precision_bits(prec));
      (void)StateVector::plus_state(n, prec);
      const StateVector zero(n, prec);
      ASSERT_EQ(zero.size(), dim_of(n));
      for (std::uint64_t x = 0; x < zero.size(); ++x)
        ASSERT_EQ(zero.at(x), cdouble(0.0, 0.0)) << "x=" << x;
    }
}

}  // namespace
}  // namespace qokit
