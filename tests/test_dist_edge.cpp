// Alltoall and virtual-rank-world edge cases: the K=1 degenerate world,
// the K = 2^(n/2) extreme where each exchange block is a single amplitude,
// a rank that dies mid-exchange, and scheduling-independence
// (determinism) of world results.
#include <gtest/gtest.h>

#include <vector>

#include "api/qokit.hpp"
#include "common/rng.hpp"
#include "dist/dist_fur.hpp"
#include "problems/labs.hpp"

namespace qokit {
namespace {

TEST(AlltoallEdge, SingleRankExchangeIsANoOp) {
  VirtualRankWorld world(1);
  std::vector<cdouble> buf(64);
  Rng rng(11);
  for (auto& v : buf) v = cdouble(rng.normal(), rng.normal());
  const auto original = buf;
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 1);
    comm.alltoall(buf.data(), 64);  // one rank, one block: identity
    comm.alltoall(buf.data(), 8);   // block size must not matter
  });
  EXPECT_EQ(buf, original);
}

TEST(AlltoallEdge, SingleAmplitudeBlocksAtMaximumRankCount) {
  // K = 2^n ranks over a 2^(2n)-element buffer per rank is the simulator's
  // K = 2^(n/2) extreme: every exchanged block is exactly one amplitude.
  const int k = 16;
  VirtualRankWorld world(k);
  std::vector<std::vector<cdouble>> bufs(k);
  world.run([&](Communicator& comm) {
    auto& mine = bufs[comm.rank()];
    mine.resize(k);
    for (int b = 0; b < k; ++b)
      mine[b] = cdouble(comm.rank(), b);
    comm.alltoall(mine.data(), 1);
  });
  for (int r = 0; r < k; ++r)
    for (int b = 0; b < k; ++b)
      EXPECT_EQ(bufs[r][b], cdouble(b, r)) << "rank " << r;
}

TEST(AlltoallEdge, RepeatedRunsAreSchedulingIndependent) {
  // The world spawns real threads; results must not depend on how the OS
  // schedules them. Exact equality across repeats is the check.
  const TermList terms = labs_terms(8);
  const std::vector<double> g{0.37, -0.21}, b{0.82, 0.44};
  const DistributedFurSimulator sim(terms, {.ranks = 8});
  const StateVector first = sim.simulate_qaoa(g, b);
  const auto expectation = [&] {
    StateVector state = sim.initial_state();
    return sim.simulate_qaoa_expectation(state, g, b);
  };
  const double e_first = expectation();
  for (int repeat = 0; repeat < 5; ++repeat) {
    EXPECT_EQ(sim.simulate_qaoa(g, b).max_abs_diff(first), 0.0) << repeat;
    EXPECT_EQ(expectation(), e_first) << repeat;
  }
}

TEST(DistEdge, MaximumRankCountSimulatorMatchesSingleNode) {
  // n = 8, K = 16: 2*log2(K) == n, the tightest shard the constructor
  // accepts; each rank owns 16 amplitudes and exchanges 1-amplitude blocks.
  const TermList terms = labs_terms(8);
  const std::vector<double> g{0.3, -0.4}, b{0.7, 0.2};
  const FurQaoaSimulator single(terms, {.exec = Exec::Serial});
  const StateVector ref = single.simulate_qaoa(g, b);
  const DistributedFurSimulator sim(terms, {.ranks = 16});
  EXPECT_LT(sim.simulate_qaoa(g, b).max_abs_diff(ref), 1e-12);
}

TEST(DistEdge, ThrowingRankDoesNotWedgeOrCrashSurvivors) {
  // One rank dies before ever publishing an exchange window; the others
  // proceed into a collective. Survivors must abandon the exchange (not
  // dereference the dead rank's window, not deadlock) and the world must
  // re-throw the original exception after the join.
  VirtualRankWorld world(4);
  std::vector<std::vector<cdouble>> bufs(4);
  EXPECT_THROW(world.run([&](Communicator& comm) {
    if (comm.rank() == 0) throw std::runtime_error("rank 0 down");
    auto& mine = bufs[comm.rank()];
    mine.resize(4 * 8);
    comm.alltoall(mine.data(), 8);
  }),
               std::runtime_error);
}

TEST(DistEdge, ApiSimulatorSpellingsRouteToDistributedBackend) {
  const std::vector<double> g{0.3, -0.2}, b{0.8, 0.4};
  const auto ref = api::qaoa_labs_evaluate(10, g, b, "serial");
  for (const char* name : {"dist", "dist:1", "dist:4", "dist:ranks=4",
                           "dist:4:seed=3"}) {
    const auto r = api::qaoa_labs_evaluate(10, g, b, name);
    EXPECT_NEAR(r.expectation, ref.expectation, 1e-10) << name;
    EXPECT_NEAR(r.ground_overlap, ref.ground_overlap, 1e-10) << name;
  }
  for (const char* name :
       {"dist:", "dist:x", "dist:4:", "dist:4:bogus", "dist:4:pairwise",
        "dist:3", "dist:0", "dist:-2", "dist: 4", "distant"}) {
    EXPECT_THROW((void)api::qaoa_labs_evaluate(10, g, b, name),
                 std::invalid_argument)
        << name;
  }
}

}  // namespace
}  // namespace qokit
