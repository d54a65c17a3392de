#include "dist/dist_fur.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <string>
#include <utility>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "fur/mixers.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/sk.hpp"
#include "support/unfused_oracle.hpp"

namespace qokit {
namespace {

TEST(VirtualRankWorld, RunsEveryRankExactlyOnce) {
  VirtualRankWorld world(8);
  std::vector<std::atomic<int>> hits(8);
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 8);
    hits[comm.rank()]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(VirtualRankWorld, RejectsNonPowerOfTwo) {
  EXPECT_THROW(VirtualRankWorld(3), std::invalid_argument);
  EXPECT_THROW(VirtualRankWorld(0), std::invalid_argument);
}

TEST(VirtualRankWorld, PropagatesExceptions) {
  VirtualRankWorld world(1);
  EXPECT_THROW(
      world.run([](Communicator&) { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

TEST(VirtualRankWorld, AllreduceSumsAcrossRanks) {
  VirtualRankWorld world(4);
  world.run([&](Communicator& comm) {
    const double total = comm.allreduce_sum(comm.rank() + 1.0);
    EXPECT_DOUBLE_EQ(total, 1.0 + 2.0 + 3.0 + 4.0);
    // Reusable immediately afterwards.
    const double again = comm.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(again, 4.0);
  });
}

class AlltoallTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AlltoallTest, RealizesBlockTranspose) {
  const auto [k, block] = GetParam();
  VirtualRankWorld world(k);
  // Rank r block b element e tagged r*10000 + b*100 + e; after alltoall
  // rank r's block b must hold what rank b sent in block r.
  std::vector<std::vector<cdouble>> bufs(k);
  world.run([&](Communicator& comm) {
    auto& mine = bufs[comm.rank()];
    mine.resize(static_cast<std::size_t>(k) * block);
    for (int b = 0; b < k; ++b)
      for (int e = 0; e < block; ++e)
        mine[b * block + e] =
            cdouble(comm.rank() * 10000.0 + b * 100.0 + e, 0.0);
    comm.alltoall(mine.data(), block);
  });
  for (int r = 0; r < k; ++r)
    for (int b = 0; b < k; ++b)
      for (int e = 0; e < block; ++e)
        EXPECT_EQ(bufs[r][b * block + e].real(), b * 10000.0 + r * 100.0 + e)
            << "rank " << r << " block " << b;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlltoallTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 3, 16)));

class DistMixerTest : public ::testing::TestWithParam<int> {};

TEST_P(DistMixerTest, DistributedMixerEqualsSingleNode) {
  const int k = GetParam();
  const int n = 8;
  const double beta = 0.67;
  Rng rng(7);
  StateVector expected(n);
  for (std::uint64_t x = 0; x < expected.size(); ++x)
    expected[x] = cdouble(rng.normal(), rng.normal());
  expected.normalize();
  StateVector distributed = expected;

  apply_mixer_x(expected, beta, Exec::Serial);

  VirtualRankWorld world(k);
  const std::uint64_t chunk = distributed.size() / k;
  cdouble* data = distributed.data();
  world.run([&](Communicator& comm) {
    testing::dist_mixer_x(comm, data + comm.rank() * chunk, chunk, n, beta);
  });
  EXPECT_LT(distributed.max_abs_diff(expected), 1e-12)
      << "K=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistMixerTest,
                         ::testing::Values(1, 2, 4, 8, 16));

class DistSimulatorTest : public ::testing::TestWithParam<int> {};

TEST_P(DistSimulatorTest, MatchesSingleNodeSimulator) {
  // Bit for bit: the ranks run the single-node per-amplitude arithmetic
  // in the single-node qubit order, and the exchanges only move data.
  // Both simulators are built directly at f64, so QOKIT_PREC does not
  // reach them.
  const int k = GetParam();
  const TermList terms = labs_terms(9);
  const std::vector<double> gs{0.3, -0.2}, bs{0.8, 0.4};

  const FurQaoaSimulator single(terms, {.exec = Exec::Serial});
  const DistributedFurSimulator multi(terms, {.ranks = k});
  const StateVector a = single.simulate_qaoa(gs, bs);
  const StateVector b = multi.simulate_qaoa(gs, bs);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
  EXPECT_NEAR(single.get_expectation(a), multi.get_expectation(b), 1e-9);
}

TEST_P(DistSimulatorTest, NoGatherExpectationAgrees) {
  const int k = GetParam();
  const TermList terms = maxcut_terms(Graph::random_regular(8, 3, 3));
  const std::vector<double> gs{0.5}, bs{0.9};
  const DistributedFurSimulator sim(terms, {.ranks = k});
  const double direct = sim.simulate_and_expectation(gs, bs);
  const double via_gather = sim.get_expectation(sim.simulate_qaoa(gs, bs));
  EXPECT_NEAR(direct, via_gather, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistSimulatorTest,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(DistSimulator, PrecomputedDiagonalMatchesSingleNode) {
  // Bit for bit, on SK's non-integer weights. n=4 on 4 ranks gives four
  // 4-amplitude slices, three of which start inside a 16-amplitude block.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const auto& [n, ranks] : {std::pair{10, 1}, {10, 2}, {10, 4},
                                 {10, 8}, {4, 4}, {4, 2}, {6, 8}}) {
    const TermList terms = sk_terms(n, 13);
    const DistributedFurSimulator sim(terms, {.ranks = ranks});
    const CostDiagonal ref = CostDiagonal::precompute(terms);
    ASSERT_EQ(sim.get_cost_diagonal().size(), ref.size());
    for (std::uint64_t x = 0; x < ref.size(); ++x) {
      ASSERT_EQ(bits(sim.get_cost_diagonal()[x]), bits(ref[x]))
          << "n=" << n << " ranks=" << ranks << " x=" << x;
      ASSERT_EQ(bits(ref[x]), bits(terms.evaluate(x))) << "x=" << x;
    }
  }
}

TEST(DistSimulator, RejectsTooManyRanks) {
  // 2 * log2(K) <= n: K = 16 needs n >= 8.
  EXPECT_THROW(
      DistributedFurSimulator(labs_terms(7), {.ranks = 16}),
      std::invalid_argument);
  EXPECT_NO_THROW(DistributedFurSimulator(labs_terms(8), {.ranks = 16}));
  // Every rank is a thread: above kMaxRanks the constructor refuses, even
  // where n >= 2*log2(K), before a thread starts or the diagonal allocates.
  const std::uint64_t before = aligned_allocation_count();
  try {
    const DistributedFurSimulator sim(labs_terms(14), {.ranks = 128});
    ADD_FAILURE() << "constructed a 128-rank simulator";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cap of " +
                                         std::to_string(kMaxRanks)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(aligned_allocation_count(), before);
}

TEST(DistSimulator, RejectsNonPowerOfTwoRanks) {
  EXPECT_THROW(DistributedFurSimulator(labs_terms(8), {.ranks = 5}),
               std::invalid_argument);
}

TEST(DistSimulator, OverlapMatchesSingleNode) {
  const TermList terms = labs_terms(8);
  const std::vector<double> gs{0.4}, bs{0.6};
  const FurQaoaSimulator single(terms, {});
  const DistributedFurSimulator multi(terms, {.ranks = 4});
  EXPECT_NEAR(single.get_overlap(single.simulate_qaoa(gs, bs)),
              multi.get_overlap(multi.simulate_qaoa(gs, bs)), 1e-10);
}

}  // namespace
}  // namespace qokit
