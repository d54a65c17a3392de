// Schedule-server acceptance tests (src/serve/): protocol framing and
// malformed-frame rejection, bounded work-queue semantics, session-cache
// hit/miss/LRU-eviction/exclusive-checkout behavior, queue-full
// backpressure, the ProblemSession reentrancy guard, and multi-threaded
// soak runs -- in-process and over the AF_UNIX socket -- whose results
// must be bit-identical to direct session evaluation. The tsan CI leg
// runs this whole file under -fsanitize=thread.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "problems/graph.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session_cache.hpp"
#include "serve/work_queue.hpp"
#include "support/threads.hpp"

namespace qokit::serve {
namespace {

std::vector<QaoaParams> random_schedules(int count, int p,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QaoaParams> schedules(count);
  for (QaoaParams& s : schedules) {
    s.gammas.resize(p);
    s.betas.resize(p);
    for (int l = 0; l < p; ++l) {
      s.gammas[l] = rng.uniform(-0.6, 0.6);
      s.betas[l] = rng.uniform(-0.9, 0.9);
    }
  }
  return schedules;
}

TermList test_problem(int n, std::uint64_t seed) {
  return maxcut_terms(Graph::random_regular(n, 3, seed));
}

std::uint64_t precomputes_total() {
  for (const auto& [name, value] : obs::snapshot().counters)
    if (name == "qokit_precomputes_total") return value;
  return 0;
}

Request make_request(int n, std::uint64_t problem_seed,
                     const std::vector<QaoaParams>& schedules) {
  Request request;
  request.terms = test_problem(n, problem_seed);
  request.schedules = schedules;
  return request;
}

// ------------------------------------------------------------ protocol

TEST(ServeProtocol, RequestRoundTrips) {
  Request request;
  request.terms = test_problem(8, 1);
  request.spec = SimulatorSpec::parse("u16:seed=7");
  request.schedules = random_schedules(3, 2, 11);
  request.schedules.push_back(QaoaParams{});  // empty schedule survives too
  request.expectation = true;
  request.overlap = true;
  request.overlap_weight = 4;

  const std::vector<std::uint8_t> frame = encode_request(request);
  const FrameHeader header = decode_frame_header(frame);
  EXPECT_EQ(header.type, FrameType::Request);
  EXPECT_EQ(header.payload_len, frame.size() - kFrameHeaderBytes);
  const Request back = decode_request(
      std::span<const std::uint8_t>(frame).subspan(kFrameHeaderBytes));

  EXPECT_EQ(back.terms.num_qubits(), request.terms.num_qubits());
  EXPECT_EQ(back.terms.terms(), request.terms.terms());
  EXPECT_EQ(back.spec, request.spec);
  ASSERT_EQ(back.schedules.size(), request.schedules.size());
  for (std::size_t i = 0; i < back.schedules.size(); ++i) {
    EXPECT_EQ(back.schedules[i].gammas, request.schedules[i].gammas);
    EXPECT_EQ(back.schedules[i].betas, request.schedules[i].betas);
  }
  EXPECT_EQ(back.expectation, request.expectation);
  EXPECT_EQ(back.overlap, request.overlap);
  EXPECT_EQ(back.overlap_weight, request.overlap_weight);
}

TEST(ServeProtocol, ResponseRoundTrips) {
  Response response;
  response.status = Status::BadRequest;
  response.cache_hit = true;
  response.expectations = {1.5, -2.25, 0.0};
  response.overlaps = {0.125};
  response.error = "why it failed";
  response.queue_ns = 123;
  response.eval_ns = 456789;

  const std::vector<std::uint8_t> frame = encode_response(response);
  const FrameHeader header = decode_frame_header(frame);
  EXPECT_EQ(header.type, FrameType::Response);
  const Response back = decode_response(
      std::span<const std::uint8_t>(frame).subspan(kFrameHeaderBytes));

  EXPECT_EQ(back.status, response.status);
  EXPECT_EQ(back.cache_hit, response.cache_hit);
  EXPECT_EQ(back.expectations, response.expectations);
  EXPECT_EQ(back.overlaps, response.overlaps);
  EXPECT_EQ(back.error, response.error);
  EXPECT_EQ(back.queue_ns, response.queue_ns);
  EXPECT_EQ(back.eval_ns, response.eval_ns);
}

TEST(ServeProtocol, RejectsMalformedFrames) {
  Request request = make_request(6, 1, random_schedules(1, 1, 2));
  std::vector<std::uint8_t> frame = encode_request(request);

  // Header-level violations.
  EXPECT_THROW(
      (void)decode_frame_header(std::span<const std::uint8_t>(frame).first(8)),
      ProtocolError);
  {
    std::vector<std::uint8_t> bad = frame;
    bad[0] ^= 0xFF;  // magic
    EXPECT_THROW((void)decode_frame_header(bad), ProtocolError);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    bad[4] = 0xFF;  // version
    EXPECT_THROW((void)decode_frame_header(bad), ProtocolError);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    bad[6] = 9;  // type
    EXPECT_THROW((void)decode_frame_header(bad), ProtocolError);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    const std::uint64_t huge = kMaxFramePayload + 1;
    std::memcpy(bad.data() + 8, &huge, sizeof huge);
    EXPECT_THROW((void)decode_frame_header(bad), ProtocolError);
  }

  // Payload-level violations: every truncation of the payload must throw,
  // never crash or read out of bounds.
  const std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(frame).subspan(kFrameHeaderBytes);
  for (std::size_t keep = 0; keep < payload.size(); ++keep)
    EXPECT_THROW((void)decode_request(payload.first(keep)), ProtocolError)
        << "truncated to " << keep << " bytes";
  {
    std::vector<std::uint8_t> padded(payload.begin(), payload.end());
    padded.push_back(0);  // trailing garbage
    EXPECT_THROW((void)decode_request(padded), ProtocolError);
  }
  {
    // A count prefix promising more elements than the payload holds.
    std::vector<std::uint8_t> lying(payload.begin(), payload.end());
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(lying.data() + 4, &huge, sizeof huge);  // num_terms
    EXPECT_THROW((void)decode_request(lying), ProtocolError);
  }
  // An unparseable spec token is NOT a framing error: the frame is intact,
  // the content is wrong -- std::invalid_argument naming the token, mapped
  // to BadRequest. "fwht" is a removed backend name: an old client sending
  // it gets the same typed refusal.
  for (const std::string corrupt : {"zuto", "fwht"}) {
    std::vector<std::uint8_t> encoded = encode_request(request);
    // Overwrite the spec string's backend in place ("auto" -> corrupt).
    const std::string spelled = request.spec.to_string();
    ASSERT_EQ(spelled.substr(0, 4), "auto");
    const std::vector<std::uint8_t>::iterator at = std::search(
        encoded.begin(), encoded.end(), spelled.begin(), spelled.end());
    ASSERT_NE(at, encoded.end());
    std::copy(corrupt.begin(), corrupt.end(), at);
    try {
      (void)decode_request(
          std::span<const std::uint8_t>(encoded).subspan(kFrameHeaderBytes));
      ADD_FAILURE() << "decode_request accepted spec '" << corrupt << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(corrupt), std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------------ work queue

TEST(ServeWorkQueue, BoundedFifoWithBackpressure) {
  WorkQueue<int> queue(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(queue.try_push(std::move(a)));
  EXPECT_TRUE(queue.try_push(std::move(b)));
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_FALSE(queue.try_push(std::move(c)));  // full: rejected, not queued
  EXPECT_EQ(queue.depth(), 2u);

  EXPECT_EQ(queue.pop(), std::optional<int>(1));  // FIFO
  EXPECT_TRUE(queue.try_push(std::move(c)));      // freed a slot
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(3));

  int d = 4;
  queue.try_push(std::move(d));
  queue.close();
  int e = 5;
  EXPECT_FALSE(queue.try_push(std::move(e)));     // closed: rejected
  EXPECT_EQ(queue.pop(), std::optional<int>(4));  // drains after close
  EXPECT_EQ(queue.pop(), std::nullopt);           // then signals exit
}

TEST(ServeWorkQueue, ManyProducersManyConsumers) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 250;
  WorkQueue<int> queue(16);
  std::atomic<int> accepted{0};
  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};

  std::vector<std::thread> consumers;
  for (int i = 0; i < kConsumers; ++i)
    consumers.emplace_back([&] {
      while (std::optional<int> v = queue.pop()) {
        consumed_sum.fetch_add(*v);
        consumed_count.fetch_add(1);
      }
    });
  std::vector<std::thread> producers;
  std::atomic<long long> accepted_sum{0};
  for (int t = 0; t < kProducers; ++t)
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = t * kPerProducer + i;
        if (queue.try_push(std::move(value))) {
          accepted.fetch_add(1);
          accepted_sum.fetch_add(t * kPerProducer + i);
        }
      }
    });
  for (std::thread& t : producers) t.join();
  queue.close();
  for (std::thread& t : consumers) t.join();

  // Everything accepted was consumed exactly once, nothing was invented.
  EXPECT_EQ(consumed_count.load(), accepted.load());
  EXPECT_EQ(consumed_sum.load(), accepted_sum.load());
  EXPECT_EQ(queue.depth(), 0u);
}

// ------------------------------------------------------------ cache

TEST(ServeSessionCache, HitsMissesAndCollisionSafety) {
  SessionCache cache(std::uint64_t{1} << 30);
  const TermList problem_a = test_problem(6, 1);
  const TermList problem_b = test_problem(6, 2);
  const SimulatorSpec spec = SimulatorSpec::parse("serial");

  {
    SessionLease first = cache.checkout(problem_a, spec);
    EXPECT_FALSE(first.hit());
    EXPECT_EQ(first->num_qubits(), 6);
  }
  {
    SessionLease again = cache.checkout(problem_a, spec);
    EXPECT_TRUE(again.hit());
  }
  {
    // Different problem and different spec each get their own session.
    SessionLease other = cache.checkout(problem_b, spec);
    EXPECT_FALSE(other.hit());
    SessionLease respec =
        cache.checkout(problem_a, SimulatorSpec::parse("u16"));
    EXPECT_FALSE(respec.hit());
  }
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.sessions, 3u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GE(stats.bytes, 3 * session_footprint_bytes(6, 1));
}

TEST(ServeSessionCache, EqualSpellingsShareOneSession) {
  // auto, auto:prec=f64 and serial:exec=parallel all parse to the default
  // spec, so the cache builds one session (one precompute) for them.
  SessionCache cache(std::uint64_t{1} << 30);
  for (const char* name : {"auto", "auto:prec=f64", "serial:exec=parallel"})
    cache.checkout(labs_terms(10), SimulatorSpec::parse(name)).release();
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().sessions, 1u);
}

TEST(ServeSessionCache, ExclusiveCheckoutBlocksSecondCaller) {
  SessionCache cache(std::uint64_t{1} << 30);
  const TermList problem = test_problem(6, 1);
  const SimulatorSpec spec = SimulatorSpec::parse("serial");

  std::atomic<bool> holder_ready{false};
  std::atomic<bool> released{false};
  std::thread holder([&] {
    SessionLease lease = cache.checkout(problem, spec);
    holder_ready.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released.store(true);
    lease.release();
  });
  while (!holder_ready.load()) std::this_thread::yield();
  // This checkout must block until the holder releases; `released` being
  // set before checkout() returns is the ordering witness.
  SessionLease lease = cache.checkout(problem, spec);
  EXPECT_TRUE(released.load());
  EXPECT_TRUE(lease.hit());
  holder.join();
}

TEST(ServeSessionCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  const TermList problem_a = test_problem(6, 1);
  const TermList problem_b = test_problem(6, 2);
  const TermList problem_c = test_problem(6, 3);
  const SimulatorSpec spec = SimulatorSpec::parse("serial");
  // Size the budget from a built session's actual footprint (the same
  // overload the cache charges), so the two-of-three arithmetic holds
  // whatever the pool size at this thread count.
  const std::uint64_t one = [&] {
    const api::ProblemSession probe(problem_a, spec);
    return session_footprint_bytes(probe);
  }();
  // Room for two sessions, not three.
  SessionCache cache(2 * one + one / 2);

  cache.checkout(problem_a, spec).release();
  cache.checkout(problem_b, spec).release();
  cache.checkout(problem_c, spec).release();  // evicts A (the LRU entry)

  SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_LE(stats.bytes, cache.byte_budget());

  // A is gone (miss); B was the next-least-recent and gets evicted by A's
  // re-entry; C stays hot.
  EXPECT_FALSE(cache.checkout(problem_a, spec).hit());
  EXPECT_TRUE(cache.checkout(problem_c, spec).hit());
  EXPECT_FALSE(cache.checkout(problem_b, spec).hit());
}

TEST(ServeSessionCache, CheckedOutSessionsAreNeverEvicted) {
  const TermList problem_a = test_problem(6, 1);
  const TermList problem_b = test_problem(6, 2);
  const SimulatorSpec spec = SimulatorSpec::parse("serial");
  // Budget below even one session: everything idle is evicted eagerly,
  // but a live lease must pin its session.
  SessionCache cache(1);

  SessionLease lease = cache.checkout(problem_a, spec);
  cache.checkout(problem_b, spec).release();  // builds, then evicts itself
  EXPECT_EQ(cache.stats().sessions, 1u);      // A survives: checked out
  const double direct =
      api::ProblemSession(problem_a, spec)
          .evaluate(random_schedules(1, 1, 5)[0])
          .expectation.value();
  EXPECT_EQ(lease->evaluate(random_schedules(1, 1, 5)[0]).expectation.value(),
            direct);
  lease.release();
  EXPECT_EQ(cache.stats().sessions, 0u);  // now the budget applies
}

TEST(ServeSessionCache, BuildFailureLeavesNoResidue) {
  SessionCache cache(std::uint64_t{1} << 30);
  const TermList problem = test_problem(6, 1);
  SimulatorSpec bad = SimulatorSpec::parse("dist");
  bad.ranks = 3;  // rejected by make_simulator (not a power of two)
  EXPECT_THROW((void)cache.checkout(problem, bad), std::invalid_argument);
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.sessions, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  // The slot is reusable afterwards.
  EXPECT_FALSE(cache.checkout(problem, SimulatorSpec::parse("serial")).hit());
}

TEST(ServeSessionCache, BuiltSessionFootprintChargesPlanAndU16Buffers) {
  // Regression: the (n, terms) estimate missed the buffers only a live
  // session reveals -- the LayerPlan's passes and, for u16 specs, the
  // uint16 code array plus the 65536-entry phase table -- so u16 sessions
  // were undercounted by over a MiB and evictions lagged the budget.
  // At f32 the phase table and the statevectors cost half.
  const TermList problem = test_problem(10, 1);
  for (const std::string suffix : {"", ":prec=f32"}) {
    SCOPED_TRACE(suffix);
    const api::ProblemSession u16_session(
        problem, SimulatorSpec::parse("u16" + suffix));
    const Precision prec = u16_session.spec().prec;
    const std::uint64_t base =
        session_footprint_bytes(10, problem.size(), prec);
    const std::uint64_t dim = std::uint64_t{1} << 10;
    EXPECT_GE(session_footprint_bytes(u16_session),
              base + dim * 2 + std::uint64_t{65536} * amplitude_bytes(prec));
    // Plain sessions charge at least the estimate (plus plan).
    const api::ProblemSession plain(problem,
                                    SimulatorSpec::parse("serial" + suffix));
    EXPECT_GE(session_footprint_bytes(plain),
              session_footprint_bytes(10, problem.size(), prec));
  }
}

TEST(ServeSessionCache, FootprintCoversEveryBufferASessionAllocates) {
  // Regression: the charge was a diagonal plus three states (56 B/amp at
  // f64), but in Outer mode a served session fills one pool slot per
  // thread, and it also cached |+> -- at 4 threads it held 88 B/amp. A
  // session's 2^n buffers are its diagonal and its pool, and the charge
  // is the diagonal plus one state per pool slot. Drive a fresh session
  // through evaluate (slot 0), a batch as wide as its pool (every slot:
  // the n = 12 layer is one unit, so it runs Outer on more than one
  // thread) and optimize (the same pool), and hold every aligned byte it
  // allocated to its charge. The pool has one slot per thread here, so
  // the 1-thread and the multi-thread legs each check their own width.
  const int n = 12;
  for (const char* name :
       {"auto", "serial", "auto:prec=f32", "serial:prec=f32"}) {
    SCOPED_TRACE(name);
    const SimulatorSpec spec = SimulatorSpec::parse(name);
    const auto exercise = [](const api::ProblemSession& session) {
      const std::vector<QaoaParams> schedules = random_schedules(
          static_cast<int>(session.batch().pool_size()), 2, 31);
      (void)session.evaluate(schedules.front());
      if (schedules.size() > 1) {
        EXPECT_EQ(session.batch().resolve_parallelism(schedules.size()),
                  BatchParallelism::Outer);
      }
      (void)session.evaluate_batch(schedules);
      api::OptimizerSpec optimizer;
      optimizer.p = 2;
      optimizer.nelder_mead.max_evals = 30;
      (void)session.optimize(optimizer);
    };
    // Per-thread scratch (the fused reduction's partials) is shared by
    // every session on a thread: warm it on another problem first, so
    // only this session's own buffers are counted.
    exercise(api::ProblemSession(test_problem(n, 2), spec));
    const std::uint64_t before = aligned_allocation_bytes();
    const api::ProblemSession session(test_problem(n, 1), spec);
    exercise(session);
    const std::uint64_t allocated = aligned_allocation_bytes() - before;
    EXPECT_LE(allocated, session_footprint_bytes(session));
    // And the pool really was filled: the diagonal plus every slot.
    const std::uint64_t state_bytes = dim_of(n) * amplitude_bytes(spec.prec);
    EXPECT_GE(allocated, dim_of(n) * sizeof(double) +
                             session.batch().pool_size() * state_bytes);
  }
}

TEST(ServeSessionCache, FootprintChargesOneStateWhereBatchesStayInner) {
  // A LABS-18 layer has four tiles, so at four threads every batch runs
  // Inner in one state: the pool has one slot and the charge is the
  // diagonal plus that one state, not one state per thread.
  testing::with_threads(4, [] {
    const TermList terms = labs_terms(18);
    for (const Precision prec : {Precision::F64, Precision::F32}) {
      SCOPED_TRACE(precision_bits(prec));
      SimulatorSpec spec;
      spec.prec = prec;
      const api::ProblemSession session(terms, spec);
      ASSERT_GE(session.simulator().layer_units(), max_threads());
      EXPECT_EQ(session.batch().pool_size(), 1u);
      const std::uint64_t charge = session_footprint_bytes(session);
      EXPECT_GE(charge, session_footprint_bytes(18, terms.size(), prec, 1));
      EXPECT_LT(charge, session_footprint_bytes(18, terms.size(), prec, 2));
    }
  });
}

// ------------------------------------------------------------ server

TEST(ScheduleServer, SoakIsBitIdenticalToDirectSessions) {
  constexpr int kN = 10;
  // Three problems, each at f64 and at f32: six sessions, keyed apart by
  // the spec's precision.
  constexpr int kProblems = 6;
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 24;
  const std::vector<QaoaParams> schedules = random_schedules(3, 2, 7);
  const auto spec_of = [](int problem) {
    return SimulatorSpec::parse(problem % 2 ? "auto:prec=f32" : "auto");
  };

  // Ground truth: direct single-threaded session evaluation per problem.
  std::vector<std::vector<double>> expected(kProblems);
  for (int i = 0; i < kProblems; ++i) {
    const api::ProblemSession session(test_problem(kN, 100 + i / 2),
                                      spec_of(i));
    api::EvalRequest eval;
    eval.expectation = true;
    eval.overlap = true;
    std::vector<double>& out = expected[i];
    for (const api::EvalResult& r : session.evaluate_batch(schedules, eval)) {
      out.push_back(r.expectation.value());
      out.push_back(r.overlap.value());
    }
  }

  // A cache hit must not pay the precompute again: across the server part
  // of the soak, qokit_precomputes_total rises once per problem. The
  // counter only moves with obs on; the previous state is restored below.
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t precomputes_before = precomputes_total();

  ServerConfig config;
  config.workers = 3;
  config.queue_capacity = 1024;
  ScheduleServer server(config);
  std::atomic<int> mismatches{0};
  std::atomic<int> non_ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const int problem = (c + i) % kProblems;
        Request request = make_request(kN, 100 + problem / 2, schedules);
        request.spec = spec_of(problem);
        request.overlap = true;
        const Response response = server.submit_blocking(std::move(request));
        if (response.status != Status::Ok) {
          non_ok.fetch_add(1);
          continue;
        }
        // Bit-identical to the direct session: same code path, same
        // arithmetic -- EXPECT exact equality, not tolerance.
        for (std::size_t s = 0; s < schedules.size(); ++s) {
          if (response.expectations[s] != expected[problem][2 * s] ||
              response.overlaps[s] != expected[problem][2 * s + 1])
            mismatches.fetch_add(1);
        }
      }
    });
  for (std::thread& t : clients) t.join();
  const std::uint64_t precomputes = precomputes_total() - precomputes_before;
  obs::set_enabled(obs_was_enabled);

  EXPECT_EQ(non_ok.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(precomputes, static_cast<std::uint64_t>(kProblems));
  const SessionCache::Stats stats = server.cache_stats();
  // One precompute per problem, everything else cache hits.
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kProblems));
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(
                            kClients * kRequestsPerClient - kProblems));
  server.shutdown();
}

TEST(ScheduleServer, SocketSoakIsBitIdenticalToDirectSessions) {
  constexpr int kN = 8;
  constexpr int kClients = 2;
  constexpr int kRequestsPerClient = 10;
  const std::vector<QaoaParams> schedules = random_schedules(2, 2, 9);
  // Requests alternate between the f64 and the f32 simulator.
  const std::vector<SimulatorSpec> specs = {
      SimulatorSpec::parse("auto"), SimulatorSpec::parse("auto:prec=f32")};
  std::vector<std::vector<double>> expected;
  for (const SimulatorSpec& spec : specs) {
    const api::ProblemSession direct(test_problem(kN, 42), spec);
    std::vector<double>& out = expected.emplace_back();
    for (const api::EvalResult& r : direct.evaluate_batch(schedules))
      out.push_back(r.expectation.value());
  }

  ServerConfig config;
  config.workers = 2;
  config.listen_path = "qokit_serve_test.sock";
  ScheduleServer server(config);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      Client client(server.config().listen_path);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Request request = make_request(kN, 42, schedules);
        request.spec = specs[i % 2];
        const Response response = client.call(std::move(request));
        if (response.status != Status::Ok ||
            response.expectations != expected[i % 2])
          failures.fetch_add(1);
      }
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const SessionCache::Stats stats = server.cache_stats();
  // One precompute per spec across both connections.
  EXPECT_EQ(stats.misses, 2u);
  server.shutdown();
}

TEST(ScheduleServer, QueueFullBackpressureRejectsImmediately) {
  ServerConfig config;
  config.workers = 0;  // nothing drains: deterministic backpressure
  config.queue_capacity = 2;
  ScheduleServer server(config);
  const std::vector<QaoaParams> schedules = random_schedules(1, 1, 3);

  std::future<Response> first =
      server.submit(make_request(6, 1, schedules));
  std::future<Response> second =
      server.submit(make_request(6, 1, schedules));
  EXPECT_EQ(server.queue_depth(), 2u);
  // Queue is full: the third request resolves immediately as Overloaded.
  std::future<Response> third =
      server.submit(make_request(6, 1, schedules));
  ASSERT_EQ(third.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const Response rejected = third.get();
  EXPECT_EQ(rejected.status, Status::Overloaded);
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);
  // The queued two are still pending...
  EXPECT_NE(first.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  // ...until shutdown fails them (never drops them silently).
  server.shutdown();
  EXPECT_EQ(first.get().status, Status::ShuttingDown);
  EXPECT_EQ(second.get().status, Status::ShuttingDown);
}

TEST(ScheduleServer, BadRequestsAreReportedNotFatal) {
  ServerConfig config;
  config.workers = 1;
  ScheduleServer server(config);
  // Invalid dist rank count: surfaced as BadRequest naming the value
  // (the satellite validation in make_simulator), server stays up.
  Request bad_ranks = make_request(8, 1, random_schedules(1, 1, 4));
  bad_ranks.spec = SimulatorSpec::parse("dist");
  bad_ranks.spec.ranks = 3;
  const Response r1 = server.submit_blocking(std::move(bad_ranks));
  EXPECT_EQ(r1.status, Status::BadRequest);
  EXPECT_NE(r1.error.find("power of two"), std::string::npos);
  EXPECT_NE(r1.error.find('3'), std::string::npos);

  // No problem at all.
  Request empty;
  empty.schedules = random_schedules(1, 1, 4);
  const Response r2 = server.submit_blocking(std::move(empty));
  EXPECT_EQ(r2.status, Status::BadRequest);

  // The server still serves good requests afterwards.
  const Response ok =
      server.submit_blocking(make_request(8, 1, random_schedules(1, 1, 4)));
  EXPECT_EQ(ok.status, Status::Ok);
  ASSERT_EQ(ok.expectations.size(), 1u);
}

TEST(ScheduleServer, SpecFieldsTheSimulatorIgnoresAreBadRequests) {
  // A spec field the built simulator would ignore, or a config it cannot
  // run (a Dicke weight above n, an xy mixer below its minimum size), is
  // a BadRequest naming it. The build refuses it before the precompute,
  // so no session stays resident and no precompute is paid.
  ServerConfig config;
  config.workers = 1;
  ScheduleServer server(config);
  const TermList eight = test_problem(8, 1);
  const TermList one(1, {{1.0, 0b1}}), two(2, {{1.0, 0b11}});
  struct Case {
    const TermList& terms;
    const char* name;
    const char* what;  ///< what the error must contain
  };
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t precomputes_before = precomputes_total();
  for (const Case c : {Case{eight, "auto:ranks=8", "ranks=8"},
                       Case{eight, "dist:2:exec=serial", "exec=serial"},
                       Case{eight, "auto:weight=3", "weight=3"},
                       Case{eight, "auto:mixer=xyring:weight=99", "weight 99"},
                       Case{two, "auto:mixer=xyring", "n >= 3"},
                       Case{one, "auto:mixer=xycomplete", "n >= 2"}}) {
    Request request;
    request.terms = c.terms;
    request.schedules = random_schedules(1, 1, 4);
    request.spec = SimulatorSpec::parse(c.name);
    const Response r = server.submit_blocking(std::move(request));
    EXPECT_EQ(r.status, Status::BadRequest) << c.name;
    EXPECT_NE(r.error.find(c.what), std::string::npos)
        << c.name << " -> " << r.error;
  }
  const std::uint64_t precomputes = precomputes_total() - precomputes_before;
  obs::set_enabled(obs_was_enabled);
  EXPECT_EQ(precomputes, 0u);
  EXPECT_EQ(server.cache_stats().sessions, 0u);
  EXPECT_EQ(server.cache_stats().bytes, 0u);
  const Response ok =
      server.submit_blocking(make_request(8, 1, random_schedules(1, 1, 4)));
  EXPECT_EQ(ok.status, Status::Ok);
}

TEST(ScheduleServer, OutOfRangeOverlapWeightsAreBadRequestsBeforeTheCache) {
  // The sector must exist (-1 through n): weight n + 1 is refused next to
  // the schedule checks, so no cache miss pays the precompute.
  ServerConfig config;
  config.workers = 1;
  ScheduleServer server(config);
  Request request = make_request(8, 3, random_schedules(2, 1, 4));
  request.overlap = true;
  request.overlap_weight = 9;
  const Response r = server.submit_blocking(request);
  EXPECT_EQ(r.status, Status::BadRequest);
  EXPECT_NE(r.error.find("overlap_weight 9"), std::string::npos) << r.error;
  EXPECT_EQ(server.cache_stats().misses, 0u);
  request.overlap_weight = 8;
  EXPECT_EQ(server.submit_blocking(std::move(request)).overlaps.size(), 2u);
}

TEST(ScheduleServer, OversizedProblemsAreBadRequestsBeforeTheCache) {
  // The wire admits up to 63 qubits. A problem past the state-vector
  // limit, or whose smallest session exceeds the cache budget, is refused
  // before the checkout builds (and allocates) anything.
  ServerConfig config;
  config.workers = 1;
  ScheduleServer server(config);
  for (const int n : {40, 63}) {
    Request request;
    request.terms = TermList(n, {});
    request.terms.add(1.0, {0, n - 1});
    request.schedules = random_schedules(1, 1, 4);
    const Response r = server.submit_blocking(std::move(request));
    EXPECT_EQ(r.status, Status::BadRequest) << n << ": " << r.error;
    EXPECT_NE(r.error.find(std::to_string(n) + " qubits"), std::string::npos)
        << r.error;
  }
  EXPECT_EQ(server.cache_stats().misses, 0u);
  // The footprint saturates instead of wrapping around.
  EXPECT_EQ(session_footprint_bytes(63, 1, Precision::F32),
            std::numeric_limits<std::uint64_t>::max());

  // Within the qubit limit but over the budget. Admission charges the
  // smallest session at the spec's width: with the budget at the f32
  // floor, the default (f64) request is refused, naming its bytes and the
  // budget, and the same problem at prec=f32 is served.
  const std::size_t terms12 = test_problem(12, 1).size();
  ServerConfig small = config;
  small.cache_bytes = session_footprint_bytes(12, terms12, Precision::F32);
  ScheduleServer tight(small);
  Request request = make_request(12, 1, random_schedules(1, 1, 4));
  const Response over = tight.submit_blocking(request);
  EXPECT_EQ(over.status, Status::BadRequest);
  EXPECT_NE(over.error.find(std::to_string(
                session_footprint_bytes(12, terms12, Precision::F64))),
            std::string::npos)
      << over.error;
  EXPECT_NE(over.error.find(std::to_string(small.cache_bytes)),
            std::string::npos)
      << over.error;
  EXPECT_EQ(tight.cache_stats().misses, 0u);
  request.spec = SimulatorSpec::parse("auto:prec=f32");
  EXPECT_EQ(tight.submit_blocking(std::move(request)).status, Status::Ok);
  EXPECT_EQ(tight.cache_stats().misses, 1u);

  // A request that fits, sent to the same server, is still served.
  const Response ok =
      server.submit_blocking(make_request(8, 1, random_schedules(1, 1, 4)));
  EXPECT_EQ(ok.status, Status::Ok) << ok.error;
  EXPECT_EQ(ok.expectations.size(), 1u);
  EXPECT_EQ(server.cache_stats().misses, 1u);
}

TEST(ScheduleServer, NonFiniteAnglesAreBadRequestsBeforeTheCache) {
  ServerConfig config;
  config.workers = 1;
  config.listen_path = "qokit_serve_nonfinite.sock";
  ScheduleServer server(config);
  std::vector<QaoaParams> schedules = random_schedules(2, 2, 31);
  schedules[1].gammas[1] = std::nan("");
  // In process: BadRequest naming the layer, rejected before the session
  // cache checkout, so no precompute was paid.
  const Response r = server.submit_blocking(make_request(8, 5, schedules));
  EXPECT_EQ(r.status, Status::BadRequest);
  EXPECT_NE(r.error.find("gamma at layer 1"), std::string::npos) << r.error;
  EXPECT_EQ(server.cache_stats().misses, 0u);
  {
    // Over the wire: the same answer, and the connection stays open.
    Client client(config.listen_path);
    schedules[1].gammas[1] = 0.3;
    schedules[0].betas[0] = -std::numeric_limits<double>::infinity();
    const Response wire = client.call(make_request(8, 5, schedules));
    EXPECT_EQ(wire.status, Status::BadRequest);
    EXPECT_NE(wire.error.find("beta at layer 0"), std::string::npos)
        << wire.error;
    EXPECT_EQ(server.cache_stats().misses, 0u);
    schedules[0].betas[0] = 0.2;
    const Response ok = client.call(make_request(8, 5, schedules));
    EXPECT_EQ(ok.status, Status::Ok);
    EXPECT_EQ(ok.expectations.size(), 2u);
  }
  EXPECT_EQ(server.cache_stats().misses, 1u);
  server.shutdown();
}

TEST(ScheduleServer, OverflowingPhasesAreBadRequests) {
  // A finite gamma whose product with the terms' sum of |weight| (a bound
  // on every |cost|) overflows is refused before the cache checkout:
  // BadRequest naming the layer, with no miss paid and no session left
  // resident.
  ServerConfig config;
  config.workers = 1;
  ScheduleServer server(config);
  Request request;
  request.terms = labs_terms(10);
  request.schedules = random_schedules(2, 2, 41);
  request.schedules[1].gammas = {0.2, 1e308};
  const Response r = server.submit_blocking(request);
  EXPECT_EQ(r.status, Status::BadRequest);
  EXPECT_NE(r.error.find("layer 1"), std::string::npos) << r.error;
  EXPECT_TRUE(r.expectations.empty());
  EXPECT_EQ(server.cache_stats().misses, 0u);
  // Nothing was checked out, so the good schedule's request is the miss.
  request.schedules.pop_back();
  const Response ok = server.submit_blocking(request);
  ASSERT_EQ(ok.status, Status::Ok) << ok.error;
  ASSERT_EQ(ok.expectations.size(), 1u);
  EXPECT_TRUE(std::isfinite(ok.expectations[0]));
  EXPECT_FALSE(ok.cache_hit);
  EXPECT_EQ(server.cache_stats().misses, 1u);
  server.shutdown();
}

TEST(ScheduleServer, NonFiniteWeightsAreBadRequestsBeforeTheCache) {
  // LABS-6 plus one term of weight NaN or +inf has no finite diagonal.
  // Even an empty schedule, which runs no layer, is refused before the
  // checkout instead of answered Ok with a NaN energy.
  ServerConfig config;
  config.workers = 1;
  ScheduleServer server(config);
  for (const double w :
       {std::nan(""), std::numeric_limits<double>::infinity()})
    for (const int p : {0, 1}) {
      Request request;
      request.terms = labs_terms(6);
      request.terms.add(w, {0, 1});
      request.schedules = random_schedules(1, p, 43);
      const Response r = server.submit_blocking(std::move(request));
      EXPECT_EQ(r.status, Status::BadRequest) << w << " p=" << p;
      EXPECT_NE(r.error.find("sum of |weight|"), std::string::npos)
          << r.error;
    }
  EXPECT_EQ(server.cache_stats().misses, 0u);
  EXPECT_EQ(server.cache_stats().sessions, 0u);
  server.shutdown();
}

TEST(ScheduleServer, MalformedSocketBytesGetErrorReplyAndClose) {
  ServerConfig config;
  config.workers = 1;
  config.listen_path = "qokit_serve_malformed.sock";
  ScheduleServer server(config);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config.listen_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
      0);
  // 16 bytes of garbage: a hopeless frame header.
  std::uint8_t garbage[kFrameHeaderBytes];
  std::memset(garbage, 0xFF, sizeof garbage);
  ASSERT_EQ(::write(fd, garbage, sizeof garbage),
            static_cast<ssize_t>(sizeof garbage));

  // The server answers one well-formed error response...
  std::uint8_t header[kFrameHeaderBytes];
  std::size_t got = 0;
  while (got < sizeof header) {
    const ssize_t r = ::read(fd, header + got, sizeof header - got);
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
  const FrameHeader h = decode_frame_header(header);
  EXPECT_EQ(h.type, FrameType::Response);
  std::vector<std::uint8_t> payload(h.payload_len);
  got = 0;
  while (got < payload.size()) {
    const ssize_t r =
        ::read(fd, payload.data() + got, payload.size() - got);
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
  const Response response = decode_response(payload);
  EXPECT_EQ(response.status, Status::BadRequest);
  EXPECT_FALSE(response.error.empty());
  // ...then closes the desynchronized connection.
  std::uint8_t byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);
  server.shutdown();
}

// ------------------------------------------------- session reentrancy

TEST(SessionReentrancyGuard, ConcurrentEntryThrowsLogicError) {
  // The guard turns concurrent entry into std::logic_error. Timing-based:
  // one thread runs a long evaluation while the main thread calls in; if
  // the long call finishes too quickly the depth doubles and we retry.
  std::atomic<bool> tripped{false};
  for (int p = 48; p <= 384 && !tripped.load(); p *= 2) {
    const api::ProblemSession session(test_problem(16, 1));
    const std::vector<QaoaParams> longwork = random_schedules(1, p, 21);
    std::atomic<bool> started{false};
    std::thread long_call([&] {
      started.store(true);
      try {
        (void)session.evaluate(longwork[0]);
      } catch (const std::logic_error&) {
        tripped.store(true);  // the other side won the race: same outcome
      }
    });
    while (!started.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    try {
      (void)session.evaluate(random_schedules(1, 1, 22)[0]);
    } catch (const std::logic_error&) {
      tripped.store(true);
    }
    long_call.join();
  }
  EXPECT_TRUE(tripped.load()) << "concurrent evaluate never overlapped; the "
                          "reentrancy guard was not exercised";
}

TEST(SessionReentrancyGuard, ReleasesAfterThrowAndBetweenCalls) {
  const api::ProblemSession session(test_problem(8, 1));
  const QaoaParams schedule = random_schedules(1, 2, 23)[0];
  // A call that throws INSIDE the guarded scope must release the guard.
  api::OptimizerSpec bad;
  bad.p = 2;
  bad.initial = random_schedules(1, 3, 5)[0];  // depth mismatch -> throws
  EXPECT_THROW((void)session.optimize(bad), std::invalid_argument);
  // Sequential use keeps working (sample routes through evaluate's guard).
  EXPECT_TRUE(session.evaluate(schedule).expectation.has_value());
  EXPECT_EQ(session.sample(schedule, 4).size(), 4u);
}

}  // namespace
}  // namespace qokit::serve
