// The traced run: each workload replayed through the public functions of
// every module, with a span around each call, and checked bit for bit
// against the untraced production result computed in the same process.
//
// Modules and the calls replayed:
//   mem          a streaming triad over arrays totalling >= 4x the LLC
//   diagonal     CostDiagonal::precompute
//   api          the ProblemSession constructor; evaluate / optimize as the
//                untraced production reference
//   pipeline     run_layer / run_layer_expectation over layer_plan()
//   fur          simulate_qaoa_expectation vs simulate_qaoa_from +
//                get_expectation
//   simd         the dispatched kernels over a workload-sized state
//   optimize     nelder_mead_batched over a timing wrapper of
//                ProblemSession::expectations
//   batch        every expectations() submission (resolve_parallelism
//                records the outer/inner choice)
//   protocol     encode_request / decode_request
//   session_cache SessionCache::checkout
//   serve        a socket ScheduleServer answering the replayed requests
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "common/aligned.hpp"
#include "common/parallel.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "diagonal/diagonal_u16.hpp"
#include "fur/simulator.hpp"
#include "optimize/nelder_mead.hpp"
#include "pipeline/layer_exec.hpp"
#include "problems/labs.hpp"
#include "serve/server.hpp"
#include "serve/session_cache.hpp"
#include "simd/kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace qokit;

namespace {

/// What one workload's replay runs.
struct ReplayPlan {
  TermList terms;                 ///< the problem replayed module by module
  QaoaParams schedule;            ///< the production run's first schedule
  api::OptimizerSpec optimizer;   ///< the optimizer replay
  std::vector<serve::Request> requests;  ///< cache / protocol / server replay
  int clients = 1;
  int workers = 2;
  std::uint64_t cache_budget = std::uint64_t{1} << 32;
};

ReplayPlan plan_for(const Config& cfg) {
  ReplayPlan plan;
  if (cfg.workload == "maxcut24_deep") {
    const MaxcutShape shape = maxcut_shape(cfg.smoke);
    plan.terms = maxcut_problem(cfg);
    Rng rng(derive_seed(cfg.seed, kScheduleStream));
    seeded_schedule(rng, 1);  // the production warm-up draw
    plan.schedule = seeded_schedule(rng, shape.p);
    // No optimizer runs in this workload; a small p=1 run exercises the
    // optimize layer on the same problem.
    plan.optimizer.p = 1;
    plan.optimizer.nelder_mead.max_evals = cfg.smoke ? 8 : 12;
    Rng req(derive_seed(cfg.seed, kRequestStream));
    for (int i = 0; i < 3; ++i) {
      serve::Request r;
      r.terms = plan.terms;
      r.schedules.push_back(seeded_schedule(req, 2));
      plan.requests.push_back(std::move(r));
    }
  } else if (cfg.workload == "labs20_optimize") {
    const LabsShape shape = labs_shape(cfg.smoke);
    plan.terms = labs_terms(shape.n);
    plan.optimizer = labs_optimizer(shape);
    plan.schedule = plan.optimizer.initial;
    for (int i = 0; i < 3; ++i) {
      serve::Request r;
      r.terms = plan.terms;
      r.schedules.push_back(plan.schedule);
      plan.requests.push_back(std::move(r));
    }
  } else {
    const ServeTraffic traffic(cfg);
    const ServeShape& shape = traffic.shape();
    plan.terms = traffic.pool()[static_cast<std::size_t>(traffic.popular(0))];
    Rng rng(derive_seed(cfg.seed, kScheduleStream));
    plan.schedule = seeded_schedule(rng, shape.p);
    plan.optimizer.p = shape.p;
    plan.optimizer.nelder_mead.max_evals = cfg.smoke ? 20 : 60;
    // The clients' request streams, interleaved.
    std::vector<Rng> streams;
    for (int c = 0; c < shape.clients; ++c)
      streams.push_back(traffic.client_stream(c));
    const int count = cfg.smoke ? 12 : 160;
    for (int i = 0; i < count; ++i)
      plan.requests.push_back(
          traffic.next(streams[static_cast<std::size_t>(i % shape.clients)])
              .second);
    plan.clients = shape.clients;
    plan.workers = shape.workers;
    plan.cache_budget = traffic.cache_budget();
  }
  return plan;
}

/// Run `f` `reps` times, one span each under `parent`; median in ms.
template <class F>
double median_ms(SpanRecorder& rec, const char* name, int parent, int reps,
                 F f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span(rec, name, parent, r);
    f();
    ms.push_back(span.stop() * 1e3);
  }
  return median(ms);
}

/// Streaming triad a = b + 3c over three arrays of `total_bytes` in all;
/// the median of `reps` sweeps, in GB/s (3 arrays moved per sweep).
double stream_triad_gbps(std::uint64_t total_bytes, int reps) {
  const auto len = static_cast<std::int64_t>(total_bytes / (3 * sizeof(double)));
  const auto a = std::make_unique_for_overwrite<double[]>(len);
  const auto b = std::make_unique_for_overwrite<double[]>(len);
  const auto c = std::make_unique_for_overwrite<double[]>(len);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  std::vector<double> gbps;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < len; ++i) a[i] = b[i] + 3.0 * c[i];
    gbps.push_back(3.0 * sizeof(double) * static_cast<double>(len) /
                   seconds_since(t0) * 1e-9);
  }
  if (a[len / 2] != 7.0) throw std::logic_error("stream triad miscomputed");
  return median(gbps);
}

/// Totals over every BatchEvaluator submission of the replay.
struct BatchTotals {
  long schedules = 0;
  long batches = 0;
  long outer = 0;
  double seconds = 0.0;

  void add(std::size_t size, double s, BatchParallelism mode) {
    schedules += static_cast<long>(size);
    ++batches;
    outer += mode == BatchParallelism::Outer ? 1 : 0;
    seconds += s;
  }
};

}  // namespace

Outcome run_replay(const Config& cfg, SpanRecorder& rec) {
  const ReplayPlan plan = plan_for(cfg);
  Outcome out;
  Tally& tally = out.tally;
  const int n = plan.terms.num_qubits();
  const std::uint64_t dim = std::uint64_t{1} << n;
  out.working_set_bytes = dim * (16 + 8);

  // mem: streaming bandwidth, first, while little else is resident.
  const std::uint64_t llc = llc_bytes();
  const std::uint64_t stream_bytes =
      cfg.smoke ? std::uint64_t{48} << 20
                : std::max<std::uint64_t>(4 * llc, std::uint64_t{5} << 28);
  double stream_gbps = 0.0;
  {
    ScopedSpan span(rec, "mem.stream");
    stream_gbps = stream_triad_gbps(stream_bytes, 5);
  }
  std::printf("stream triad: 3 arrays, %llu bytes in all; LLC %llu bytes\n",
              static_cast<unsigned long long>(stream_bytes),
              static_cast<unsigned long long>(llc));

  // diagonal: the precompute on its own.
  double precompute_s = 0.0;
  {
    ScopedSpan span(rec, "diagonal.precompute");
    const CostDiagonal diag = CostDiagonal::precompute(plan.terms);
    precompute_s = span.stop();
  }

  // api: the session build (precompute + plan + batch engine).
  double build_s = 0.0;
  std::unique_ptr<api::ProblemSession> session;
  {
    ScopedSpan span(rec, "api.session_build");
    session = std::make_unique<api::ProblemSession>(plan.terms);
    build_s = span.stop();
  }
  const auto* fur = dynamic_cast<const FurQaoaSimulator*>(&session->simulator());
  if (!fur || fur->config().use_u16)
    throw std::runtime_error("replay expects the default f64 fur simulator");
  const pipeline::LayerPlan& layer_plan = fur->layer_plan();
  const StateVector& init = session->batch().initial_state();
  if (!layer_plan.active() || init.precision() != Precision::F64 ||
      !pipeline::can_fuse_expectation(layer_plan, init.size()))
    throw std::runtime_error("replay expects an active fused layer plan");
  const Exec exec = fur->config().exec;
  const double* costs = session->cost_diagonal().data();
  const std::span<const double> gammas(plan.schedule.gammas);
  const std::span<const double> betas(plan.schedule.betas);

  // The untraced production evaluate: the reference every replay matches.
  // A one-layer evaluate first warms the session's scratch state, as the
  // timed run does.
  session->evaluate(QaoaParams{{gammas[0]}, {betas[0]}});
  const double energy = session->evaluate(plan.schedule).expectation.value();

  // pipeline: the first `depth` layers over the simulator's own plan from
  // the initial state, the expectation fused into the last layer as
  // evaluate does. With `parent` >= 0 each layer gets a span under it and
  // its duration is appended to `layer_ms`. Returns the energy.
  aligned_vector<double> partials(dim / kReduceBlock, 0.0);
  const auto run_pipeline = [&](StateVector& state, std::size_t depth,
                                int parent, std::vector<double>* layer_ms) {
    pipeline::PhaseCtx phase;
    phase.costs = costs;
    pipeline::ExpectationCtx reduce;
    reduce.costs = costs;
    for (std::size_t l = 0; l < depth; ++l) {
      std::optional<ScopedSpan> layer;
      if (parent >= 0)
        layer.emplace(rec, "pipeline.layer", parent,
                      static_cast<std::int64_t>(l));
      if (l + 1 == depth)
        pipeline::run_layer_expectation(layer_plan, state.data(), dim, phase,
                                        gammas[l], betas[l], exec, reduce,
                                        partials.data());
      else
        pipeline::run_layer(layer_plan, state.data(), dim, phase, gammas[l],
                            betas[l], exec);
      if (layer) layer_ms->push_back(layer->stop() * 1e3);
    }
    double sum = 0.0;
    for (const double p : partials) sum += p;
    return sum;
  };

  // One span per layer over the full schedule: the per-layer times, and a
  // result that must equal the production evaluate.
  std::vector<double> layer_ms;
  {
    StateVector state = init;
    ScopedSpan replay(rec, "pipeline.replay");
    const double replayed =
        run_pipeline(state, gammas.size(), replay.id(), &layer_ms);
    tally.expect(same_bits(replayed, energy),
                 "pipeline replay differs from evaluate");
  }

  // trace: the cost of the spans themselves. The same layer prefix runs
  // with and without per-layer spans, alternating which goes first; the
  // overhead is the median of the paired relative differences.
  std::vector<double> overhead;
  {
    const std::size_t depth = std::min<std::size_t>(8, gammas.size());
    const int pairs = cfg.smoke ? 3 : 7;
    ScopedSpan span(rec, "trace.overhead");
    std::vector<double> scratch_ms;
    for (int r = 0; r < pairs; ++r) {
      double seconds[2] = {0.0, 0.0};  // untraced, traced
      double energies[2] = {0.0, 0.0};
      for (int k = 0; k < 2; ++k) {
        const int traced = (r + k) % 2;
        StateVector state = init;
        const Clock::time_point t0 = Clock::now();
        energies[traced] = run_pipeline(state, depth,
                                        traced ? span.id() : -1, &scratch_ms);
        seconds[traced] = seconds_since(t0);
      }
      overhead.push_back((seconds[1] - seconds[0]) / seconds[0]);
      tally.expect(same_bits(energies[0], energies[1]),
                   "traced pipeline prefix differs from the untraced one");
    }
  }

  // fur: fused single call vs simulate + get_expectation.
  double fused_ms = 0.0;
  double twopass_ms = 0.0;
  StateVector evolved = init;
  {
    ScopedSpan span(rec, "fur.evaluate_fused");
    const double e = fur->simulate_qaoa_expectation(evolved, gammas, betas);
    fused_ms = span.stop() * 1e3;
    tally.expect(same_bits(e, energy), "fused evaluate differs from evaluate");
  }
  {
    evolved = init;
    ScopedSpan span(rec, "fur.evaluate_twopass");
    evolved = fur->simulate_qaoa_from(std::move(evolved), gammas, betas);
    const double e = fur->get_expectation(evolved);
    twopass_ms = span.stop() * 1e3;
    tally.expect(same_bits(e, energy),
                 "two-pass evaluate differs from evaluate");
    tally.expect(std::abs(evolved.norm_squared() - 1.0) <= 1e-12,
                 "evolved state norm differs from 1 by more than 1e-12");
  }

  // simd: each dispatched kernel over the evolved workload-sized state.
  Metrics kernel_ms;
  {
    const DiagonalU16 codes = DiagonalU16::encode(session->cost_diagonal());
    aligned_vector<cdouble> table;
    codes.phase_table_into(gammas[0], table);
    cdouble* amp = evolved.data();
    const double c = std::cos(betas[0]);
    const double s = std::sin(betas[0]);
    const int reps = cfg.smoke ? 3 : 7;
    double sink = 0.0;
    ScopedSpan kernels(rec, "simd.kernels");
    const int k = kernels.id();
    const auto time = [&](const char* metric, const char* span, auto kernel) {
      kernel_ms.set(metric, median_ms(rec, span, k, reps, kernel), "ms");
    };
    time("simd.phase_ms", "simd.apply_phase_slice", [&] {
      simd::apply_phase_slice(amp, costs, dim, gammas[0], exec);
    });
    time("simd.phase_table_ms", "simd.apply_phase_table", [&] {
      simd::apply_phase_table(amp, codes.codes(), table.data(), dim, exec);
    });
    time("simd.rx_q0_ms", "simd.rx_q0",
         [&] { simd::rx(amp, dim, 0, c, s, exec); });
    time("simd.rx_qtop_ms", "simd.rx_qtop",
         [&] { simd::rx(amp, dim, n - 1, c, s, exec); });
    time("simd.expectation_ms", "simd.expectation_slice",
         [&] { sink += simd::expectation_slice(amp, costs, dim, exec); });
    time("simd.norm_ms", "simd.norm_squared",
         [&] { sink += simd::norm_squared(amp, dim, exec); });
    tally.expect(std::isfinite(sink), "simd reductions returned non-finite");
  }
  evolved = StateVector();  // release before the optimizer replay

  // optimize: the production run, then nelder_mead_batched over a timing
  // wrapper of ProblemSession::expectations; the trajectories must match.
  BatchTotals batch;
  long evaluations = 0;
  long batches = 0;
  double objective_s = 0.0;
  double optimize_s = 0.0;
  {
    const api::EvalResult production = session->optimize(plan.optimizer);
    const QaoaParams start = plan.optimizer.initial.p() > 0
                                 ? plan.optimizer.initial
                                 : linear_ramp(plan.optimizer.p);
    ScopedSpan span(rec, "optimize.nelder_mead");
    const BatchObjectiveFn objective =
        [&](const std::vector<std::vector<double>>& points) {
          std::vector<QaoaParams> schedules;
          for (const std::vector<double>& x : points)
            schedules.push_back(QaoaParams::unflatten(x));
          const BatchParallelism mode =
              session->batch().resolve_parallelism(points.size());
          ScopedSpan call(rec, "batch.expectations", span.id(), batches);
          std::vector<double> values = session->expectations(schedules);
          const double s = call.stop();
          batch.add(points.size(), s, mode);
          evaluations += static_cast<long>(points.size());
          ++batches;
          objective_s += s;
          return values;
        };
    const OptResult r = nelder_mead_batched(objective, start.flatten(),
                                            plan.optimizer.nelder_mead);
    optimize_s = span.stop();
    tally.expect(same_bits(r.x, production.params.value().flatten()) &&
                     same_bits(r.fval, production.expectation.value()) &&
                     evaluations == production.evaluations.value() &&
                     batches == production.batches.value(),
                 "optimizer replay trajectory differs from optimize");
  }

  // protocol: encode / decode of the first replayed request.
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  {
    const serve::Request& request = plan.requests.front();
    const int reps = cfg.smoke ? 50 : 1000;
    std::vector<std::uint8_t> frame;
    {
      ScopedSpan span(rec, "protocol.encode_request");
      for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        frame = serve::encode_request(request);
        encode_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    serve::Request decoded;
    {
      const std::span<const std::uint8_t> payload =
          std::span<const std::uint8_t>(frame).subspan(serve::kFrameHeaderBytes);
      ScopedSpan span(rec, "protocol.decode_request");
      for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        decoded = serve::decode_request(payload);
        decode_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    tally.expect(serve::encode_request(decoded) == frame,
                 "decoded request does not re-encode to the same frame");
  }

  // session_cache: checkout (and the batch submission a worker would make)
  // for every replayed request, sequentially; the results are the oracle
  // for the server replay below.
  std::vector<double> hit_us;
  std::vector<double> miss_ms;
  std::vector<std::vector<double>> direct(plan.requests.size());
  {
    serve::SessionCache cache(plan.cache_budget);
    ScopedSpan replay(rec, "session_cache.replay");
    const auto checkout = [&](const serve::Request& req, std::int64_t id) {
      ScopedSpan span(rec, "session_cache.checkout", replay.id(), id);
      serve::SessionLease lease = cache.checkout(req.terms, req.spec);
      const double s = span.stop();
      (lease.hit() ? hit_us : miss_ms).push_back(lease.hit() ? s * 1e6 : s * 1e3);
      return lease;
    };
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
      const serve::Request& req = plan.requests[i];
      const serve::SessionLease lease =
          checkout(req, static_cast<std::int64_t>(i));
      const BatchParallelism mode =
          lease->batch().resolve_parallelism(req.schedules.size());
      ScopedSpan call(rec, "batch.expectations", replay.id(),
                      static_cast<std::int64_t>(i));
      direct[i] = lease->expectations(req.schedules);
      batch.add(req.schedules.size(), call.stop(), mode);
    }
    // The most recently used problem is resident: one guaranteed hit.
    checkout(plan.requests.back(),
             static_cast<std::int64_t>(plan.requests.size()));
  }

  // serve: the same requests through a socket server, split over clients.
  std::vector<double> queue_ms(plan.requests.size());
  std::vector<double> eval_ms(plan.requests.size());
  std::vector<serve::Response> responses(plan.requests.size());
  serve::SessionCache::Stats stats;
  {
    serve::ServerConfig config;
    config.workers = plan.workers;
    config.cache_bytes = plan.cache_budget;
    config.listen_path = socket_path(cfg, "replay");
    serve::ScheduleServer server(config);
    std::vector<std::string> errors(static_cast<std::size_t>(plan.clients));
    std::vector<std::thread> clients;
    for (int c = 0; c < plan.clients; ++c)
      clients.emplace_back([&, c] {
        try {
          serve::Client client(config.listen_path);
          for (std::size_t i = static_cast<std::size_t>(c);
               i < plan.requests.size();
               i += static_cast<std::size_t>(plan.clients)) {
            ScopedSpan span(rec, "serve.call", -1, static_cast<std::int64_t>(i));
            responses[i] = client.call(plan.requests[i]);
          }
        } catch (const std::exception& e) {
          errors[static_cast<std::size_t>(c)] = e.what();
        }
      });
    for (std::thread& t : clients) t.join();
    stats = server.cache_stats();
    for (const std::string& e : errors)
      tally.expect(e.empty(), "replay client failed: " + e);
  }
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const serve::Response& r = responses[i];
    queue_ms[i] = static_cast<double>(r.queue_ns) * 1e-6;
    eval_ms[i] = static_cast<double>(r.eval_ns) * 1e-6;
    tally.expect(r.status == serve::Status::Ok &&
                     same_bits(r.expectations, direct[i]),
                 "served replay differs from direct evaluation");
  }

  // Metrics, in BENCHMARK.json order.
  const double state_bytes = static_cast<double>(dim) * sizeof(cdouble);
  const double bytes_per_layer =
      layer_plan.full_sweeps() * 2.0 * state_bytes +
      static_cast<double>(dim) * sizeof(double);  // computed, not measured
  std::printf("pipeline.bytes_per_layer is computed from array sizes (%d "
              "sweeps of the state, read and written, plus one read of the "
              "diagonal), not measured\n",
              layer_plan.full_sweeps());
  const double layer_med_ms = median(layer_ms);
  const double layer_gbps = bytes_per_layer / (layer_med_ms * 1e-3) * 1e-9;
  Metrics ordered;
  ordered.set("diagonal.precompute_s", precompute_s, "s");
  ordered.set("diagonal.term_evals_per_s",
              static_cast<double>(dim) * static_cast<double>(plan.terms.size()) /
                  precompute_s,
              "1/s");
  ordered.set("api.session_build_s", build_s, "s");
  ordered.set("pipeline.layer_ms", layer_med_ms, "ms");
  ordered.set("pipeline.full_sweeps", layer_plan.full_sweeps(), "count");
  ordered.set("pipeline.bytes_per_layer", bytes_per_layer, "bytes");
  ordered.set("pipeline.layer_gbps", layer_gbps, "GB/s");
  ordered.set("pipeline.stream_frac", layer_gbps / stream_gbps, "ratio");
  for (const char* name :
       {"simd.phase_ms", "simd.phase_table_ms", "simd.rx_q0_ms",
        "simd.rx_qtop_ms", "simd.expectation_ms", "simd.norm_ms"})
    ordered.set(name, kernel_ms.value(name), "ms");
  ordered.set("fur.evaluate_fused_ms", fused_ms, "ms");
  ordered.set("fur.evaluate_twopass_ms", twopass_ms, "ms");
  ordered.set("batch.schedules_per_s",
              static_cast<double>(batch.schedules) / batch.seconds, "1/s");
  ordered.set("batch.outer_frac",
              static_cast<double>(batch.outer) /
                  static_cast<double>(batch.batches),
              "ratio");
  ordered.set("optimize.evaluations", static_cast<double>(evaluations), "count");
  ordered.set("optimize.batches", static_cast<double>(batches), "count");
  ordered.set("optimize.objective_frac", objective_s / optimize_s, "ratio");
  ordered.set("serve.queue_ms_p50", median(queue_ms), "ms");
  ordered.set("serve.eval_ms_p50", median(eval_ms), "ms");
  ordered.set("session_cache.hit_frac",
              static_cast<double>(stats.hits) /
                  static_cast<double>(stats.hits + stats.misses),
              "ratio");
  ordered.set("session_cache.evictions", static_cast<double>(stats.evictions),
              "count");
  ordered.set("session_cache.checkout_hit_us", median(hit_us), "us");
  ordered.set("session_cache.checkout_miss_ms", median(miss_ms), "ms");
  ordered.set("protocol.encode_us", median(encode_us), "us");
  ordered.set("protocol.decode_us", median(decode_us), "us");
  ordered.set("mem.stream_gbps", stream_gbps, "GB/s");
  ordered.set("trace.overhead_frac", median(overhead), "ratio");
  out.metrics = std::move(ordered);
  return out;
}

}  // namespace perfbench
