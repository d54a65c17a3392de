// Timed production runs of the three workloads (tracing off).
#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "problems/graph.hpp"
#include "problems/labs.hpp"
#include "problems/maxcut.hpp"
#include "problems/sk.hpp"
#include "serve/server.hpp"
#include "serve/session_cache.hpp"

namespace perfbench {

using namespace qokit;

// ------------------------------------------------------------- inputs

MaxcutShape maxcut_shape(bool smoke) {
  return smoke ? MaxcutShape{12, 8} : MaxcutShape{24, 64};
}

TermList maxcut_problem(const Config& cfg) {
  const MaxcutShape shape = maxcut_shape(cfg.smoke);
  return maxcut_terms(
      Graph::random_regular(shape.n, 3, derive_seed(cfg.seed, kGraphStream)));
}

LabsShape labs_shape(bool smoke) {
  return smoke ? LabsShape{10, 3, 40} : LabsShape{20, 8, 300};
}

api::OptimizerSpec labs_optimizer(const LabsShape& shape) {
  api::OptimizerSpec spec;
  spec.method = api::OptimizerSpec::Method::NelderMead;
  spec.p = shape.p;
  spec.initial = linear_ramp(shape.p);
  spec.nelder_mead.max_evals = shape.max_evals;
  return spec;
}

ServeShape serve_shape(bool smoke) {
  return smoke ? ServeShape{10, 2, 6, 2, 4, 2, 2}
               : ServeShape{16, 4, 24, 8, 4, 2, 2};
}

ServeTraffic::ServeTraffic(const Config& cfg)
    : cfg_(cfg), shape_(serve_shape(cfg.smoke)) {
  Rng rng(derive_seed(cfg.seed, kPoolStream));
  for (int i = 0; i < shape_.pool; ++i)
    pool_.push_back(sk_terms(shape_.n, rng.next_u64()));
  order_.resize(pool_.size());
  for (std::size_t i = 0; i < order_.size(); ++i)
    order_[i] = static_cast<int>(i);
  rng.shuffle(order_);
  // Zipf(1) popularity: rank r is requested with weight 1 / (r + 1).
  double total = 0.0;
  for (std::size_t r = 0; r < pool_.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  // Charge what the cache charges (a built session's footprint), with
  // half a session of slack so exactly cache_sessions fit.
  const api::ProblemSession probe(pool_.front());
  const std::uint64_t one = serve::session_footprint_bytes(probe);
  budget_ = one * static_cast<std::uint64_t>(shape_.cache_sessions) + one / 2;
}

Rng ServeTraffic::client_stream(int client) const {
  return Rng(derive_seed(cfg_.seed, kRequestStream + 16 * (client + 1)));
}

serve::Request ServeTraffic::request_for(int index, Rng& rng) const {
  serve::Request request;
  request.terms = pool_.at(static_cast<std::size_t>(index));
  for (int s = 0; s < shape_.schedules_per_request; ++s)
    request.schedules.push_back(seeded_schedule(rng, shape_.p));
  return request;
}

std::pair<int, serve::Request> ServeTraffic::next(Rng& rng) const {
  const double u = rng.uniform();
  const auto rank = static_cast<std::size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  const int index = order_[std::min(rank, order_.size() - 1)];
  return {index, request_for(index, rng)};
}

std::string socket_path(const Config& cfg, const char* tag) {
  return cfg.work_dir + "/perfbench-" + tag + "-" +
         std::to_string(static_cast<long>(getpid())) + ".sock";
}

// ------------------------------------------------------------ helpers

namespace {

/// Wall and CPU time of one set-up (medians over the repeated builds).
struct SetupTime {
  double wall_s;
  double cpu_s;
};

/// Build `make()` at least kSetupReps times, and more (up to 4x as many)
/// until kSetupSeconds of building have passed; keeps the last instance.
template <class T, class Make>
SetupTime timed_setup(std::unique_ptr<T>& out, Make make) {
  std::vector<double> wall;
  std::vector<double> cpu;
  double total_s = 0.0;
  for (int r = 0; r < kSetupReps ||
                  (total_s < kSetupSeconds && r < 4 * kSetupReps);
       ++r) {
    out.reset();  // one instance alive at a time
    const double c0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    out = make();
    wall.push_back(seconds_since(t0));
    cpu.push_back(process_cpu_s() - c0);
    total_s += wall.back();
  }
  return {median(wall), median(cpu)};
}

/// The timed window of a run, opened at construction.
struct Window {
  const Clock::time_point start = Clock::now();
  const double cpu0 = process_cpu_s();
  const std::pair<double, double> ticks0 = steal_ticks();
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double layers = 0.0;        ///< QAOA layers completed
  std::vector<double> op_ms;  ///< wall time of each operation

  void close() {
    wall_s = seconds_since(start);
    cpu_s = process_cpu_s() - cpu0;
  }
};

/// Operations (an evaluate or an optimize) a run makes at least.
constexpr std::size_t kMinOps = 2;

/// The end-to-end metrics are wall-clock figures, as a caller sees them.
/// Every workload reports the same names; each workload's own names for
/// them (evaluate_s_p50, optimize_s, serve_p50_ms, ...) are info lines.
/// An operation is one evaluate (maxcut24_deep), one optimization
/// (labs20_optimize) or one request as its client sees it (sk16_serve).
/// CPU time is printed alongside for the reader: it is not bounded, since
/// it rises with parallelism (and with OpenMP spin-waits) while latency
/// falls.
void set_end_to_end(Outcome& out, const SetupTime& setup, double rss_mib,
                    const Window& w) {
  const double ops = static_cast<double>(w.op_ms.size());
  out.metrics.set("setup_s", setup.wall_s, "s");
  out.metrics.set("peak_rss_mib", rss_mib, "MiB");
  out.metrics.set("layers_per_s", w.layers / w.wall_s, "1/s");
  out.metrics.set("op_p50_ms", median(w.op_ms), "ms");
  const auto [steal1, total1] = steal_ticks();
  const double ticks = total1 - w.ticks0.second;
  out.info.set("setup_cpu_s", setup.cpu_s, "s");
  out.info.set("op_min_ms", *std::min_element(w.op_ms.begin(), w.op_ms.end()),
               "ms");
  out.info.set("op_p99_ms", percentile(w.op_ms, 0.99), "ms");
  out.info.set("op_count", ops, "count");
  out.info.set("op_cpu_ms", w.cpu_s / ops * 1e3, "ms");
  out.info.set("cpu_ms_per_layer", w.cpu_s / w.layers * 1e3, "ms");
  out.info.set("host_steal_frac",
               ticks > 0 ? (steal1 - w.ticks0.first) / ticks : 0.0, "ratio");
}

}  // namespace

// ---------------------------------------------------------- maxcut24_deep

Outcome run_maxcut(const Config& cfg) {
  const MaxcutShape shape = maxcut_shape(cfg.smoke);
  const TermList terms = maxcut_problem(cfg);
  Outcome out;
  out.working_set_bytes = (std::uint64_t{1} << shape.n) * (16 + 8);

  std::unique_ptr<api::ProblemSession> session;
  const SetupTime setup = timed_setup(session, [&] {
    return std::make_unique<api::ProblemSession>(terms);
  });

  Rng rng(derive_seed(cfg.seed, kScheduleStream));
  session->evaluate(seeded_schedule(rng, 1));  // warm the scratch state

  std::vector<QaoaParams> schedules;
  std::vector<double> energies;
  Window w;
  while (schedules.size() < kMinOps || seconds_since(w.start) < cfg.seconds) {
    schedules.push_back(seeded_schedule(rng, shape.p));
    const std::size_t op = out.tally.add();
    const Clock::time_point t0 = Clock::now();
    double energy = std::nan("");
    try {
      energy = session->evaluate(schedules.back()).expectation.value();
    } catch (const std::exception& e) {
      out.tally.check(op, false, std::string("evaluate threw: ") + e.what());
    }
    w.op_ms.push_back(seconds_since(t0) * 1e3);
    energies.push_back(energy);
  }
  w.close();
  w.layers = static_cast<double>(schedules.size()) * shape.p;
  const double rss = peak_rss_mib();

  // Every energy lies in the spectrum [min, max] of the cost diagonal.
  const CostDiagonal& diag = session->cost_diagonal();
  const double lo = diag.min_value();
  const double hi = diag.max_value();
  const double slack = 1e-9 * std::max(1.0, hi - lo);
  for (std::size_t i = 0; i < energies.size(); ++i)
    out.tally.check(i, energies[i] >= lo - slack && energies[i] <= hi + slack,
                    "maxcut energy outside [min_value, max_value]");
  // A 4-layer prefix of the first schedule, replayed through the two-pass
  // path, is normalized and scores bit-identically to the fused evaluate
  // (the traced run checks the full-depth state the same way).
  QaoaParams prefix = schedules.front();
  const std::size_t depth = std::min<std::size_t>(4, prefix.gammas.size());
  prefix.gammas.resize(depth);
  prefix.betas.resize(depth);
  const double fused = session->evaluate(prefix).expectation.value();
  const StateVector state = session->simulate(prefix);
  out.tally.check(0, std::abs(state.norm_squared() - 1.0) <= 1e-12,
                  "maxcut state norm differs from 1 by more than 1e-12");
  out.tally.check(
      0, same_bits(session->simulator().get_expectation(state), fused),
      "maxcut two-pass replay differs from the fused evaluate");

  set_end_to_end(out, setup, rss, w);
  out.info.set("evaluate_s_p50", median(w.op_ms) * 1e-3, "s");
  return out;
}

// -------------------------------------------------------- labs20_optimize

Outcome run_labs(const Config& cfg) {
  const LabsShape shape = labs_shape(cfg.smoke);
  const TermList terms = labs_terms(shape.n);
  Outcome out;
  out.working_set_bytes = (std::uint64_t{1} << shape.n) * (16 + 8);

  std::unique_ptr<api::ProblemSession> session;
  const SetupTime setup = timed_setup(session, [&] {
    return std::make_unique<api::ProblemSession>(terms);
  });
  session->evaluate(linear_ramp(shape.p));  // warm the scratch state

  std::vector<api::EvalResult> results;
  const api::OptimizerSpec spec = labs_optimizer(shape);
  long evaluations = 0;
  Window w;
  while (results.size() < kMinOps || seconds_since(w.start) < cfg.seconds) {
    const std::size_t op = out.tally.add();
    const Clock::time_point t0 = Clock::now();
    try {
      results.push_back(session->optimize(spec));
      evaluations += results.back().evaluations.value();
    } catch (const std::exception& e) {
      results.emplace_back();
      out.tally.check(op, false, std::string("optimize threw: ") + e.what());
    }
    w.op_ms.push_back(seconds_since(t0) * 1e3);
  }
  w.close();
  w.layers = static_cast<double>(evaluations) * shape.p;
  const double rss = peak_rss_mib();

  // The returned energy equals a fresh serial session's re-evaluation of
  // the returned parameters, bit for bit.
  const api::ProblemSession serial(terms, SimulatorSpec::parse("serial"));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const api::EvalResult& r = results[i];
    if (!r.params || !r.expectation || !r.evaluations) continue;  // threw
    out.tally.check(
        i, same_bits(serial.evaluate(*r.params).expectation.value(),
                     *r.expectation),
        "optimized energy differs from a serial re-evaluation");
  }

  set_end_to_end(out, setup, rss, w);
  out.info.set("optimize_s", median(w.op_ms) * 1e-3, "s");
  out.info.set("evals_per_s", static_cast<double>(evaluations) / w.wall_s,
               "1/s");
  return out;
}

// ------------------------------------------------------------- sk16_serve

namespace {

/// A response kept for the post-run check against direct evaluation.
struct Sample {
  std::size_t request;  ///< position in the client's log
  int index;
  std::vector<QaoaParams> schedules;
  std::vector<double> expectations;
};

/// One closed-loop client's record of the timed window.
struct ClientLog {
  std::vector<double> op_ms;
  std::vector<char> ok;  ///< per request: Ok status and no exception
  std::vector<std::string> errors;
  std::vector<Sample> samples;
  long schedules_ok = 0;
};

/// Every kCheckEvery-th Ok response is checked against direct evaluation.
constexpr int kCheckEvery = 8;

/// Requests each client sends before the timed window (fills the cache).
constexpr int kWarmRequests = 40;

}  // namespace

Outcome run_serve(const Config& cfg) {
  const ServeTraffic traffic(cfg);
  const ServeShape& shape = traffic.shape();
  Outcome out;
  out.working_set_bytes =
      traffic.cache_budget() +
      static_cast<std::uint64_t>(shape.workers) *
          serve::session_footprint_bytes(shape.n, traffic.pool()[0].size());

  serve::ServerConfig config;
  config.workers = shape.workers;
  config.cache_bytes = traffic.cache_budget();
  config.listen_path = socket_path(cfg, "serve");

  // Set-up: start the server and fill its cache with the most requested
  // problems, one cold request each.
  Rng setup_rng(derive_seed(cfg.seed, kRequestStream));
  std::unique_ptr<serve::ScheduleServer> server;
  const SetupTime setup = timed_setup(server, [&] {
    auto s = std::make_unique<serve::ScheduleServer>(config);
    serve::Client client(config.listen_path);
    for (int rank = 0; rank < shape.cache_sessions; ++rank) {
      const serve::Response r = client.call(
          traffic.request_for(traffic.popular(rank), setup_rng));
      if (r.status != serve::Status::Ok)
        throw std::runtime_error("set-up request failed: " + r.error);
    }
    return s;
  });

  std::vector<ClientLog> logs(static_cast<std::size_t>(shape.clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  const auto client_main = [&](int c) {
    ClientLog& log = logs[static_cast<std::size_t>(c)];
    Rng rng = traffic.client_stream(c);
    try {
      serve::Client client(config.listen_path);
      for (int w = 0; w < kWarmRequests; ++w)
        client.call(traffic.next(rng).second);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      long ok_count = 0;
      while (log.op_ms.empty() || seconds_since(start) < cfg.seconds) {
        auto [index, request] = traffic.next(rng);
        const Clock::time_point t0 = Clock::now();
        serve::Response r;
        bool ok = true;
        try {
          r = client.call(request);
          ok = r.status == serve::Status::Ok &&
               r.expectations.size() == request.schedules.size();
          if (!ok) log.errors.push_back("status " +
                                        std::string(serve::to_string(r.status)) +
                                        ": " + r.error);
        } catch (const std::exception& e) {
          ok = false;
          log.errors.push_back(std::string("call threw: ") + e.what());
        }
        log.op_ms.push_back(seconds_since(t0) * 1e3);
        log.ok.push_back(ok ? 1 : 0);
        if (!ok) continue;
        log.schedules_ok += static_cast<long>(request.schedules.size());
        if (ok_count++ % kCheckEvery == 0)
          log.samples.push_back({log.ok.size() - 1, index,
                                 std::move(request.schedules),
                                 std::move(r.expectations)});
      }
    } catch (const std::exception& e) {
      log.errors.push_back(std::string("client failed: ") + e.what());
      log.ok.push_back(0);
      log.op_ms.push_back(0.0);
      ready.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < shape.clients; ++c) threads.emplace_back(client_main, c);
  while (ready.load() < shape.clients) std::this_thread::yield();
  Window w;
  start = w.start;
  go.store(true);
  for (std::thread& t : threads) t.join();
  w.close();
  const double rss = peak_rss_mib();
  server.reset();

  long schedules_ok = 0;
  std::vector<std::size_t> first_op;  ///< tally index of each log's op 0
  for (const ClientLog& log : logs) {
    first_op.push_back(static_cast<std::size_t>(out.tally.attempted()));
    schedules_ok += log.schedules_ok;
    w.op_ms.insert(w.op_ms.end(), log.op_ms.begin(), log.op_ms.end());
    std::size_t err = 0;
    for (const char ok : log.ok) {
      const std::size_t op = out.tally.add();
      if (!ok)
        out.tally.check(op, false,
                        err < log.errors.size() ? log.errors[err++]
                                                : "request failed");
    }
  }

  // Sampled Ok responses equal direct evaluate_batch, bit for bit.
  std::map<int, std::unique_ptr<api::ProblemSession>> direct;
  for (std::size_t c = 0; c < logs.size(); ++c)
    for (const Sample& s : logs[c].samples) {
      auto& session = direct[s.index];
      if (!session)
        session = std::make_unique<api::ProblemSession>(
            traffic.pool()[static_cast<std::size_t>(s.index)]);
      std::vector<double> expected;
      for (const api::EvalResult& r : session->evaluate_batch(s.schedules))
        expected.push_back(r.expectation.value());
      out.tally.check(first_op[c] + s.request,
                      same_bits(expected, s.expectations),
                      "served expectations differ from evaluate_batch");
    }

  w.layers = static_cast<double>(schedules_ok) * shape.p;
  set_end_to_end(out, setup, rss, w);
  out.info.set("serve_rps", static_cast<double>(w.op_ms.size()) / w.wall_s,
               "1/s");
  out.info.set("serve_p50_ms", median(w.op_ms), "ms");
  out.info.set("serve_p99_ms", percentile(w.op_ms, 0.99), "ms");
  return out;
}

}  // namespace perfbench
