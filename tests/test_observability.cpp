// Observability subsystem (src/obs/): the disabled-is-free contract, span
// nesting and attributes, histogram bucket math, Exec-invariant counter
// totals, exporter round-trips (JSON / Prometheus / chrome-tracing), and
// the per-item batch timings every result carries.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/qokit.hpp"
#include "obs/obs.hpp"
#include "obs/obs_internal.hpp"
#include "simd/kernels.hpp"
#include "support/simd_levels.hpp"

namespace {

using namespace qokit;

/// Minimal recursive-descent JSON validator: enough grammar to certify
/// that every exporter emits a machine-parseable document (objects,
/// arrays, strings with escapes, numbers, literals).
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view s) : s_(s) {}

  bool valid() {
    skip();
    if (!value()) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip();
      if (!string()) return false;
      skip();
      if (peek() != ':') return false;
      ++pos_;
      skip();
      if (!value()) return false;
      skip();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip();
      if (!value()) return false;
      skip();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Prometheus text exposition checker: every line must be a `# TYPE`
/// comment or a `name[{labels}] value` sample with a numeric value.
bool valid_prometheus(const std::string& text) {
  if (text.empty()) return false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) return false;  // must end with newline
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) return false;
    if (line.substr(0, 7) == "# TYPE ") continue;
    if (line[0] == '#') return false;
    // name[{labels}] value
    std::size_t i = 0;
    auto name_char = [&](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == ':';
    };
    while (i < line.size() && name_char(line[i])) ++i;
    if (i == 0) return false;
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string_view::npos) return false;
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') return false;
    ++i;
    if (i >= line.size()) return false;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
            c == '+' || c == '.' || c == 'e' || c == 'E' || c == 'i' ||
            c == 'n' || c == 'f' || c == 'a'))  // inf / nan spellings
        return false;
    }
  }
  return true;
}

std::uint64_t counter_value(const obs::Snapshot& snap,
                            std::string_view name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  ADD_FAILURE() << "counter not in snapshot: " << name;
  return 0;
}

const obs::HistogramSnapshot* find_histogram(const obs::Snapshot& snap,
                                             std::string_view name) {
  for (const auto& [n, h] : snap.histograms)
    if (n == name) return &h;
  return nullptr;
}

/// Trace documents emit one event per line; grab the line of the first
/// event with this exact name ("" when absent).
std::string event_line(const std::string& trace, const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  const std::size_t at = trace.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = trace.rfind('\n', at) + 1;
  const std::size_t end = trace.find('\n', at);
  return trace.substr(start, end - start);
}

api::ProblemSession labs_session(const char* spec) {
  return api::ProblemSession::labs(10, SimulatorSpec::parse(spec));
}

/// One round of everything instrumented: a scalar evaluate with overlap +
/// sampling, then a mixed-depth batch.
void run_queries(const api::ProblemSession& s) {
  api::EvalRequest req;
  req.overlap = true;
  req.shots = 8;
  s.evaluate(linear_ramp(3), req);
  const std::vector<QaoaParams> batch{linear_ramp(2), linear_ramp(3)};
  s.evaluate_batch(batch, req);
}

/// Restores the observability flag each test flips.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { was_enabled_ = obs::enabled(); }
  void TearDown() override { obs::set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_F(ObsTest, DisabledIsFreeAfterWarmup) {
  // Warm pass with observability on: registers every metric on these code
  // paths, at both amplitude widths, and creates the thread shards, the
  // only obs-internal heap activity there is.
  obs::set_enabled(true);
  const api::ProblemSession warm[] = {labs_session("auto"),
                                      labs_session("auto:prec=f32")};
  for (const api::ProblemSession& s : warm) run_queries(s);

  obs::set_enabled(false);
  const std::uint64_t allocs = obs::detail::allocation_count();
  const std::uint64_t events = obs::trace_event_count();
  const obs::Snapshot before = obs::snapshot();

  // Same workload, plus fresh sessions (construction paths included):
  // with observability off nothing may allocate, count, or trace.
  for (const api::ProblemSession& s : warm) run_queries(s);
  for (const char* spec : {"auto", "auto:prec=f32"})
    run_queries(labs_session(spec));

  const obs::Snapshot after = obs::snapshot();
  EXPECT_EQ(obs::detail::allocation_count(), allocs);
  EXPECT_EQ(obs::trace_event_count(), events);
  EXPECT_EQ(before.counters, after.counters);
}

TEST_F(ObsTest, SpanNestingAndAttributes) {
  obs::set_enabled(true);
  obs::reset();
  const api::ProblemSession s = labs_session("serial");
  s.evaluate(linear_ramp(3));

  const std::string trace = obs::trace_json();
  EXPECT_TRUE(JsonValidator(trace).valid()) << trace.substr(0, 400);

  // Nesting depths recorded at open: evaluate (0) > evaluate_batch (1) >
  // simulate_expectation (2) > layer (3), the executor's own span; reduce
  // reopens at depth 2, after the schedule's evolution.
  const std::string evaluate = event_line(trace, "evaluate");
  ASSERT_FALSE(evaluate.empty());
  EXPECT_NE(evaluate.find("\"depth\":0"), std::string::npos) << evaluate;
  EXPECT_NE(evaluate.find("\"n\":10"), std::string::npos) << evaluate;
  EXPECT_NE(evaluate.find("\"p\":3"), std::string::npos) << evaluate;
  // "serial" is auto:exec=serial: the backend is the topology, and the
  // exec attribute says which path ran.
  EXPECT_NE(evaluate.find("\"backend\":\"auto\""), std::string::npos)
      << evaluate;
  EXPECT_NE(evaluate.find("\"exec\":\"serial\""), std::string::npos)
      << evaluate;

  const std::string batch = event_line(trace, "evaluate_batch");
  ASSERT_FALSE(batch.empty());
  EXPECT_NE(batch.find("\"depth\":1"), std::string::npos) << batch;
  EXPECT_NE(batch.find("\"mode\":\"inner\""), std::string::npos) << batch;

  const std::string simulate = event_line(trace, "simulate_expectation");
  ASSERT_FALSE(simulate.empty());
  EXPECT_NE(simulate.find("\"depth\":2"), std::string::npos) << simulate;

  const std::string layer = event_line(trace, "layer");
  ASSERT_FALSE(layer.empty());
  EXPECT_NE(layer.find("\"depth\":3"), std::string::npos) << layer;
  EXPECT_NE(layer.find("\"n\":10"), std::string::npos) << layer;

  const std::string reduce = event_line(trace, "reduce");
  ASSERT_FALSE(reduce.empty());
  EXPECT_NE(reduce.find("\"depth\":2"), std::string::npos) << reduce;

  // One qokit_layer_ns sample per layer, one qokit_reduce_ns per schedule.
  const obs::Snapshot snap = obs::snapshot();
  const auto* layers = find_histogram(snap, "qokit_layer_ns");
  const auto* reduces = find_histogram(snap, "qokit_reduce_ns");
  ASSERT_TRUE(layers && reduces);
  EXPECT_EQ(layers->count, 3u);
  EXPECT_EQ(reduces->count, 1u);

  // The precompute span from construction is there too, at top level.
  const std::string precompute = event_line(trace, "precompute");
  ASSERT_FALSE(precompute.empty());
  EXPECT_NE(precompute.find("\"depth\":0"), std::string::npos)
      << precompute;
}

TEST_F(ObsTest, HistogramBucketMath) {
  // Every histogram has the shared latency bounds: powers of four from
  // 256 ns to 2^30 ns, then the overflow bucket.
  obs::set_enabled(true);
  obs::reset();
  const obs::Histogram h = obs::histogram("qokit_test_bucket_math");
  h.record(5);
  h.record(256);  // boundary lands in its own bucket (v <= bound)
  h.record(257);
  h.record(1ull << 30);  // the last bound
  h.record(5'000'000'000);  // overflow

  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSnapshot* hs =
      find_histogram(snap, "qokit_test_bucket_math");
  ASSERT_NE(hs, nullptr);
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 256; b <= (1ull << 30); b <<= 2) bounds.push_back(b);
  ASSERT_EQ(hs->bounds, bounds);
  ASSERT_EQ(bounds.size(), 12u);
  std::vector<std::uint64_t> buckets(13, 0);
  buckets[0] = 2;
  buckets[1] = 1;
  buckets[11] = 1;
  buckets[12] = 1;
  EXPECT_EQ(hs->buckets, buckets);
  EXPECT_EQ(hs->count, 5u);
  EXPECT_EQ(hs->sum, 6'073'742'342u);

  // Prometheus renders the same data cumulatively.
  const std::string prom = snap.to_prometheus();
  for (const char* line :
       {"qokit_test_bucket_math_bucket{le=\"256\"} 2\n",
        "qokit_test_bucket_math_bucket{le=\"1024\"} 3\n",
        "qokit_test_bucket_math_bucket{le=\"268435456\"} 3\n",
        "qokit_test_bucket_math_bucket{le=\"1073741824\"} 4\n",
        "qokit_test_bucket_math_bucket{le=\"+Inf\"} 5\n",
        "qokit_test_bucket_math_sum 6073742342\n",
        "qokit_test_bucket_math_count 5\n"})
    EXPECT_NE(prom.find(line), std::string::npos) << line;
}

TEST_F(ObsTest, CounterTotalsExecInvariant) {
  // Counters are incremented at dispatch entry, never per block or
  // per thread, so the same workload must produce identical totals
  // whatever the execution policy.
  obs::set_enabled(true);
  const auto workload = [](const char* spec) {
    obs::reset();
    const api::ProblemSession s = labs_session(spec);
    run_queries(s);
    return obs::snapshot();
  };
  const obs::Snapshot serial = workload("serial");
  const obs::Snapshot parallel = workload("auto");
  EXPECT_EQ(serial.counters, parallel.counters);
  EXPECT_EQ(workload("serial:prec=f32").counters,
            workload("auto:prec=f32").counters);
  EXPECT_GT(counter_value(serial, "qokit_evaluates_total"), 0u);
  EXPECT_GT(counter_value(serial, "qokit_sampler_draws_total"), 0u);
  // A schedule the batch engine refuses is not counted as an evaluate.
  QaoaParams nan_gamma = linear_ramp(2);
  nan_gamma.gammas[0] = std::nan("");
  const std::uint64_t evaluates =
      counter_value(obs::snapshot(), "qokit_evaluates_total");
  EXPECT_THROW((void)labs_session("auto").evaluate(nan_gamma),
               std::invalid_argument);
  EXPECT_EQ(counter_value(obs::snapshot(), "qokit_evaluates_total"),
            evaluates);
  EXPECT_GT(counter_value(serial, "qokit_batch_schedules_total"), 0u);
}

TEST_F(ObsTest, ExportsParseBackUnderDist) {
  obs::set_enabled(true);
  obs::reset();
  const api::ProblemSession s = labs_session("dist:2");
  api::EvalRequest req;
  req.shots = 4;
  s.evaluate(linear_ramp(2), req);

  const obs::Snapshot snap = s.metrics();
  EXPECT_GT(counter_value(snap, "qokit_alltoall_calls_total"), 0u);
  EXPECT_GT(counter_value(snap, "qokit_alltoall_bytes_total"), 0u);
  EXPECT_GT(counter_value(snap, "qokit_alltoall_rounds_total"), 0u);

  const std::string json = snap.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"qokit_alltoall_calls_total\""),
            std::string::npos);

  EXPECT_TRUE(valid_prometheus(snap.to_prometheus()));

  // The trace covers construction (precompute), the evaluate, and the
  // rank threads' alltoall spans (merged in at rank-thread exit).
  const std::string trace = obs::trace_json();
  EXPECT_TRUE(JsonValidator(trace).valid()) << trace.substr(0, 400);
  EXPECT_FALSE(event_line(trace, "precompute").empty());
  EXPECT_FALSE(event_line(trace, "simulate").empty());
  const std::string alltoall = event_line(trace, "alltoall");
  ASSERT_FALSE(alltoall.empty());
  EXPECT_NE(alltoall.find("\"ranks\":2"), std::string::npos) << alltoall;
}

TEST_F(ObsTest, BatchTimingsArePerItem) {
  const api::ProblemSession s = labs_session("auto");
  const std::vector<QaoaParams> batch{linear_ramp(1), linear_ramp(4),
                                      linear_ramp(2)};
  const std::vector<api::EvalResult> rs = s.evaluate_batch(batch);
  ASSERT_EQ(rs.size(), batch.size());
  for (const api::EvalResult& r : rs) {
    EXPECT_EQ(r.timings.precompute_ns, s.precompute_ns());
    // This item's own evolution time, nested inside the whole call.
    EXPECT_GT(r.timings.simulate_ns, 0u);
    EXPECT_GT(r.timings.batch_ns, 0u);
    EXPECT_LE(r.timings.simulate_ns, r.timings.batch_ns);
    EXPECT_LE(r.timings.reduce_ns, r.timings.batch_ns);
  }
  // One shared submission: every item reports the same whole-call time,
  // but per-item attribution must not just repeat the aggregate.
  EXPECT_EQ(rs[0].timings.batch_ns, rs[1].timings.batch_ns);
  EXPECT_NE(rs[1].timings.simulate_ns, rs[1].timings.batch_ns);

  // Scalar evaluate has no enclosing batch.
  const api::EvalResult scalar = s.evaluate(linear_ramp(2));
  EXPECT_EQ(scalar.timings.batch_ns, 0u);
  EXPECT_GT(scalar.timings.simulate_ns, 0u);

  // The engine times each item itself; the precompute and the whole-call
  // time are the session's to stamp.
  for (const api::EvalResult& r : s.batch().evaluate(batch)) {
    EXPECT_GT(r.timings.simulate_ns, 0u);
    EXPECT_EQ(r.timings.precompute_ns, 0u);
    EXPECT_EQ(r.timings.batch_ns, 0u);
  }
}

TEST_F(ObsTest, EvaluateFusesOneReductionIntoItsFinalPass) {
  // Each evaluate issues its layers' passes with the expectation fused
  // into the final one: one fused reduction per evaluate, the same pass
  // counts and the same bits on a repeat. n = 12 has a tile pass and can
  // fuse.
  obs::set_enabled(true);
  const obs::Counter counters[] = {
      obs::counter("qokit_pipeline_tile_passes_total"),
      obs::counter("qokit_pipeline_strided_passes_total"),
      obs::counter("qokit_pipeline_fused_reductions_total"),
  };
  for (const char* spec : {"auto", "serial", "u16", "auto:prec=f32",
                           "serial:prec=f32", "u16:prec=f32"}) {
    const api::ProblemSession s =
        api::ProblemSession::labs(12, SimulatorSpec::parse(spec));
    api::EvalRequest req;
    req.overlap = true;
    std::vector<std::uint64_t> moved[2];
    double energy[2] = {};
    for (const int call : {0, 1}) {
      std::uint64_t before[3];
      for (int i = 0; i < 3; ++i) before[i] = counters[i].value();
      energy[call] = s.evaluate(linear_ramp(3), req).expectation.value();
      for (int i = 0; i < 3; ++i)
        moved[call].push_back(counters[i].value() - before[i]);
    }
    EXPECT_EQ(moved[1], moved[0]) << spec;
    EXPECT_EQ(moved[0][2], 1u) << spec;  // one fused reduction per evaluate
    EXPECT_GT(moved[0][0], 0u) << spec;
    EXPECT_EQ(energy[1], energy[0]) << spec;
  }
}

TEST_F(ObsTest, KernelCallsCountAgainstTheActiveSimdLevel) {
  // qokit_simd_level holds the numeric level, and each dispatch-entry call
  // moves exactly the active level's counter.
  obs::set_enabled(true);
  const qokit::testing::SimdLevelGuard guard;
  const obs::Counter calls[] = {
      obs::counter("qokit_kernel_calls_scalar_total"),
      obs::counter("qokit_kernel_calls_avx2_total"),
      obs::counter("qokit_kernel_calls_avx512_total"),
  };
  StateVector sv = StateVector::plus_state(6);
  for (const SimdLevel level : qokit::testing::installable_simd_levels()) {
    ASSERT_EQ(force_simd_level(level), level);
    std::uint64_t before[3];
    for (int i = 0; i < 3; ++i) before[i] = calls[i].value();
    simd::rx(sv.data(), sv.size(), 0, 0.6, 0.8, Exec::Serial);
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(calls[i].value() - before[i],
                i == static_cast<int>(level) ? 1u : 0u)
          << simd_level_name(level) << " counter " << i;
    EXPECT_EQ(obs::gauge("qokit_simd_level").value(),
              static_cast<double>(level))
        << simd_level_name(level);
  }
}

TEST_F(ObsTest, TraceRetentionCapDropsAndCountsTheOverflow) {
  // A thread keeps at most kMaxShardEvents spans; the rest are dropped
  // and counted, so a runaway obs-on loop stays memory-bounded. A
  // finished thread's events are retired whole, under the global cap.
  obs::set_enabled(true);
  obs::reset();
  std::thread([] {
    for (int i = 0; i < obs::detail::kMaxShardEvents + 5; ++i)
      obs::Span span("retention_probe");
  }).join();
  EXPECT_EQ(obs::trace_event_count(),
            static_cast<std::uint64_t>(obs::detail::kMaxShardEvents));
  EXPECT_EQ(obs::dropped_event_count(), 5u);
  obs::reset();
  EXPECT_EQ(obs::dropped_event_count(), 0u);
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST_F(ObsTest, GaugeAndResetSemantics) {
  obs::set_enabled(true);
  const obs::Gauge g = obs::gauge("qokit_test_gauge");
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);

  const obs::Counter c = obs::counter("qokit_test_reset_counter");
  c.add(7);
  EXPECT_GE(c.value(), 7u);
  obs::reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(obs::trace_event_count(), 0u);

  // Re-registration by name returns the same metric; a kind clash throws.
  c.add(1);
  EXPECT_EQ(obs::counter("qokit_test_reset_counter").value(), 1u);
  EXPECT_THROW(obs::gauge("qokit_test_reset_counter"), std::logic_error);
}

}  // namespace
