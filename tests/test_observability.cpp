// Observability subsystem (src/obs/): the disabled-is-free contract, span
// nesting and attributes, histogram bucket math, Exec-invariant counter
// totals, exporter round-trips (JSON / Prometheus / chrome-tracing), and
// the per-item batch timing attribution it rode in with.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/qokit.hpp"
#include "obs/obs.hpp"
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

/// One round of everything instrumented: a timed scalar evaluate with
/// overlap + sampling, then a mixed-depth batch.
void run_queries(const api::ProblemSession& s) {
  api::EvalRequest req;
  req.overlap = true;
  req.timings = true;
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
  // paths and creates the thread shards, the only obs-internal heap
  // activity there is.
  obs::set_enabled(true);
  const api::ProblemSession warm = labs_session("auto");
  run_queries(warm);

  obs::set_enabled(false);
  const std::uint64_t allocs = obs::detail::allocation_count();
  const std::uint64_t events = obs::trace_event_count();
  const obs::Snapshot before = obs::snapshot();

  // Same workload, plus a fresh session (construction paths included):
  // with observability off nothing may allocate, count, or trace.
  run_queries(warm);
  const api::ProblemSession cold = labs_session("auto");
  run_queries(cold);

  const obs::Snapshot after = obs::snapshot();
  EXPECT_EQ(obs::detail::allocation_count(), allocs);
  EXPECT_EQ(obs::trace_event_count(), events);
  EXPECT_EQ(before.counters, after.counters);
}

TEST_F(ObsTest, SpanNestingAndAttributes) {
  obs::set_enabled(true);
  obs::reset();
  const api::ProblemSession s = labs_session("serial");
  api::EvalRequest req;
  req.timings = true;
  s.evaluate(linear_ramp(3), req);

  const std::string trace = obs::trace_json();
  EXPECT_TRUE(JsonValidator(trace).valid()) << trace.substr(0, 400);

  // Nesting depths recorded at open: evaluate (0) > layer (1) >
  // simulate (2) > pipeline_layer (3); reduce reopens at depth 1.
  const std::string evaluate = event_line(trace, "evaluate");
  ASSERT_FALSE(evaluate.empty());
  EXPECT_NE(evaluate.find("\"depth\":0"), std::string::npos) << evaluate;
  EXPECT_NE(evaluate.find("\"n\":10"), std::string::npos) << evaluate;
  EXPECT_NE(evaluate.find("\"p\":3"), std::string::npos) << evaluate;
  EXPECT_NE(evaluate.find("\"backend\":\"serial\""), std::string::npos)
      << evaluate;

  const std::string layer = event_line(trace, "layer");
  ASSERT_FALSE(layer.empty());
  EXPECT_NE(layer.find("\"depth\":1"), std::string::npos) << layer;

  const std::string simulate = event_line(trace, "simulate");
  ASSERT_FALSE(simulate.empty());
  EXPECT_NE(simulate.find("\"depth\":2"), std::string::npos) << simulate;

  const std::string reduce = event_line(trace, "reduce");
  ASSERT_FALSE(reduce.empty());
  EXPECT_NE(reduce.find("\"depth\":1"), std::string::npos) << reduce;

  // The precompute span from construction is there too, at top level.
  const std::string precompute = event_line(trace, "precompute");
  ASSERT_FALSE(precompute.empty());
  EXPECT_NE(precompute.find("\"depth\":0"), std::string::npos)
      << precompute;
}

TEST_F(ObsTest, HistogramBucketMath) {
  obs::set_enabled(true);
  obs::reset();
  const obs::Histogram h =
      obs::histogram("qokit_test_bucket_math", {10, 100, 1000});
  h.record(5);
  h.record(10);  // boundary lands in its own bucket (v <= bound)
  h.record(11);
  h.record(1000);
  h.record(5000);  // overflow

  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSnapshot* hs =
      find_histogram(snap, "qokit_test_bucket_math");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->bounds, (std::vector<std::uint64_t>{10, 100, 1000}));
  EXPECT_EQ(hs->buckets, (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(hs->count, 5u);
  EXPECT_EQ(hs->sum, 6026u);

  // Prometheus renders the same data cumulatively.
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("qokit_test_bucket_math_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_bucket{le=\"100\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_bucket{le=\"1000\"} 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_sum 6026\n"),
            std::string::npos);
  EXPECT_NE(prom.find("qokit_test_bucket_math_count 5\n"),
            std::string::npos);

  EXPECT_THROW(obs::histogram("qokit_bad_bounds", {}),
               std::invalid_argument);
  EXPECT_THROW(obs::histogram("qokit_bad_bounds", {100, 10}),
               std::invalid_argument);
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
  EXPECT_GT(counter_value(serial, "qokit_evaluates_total"), 0u);
  EXPECT_GT(counter_value(serial, "qokit_sampler_draws_total"), 0u);
  EXPECT_GT(counter_value(serial, "qokit_batch_schedules_total"), 0u);
}

TEST_F(ObsTest, ExportsParseBackUnderDist) {
  obs::set_enabled(true);
  obs::reset();
  const api::ProblemSession s = labs_session("dist:2");
  api::EvalRequest req;
  req.timings = true;
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
  api::EvalRequest req;
  req.timings = true;
  const std::vector<api::EvalResult> rs = s.evaluate_batch(batch, req);
  ASSERT_EQ(rs.size(), batch.size());
  for (const api::EvalResult& r : rs) {
    ASSERT_TRUE(r.timings.has_value());
    EXPECT_EQ(r.timings->precompute_ns, s.precompute_ns());
    // This item's own evolution time, nested inside the whole call.
    EXPECT_GT(r.timings->simulate_ns, 0u);
    EXPECT_GT(r.timings->batch_ns, 0u);
    EXPECT_LE(r.timings->simulate_ns, r.timings->batch_ns);
    EXPECT_LE(r.timings->reduce_ns, r.timings->batch_ns);
  }
  // One shared submission: every item reports the same whole-call time,
  // but per-item attribution must not just repeat the aggregate.
  EXPECT_EQ(rs[0].timings->batch_ns, rs[1].timings->batch_ns);
  EXPECT_NE(rs[1].timings->simulate_ns, rs[1].timings->batch_ns);

  // Scalar evaluate has no enclosing batch.
  api::EvalRequest scalar_req;
  scalar_req.timings = true;
  const api::EvalResult scalar = s.evaluate(linear_ramp(2), scalar_req);
  ASSERT_TRUE(scalar.timings.has_value());
  EXPECT_EQ(scalar.timings->batch_ns, 0u);
  EXPECT_EQ(scalar.timings->layer_ns.size(), 2u);

  // The engine-level switch: timing vectors only materialize on request.
  BatchOptions opts;
  const BatchResult plain = s.batch().evaluate(batch, opts);
  EXPECT_TRUE(plain.simulate_ns.empty());
  EXPECT_TRUE(plain.reduce_ns.empty());
  opts.record_timings = true;
  const BatchResult timed = s.batch().evaluate(batch, opts);
  EXPECT_EQ(timed.simulate_ns.size(), batch.size());
  EXPECT_EQ(timed.reduce_ns.size(), batch.size());
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
