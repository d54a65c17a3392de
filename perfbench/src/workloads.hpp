// The three benchmark workloads and the inputs they draw from --seed.
//
//   maxcut24_deep    repeated ProblemSession::evaluate of seeded p=64
//                    schedules on a random 3-regular MaxCut graph, n=24
//   labs20_optimize  repeated ProblemSession::optimize (Nelder-Mead, 300
//                    evaluations from the default linear ramp) on LABS
//                    n=20, p=8
//   sk16_serve       2 closed-loop socket clients sending 4-schedule p=4
//                    requests over a skewed pool of SK n=16 instances about
//                    3x larger than the ScheduleServer's session cache
//
// The timed run of each workload is the production path with tracing off;
// run_replay() is the separate traced run that replays the same workload
// through the public functions of each module.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "bench_util.hpp"
#include "serve/protocol.hpp"
#include "terms/term.hpp"

namespace perfbench {

/// What one benchmark invocation produced.
struct Outcome {
  Metrics metrics;  ///< the result line's metrics
  Metrics info;     ///< printed for the reader only (wall-clock figures)
  Tally tally;
  std::uint64_t working_set_bytes = 0;  ///< stamped into the context
};

/// The set-up step is repeated at least kSetupReps times and until
/// kSetupSeconds have passed; setup_s is the median.
inline constexpr int kSetupReps = 5;
inline constexpr double kSetupSeconds = 3.0;

/// Independent input streams derived from the one --seed.
enum Stream : std::uint64_t {
  kGraphStream = 1,
  kScheduleStream = 2,
  kPoolStream = 4,
  kRequestStream = 5,
};

struct MaxcutShape {
  int n;
  int p;
};
MaxcutShape maxcut_shape(bool smoke);
/// Terms of the seeded random 3-regular graph.
qokit::TermList maxcut_problem(const Config& cfg);

struct LabsShape {
  int n;
  int p;
  int max_evals;
};
LabsShape labs_shape(bool smoke);
/// The optimizer run: Nelder-Mead with the fixed evaluation budget from
/// the default linear ramp. LABS has one instance per n, so this workload's
/// inputs do not depend on the seed; a seeded start would change the
/// optimizer's trajectory, and with it the batch mix the run measures.
qokit::api::OptimizerSpec labs_optimizer(const LabsShape& shape);

struct ServeShape {
  int n;
  int p;
  int pool;            ///< SK instances requests are drawn from
  int cache_sessions;  ///< sessions the cache budget holds
  int schedules_per_request;
  int clients;
  int workers;
};
ServeShape serve_shape(bool smoke);

/// The serving workload's inputs: the SK pool, its seeded Zipf popularity,
/// the cache budget, and each client's request stream.
class ServeTraffic {
 public:
  explicit ServeTraffic(const Config& cfg);

  const ServeShape& shape() const { return shape_; }
  const std::vector<qokit::TermList>& pool() const { return pool_; }
  /// Pool index of the instance with popularity rank `rank` (0 = most
  /// requested).
  int popular(int rank) const {
    return order_.at(static_cast<std::size_t>(rank));
  }
  /// Budget that holds exactly shape().cache_sessions sessions.
  std::uint64_t cache_budget() const { return budget_; }

  /// Client `client`'s request stream.
  qokit::Rng client_stream(int client) const;
  /// Draw the next (pool index, request) from a client stream.
  std::pair<int, qokit::serve::Request> next(qokit::Rng& rng) const;
  /// A request for pool instance `index` with fresh schedules from `rng`.
  qokit::serve::Request request_for(int index, qokit::Rng& rng) const;

 private:
  Config cfg_;
  ServeShape shape_;
  std::vector<qokit::TermList> pool_;
  std::vector<int> order_;   ///< pool indices by popularity rank
  std::vector<double> cdf_;  ///< Zipf CDF over popularity ranks
  std::uint64_t budget_ = 0;
};

/// Socket path for a server started by this process.
std::string socket_path(const Config& cfg, const char* tag);

Outcome run_maxcut(const Config& cfg);
Outcome run_labs(const Config& cfg);
Outcome run_serve(const Config& cfg);

/// The traced replay of cfg.workload; spans go to `rec`.
Outcome run_replay(const Config& cfg, SpanRecorder& rec);

}  // namespace perfbench
