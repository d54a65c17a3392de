#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "batch/batch_eval.hpp"
#include "common/timer.hpp"
#include "diagonal/cost_diagonal.hpp"
#include "obs/obs.hpp"
#include "statevector/state.hpp"

namespace qokit::serve {
namespace {

using steady = std::chrono::steady_clock;

/// Full-buffer read; false on EOF or error (the connection is done either
/// way). Retries EINTR.
bool read_exact(int fd, void* buffer, std::size_t size) {
  auto* at = static_cast<std::uint8_t*>(buffer);
  while (size > 0) {
    const ssize_t got = ::read(fd, at, size);
    if (got > 0) {
      at += got;
      size -= static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Full-buffer write; false on error. Retries EINTR.
bool write_all(int fd, const void* buffer, std::size_t size) {
  const auto* at = static_cast<const std::uint8_t*>(buffer);
  while (size > 0) {
    const ssize_t put = ::write(fd, at, size);
    if (put > 0) {
      at += put;
      size -= static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Bind-or-throw for the AF_UNIX listening socket.
int bind_unix_listener(const std::string& path, int backlog) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw std::invalid_argument("ScheduleServer: listen_path too long: " +
                                path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::system_error(errno, std::generic_category(),
                            "ScheduleServer: socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale socket file from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(),
                            "ScheduleServer: bind/listen on " + path);
  }
  return fd;
}

/// Refuse a problem whose smallest possible session at the spec's width
/// (the diagonal plus one state) exceeds the state-vector limit or the
/// cache budget, so an oversized request never reaches an allocation.
void check_fits(const TermList& terms, Precision prec, std::uint64_t budget) {
  const int n = terms.num_qubits();
  check_qubit_limit(n, "serve");
  const std::uint64_t bytes = session_footprint_bytes(n, terms.size(), prec);
  if (bytes > budget)
    throw std::invalid_argument(
        "serve: a " + std::to_string(n) + "-qubit session needs at least " +
        std::to_string(bytes) + " bytes, over the " +
        std::to_string(budget) + "-byte cache budget");
}

Response immediate(Status status, std::string error) {
  Response response;
  response.status = status;
  response.error = std::move(error);
  return response;
}

/// Read one frame of the given expected type from `fd`. Returns false on
/// clean EOF before a header; throws ProtocolError on malformed framing.
bool read_frame(int fd, FrameType expected,
                std::vector<std::uint8_t>* payload) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!read_exact(fd, header, sizeof header)) return false;
  const FrameHeader h = decode_frame_header(header);
  if (h.type != expected)
    throw ProtocolError("serve: unexpected frame type");
  payload->resize(h.payload_len);
  if (h.payload_len != 0 && !read_exact(fd, payload->data(), payload->size()))
    throw ProtocolError("serve: truncated frame");
  return true;
}

}  // namespace

ScheduleServer::ScheduleServer(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_bytes),
      queue_(config_.queue_capacity) {
  if (config_.workers < 0)
    throw std::invalid_argument("ScheduleServer: workers must be >= 0");
  if (!config_.listen_path.empty())
    listen_fd_ =
        bind_unix_listener(config_.listen_path, config_.listen_backlog);
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (listen_fd_ >= 0) acceptor_ = std::thread([this] { accept_loop(); });
}

ScheduleServer::~ScheduleServer() { shutdown(); }

std::future<Response> ScheduleServer::submit(Request request) {
  static const obs::Counter rejected =
      obs::counter("qokit_serve_rejected_total");
  static const obs::Gauge depth_gauge =
      obs::gauge("qokit_serve_queue_depth");
  Job job{std::move(request), {}, steady::now()};
  std::future<Response> result = job.promise.get_future();
  if (stopping_.load(std::memory_order_acquire)) {
    job.promise.set_value(
        immediate(Status::ShuttingDown, "server is shutting down"));
    return result;
  }
  if (!queue_.try_push(std::move(job))) {
    rejected.add();
    job.promise.set_value(immediate(
        Status::Overloaded,
        "work queue full (" + std::to_string(queue_.capacity()) +
            " pending requests); retry later"));
    return result;
  }
  depth_gauge.set(static_cast<double>(queue_.depth()));
  return result;
}

Response ScheduleServer::submit_blocking(Request request) {
  return submit(std::move(request)).get();
}

void ScheduleServer::worker_loop() {
  static const obs::Gauge depth_gauge =
      obs::gauge("qokit_serve_queue_depth");
  while (std::optional<Job> job = queue_.pop()) {
    depth_gauge.set(static_cast<double>(queue_.depth()));
    Response response = handle(job->request, job->enqueued);
    job->promise.set_value(std::move(response));
  }
}

Response ScheduleServer::handle(Request& request,
                                steady::time_point enqueued) {
  static const obs::Counter requests =
      obs::counter("qokit_serve_requests_total");
  static const obs::Counter failures =
      obs::counter("qokit_serve_request_failures_total");
  static const obs::Histogram request_hist =
      obs::histogram("qokit_serve_request_ns");
  static const obs::Histogram queue_wait_hist =
      obs::histogram("qokit_serve_queue_wait_ns");
  requests.add();
  obs::Span span("serve_request");
  span.attr("schedules", static_cast<std::int64_t>(request.schedules.size()));

  Response response;
  const steady::time_point started = steady::now();
  response.queue_ns = elapsed_ns(enqueued, started);
  queue_wait_hist.record(response.queue_ns);
  try {
    if (request.terms.num_qubits() < 1)
      throw std::invalid_argument("serve: request carries no problem terms");
    const EvalRequest eval{.expectation = request.expectation,
                           .overlap = request.overlap,
                           .overlap_weight = request.overlap_weight};
    // Before the checkout, so a bad schedule, an out-of-range overlap
    // weight, an oversized problem, non-finite costs or an overflowing
    // phase never pays a miss's precompute or allocation. The phase check
    // reads sum_t |w_t| >= max_x |c_x| from the terms alone, so it also
    // refuses gammas a built session would still evolve (DESIGN.md).
    check_batch(request.schedules, eval, request.terms.num_qubits());
    check_fits(request.terms, request.spec.prec, config_.cache_bytes);
    const double bound = checked_cost_bound(request.terms, "serve");
    for (const QaoaParams& schedule : request.schedules)
      check_phase_angles(bound, "the terms' sum of |weight|",
                         schedule.gammas);
    SessionLease lease = cache_.checkout(request.terms, request.spec);
    response.cache_hit = lease.hit();
    span.attr("cache_hit", static_cast<std::int64_t>(lease.hit() ? 1 : 0));
    const std::vector<EvalResult> results =
        lease->evaluate_batch(request.schedules, eval);
    if (request.expectation) {
      response.expectations.reserve(results.size());
      for (const EvalResult& r : results)
        response.expectations.push_back(r.expectation.value());
    }
    if (request.overlap) {
      response.overlaps.reserve(results.size());
      for (const EvalResult& r : results)
        response.overlaps.push_back(r.overlap.value());
    }
    response.status = Status::Ok;
  } catch (const std::invalid_argument& e) {
    response.status = Status::BadRequest;
    response.error = e.what();
    failures.add();
  } catch (const std::exception& e) {
    response.status = Status::InternalError;
    response.error = e.what();
    failures.add();
  }
  const steady::time_point finished = steady::now();
  response.eval_ns = elapsed_ns(started, finished);
  request_hist.record(elapsed_ns(enqueued, finished));
  return response;
}

void ScheduleServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() closed/shut down the listener (or it genuinely failed;
      // either way the acceptor is done).
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const MutexLock lock(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void ScheduleServer::connection_loop(int fd) {
  static const obs::Counter malformed =
      obs::counter("qokit_serve_malformed_frames_total");
  std::vector<std::uint8_t> payload;
  for (;;) {
    Response response;
    bool close_after_reply = false;
    try {
      if (!read_frame(fd, FrameType::Request, &payload)) break;  // EOF
      Request request = decode_request(payload);
      response = submit(std::move(request)).get();
    } catch (const ProtocolError& e) {
      // Framing is broken: answer once so the client sees why, then close
      // (the stream can no longer be trusted to be frame-aligned).
      malformed.add();
      response = immediate(Status::BadRequest, e.what());
      close_after_reply = true;
    } catch (const std::invalid_argument& e) {
      // Well-framed, semantically bad (e.g. an unparseable spec token):
      // report and keep serving this connection.
      response = immediate(Status::BadRequest, e.what());
    }
    const std::vector<std::uint8_t> frame = encode_response(response);
    if (!write_all(fd, frame.data(), frame.size())) break;
    if (close_after_reply) break;
  }
  // Deregister before closing: once closed the fd number can be reused,
  // and shutdown() must never SHUT_RDWR someone else's descriptor.
  {
    const MutexLock lock(conn_mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

void ScheduleServer::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Stop the socket front end first so no new work arrives while the
  // queue drains.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    const MutexLock lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  // Connection threads exit on their shut-down fds; their submits resolve
  // as ShuttingDown (stopping_ is set) or drain through the workers.
  for (;;) {
    std::vector<std::thread> conns;
    {
      const MutexLock lock(conn_mu_);
      conns.swap(conn_threads_);
    }
    if (conns.empty()) break;
    for (std::thread& t : conns) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(config_.listen_path.c_str());
    listen_fd_ = -1;
  }
  // Close the queue: workers drain what is already queued, then exit.
  queue_.close();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // With no workers left (including the workers == 0 test configuration),
  // fail whatever never got drained.
  while (std::optional<Job> job = queue_.pop())
    job->promise.set_value(
        immediate(Status::ShuttingDown, "server shut down before evaluation"));
}

Client::Client(const std::string& socket_path) {
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw std::invalid_argument("serve::Client: socket path too long: " +
                                socket_path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw std::system_error(errno, std::generic_category(),
                            "serve::Client: socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::system_error(err, std::generic_category(),
                            "serve::Client: connect to " + socket_path);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Response Client::call(const Request& request) {
  const std::vector<std::uint8_t> frame = encode_request(request);
  if (!write_all(fd_, frame.data(), frame.size()))
    throw std::runtime_error("serve::Client: connection lost on write");
  std::vector<std::uint8_t> payload;
  if (!read_frame(fd_, FrameType::Response, &payload))
    throw std::runtime_error("serve::Client: connection closed by server");
  return decode_response(payload);
}

}  // namespace qokit::serve
