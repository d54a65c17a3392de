// Schedule-server quick start.
//
// Default mode (what ctest runs): start a ScheduleServer on a local
// AF_UNIX socket, answer the same (problem, schedule-batch) request twice
// through the in-process submit() path and twice through the binary
// socket protocol, and print what the session cache amortized away -- the
// first request pays the diagonal precompute, every later one is a cache
// hit that only pays the (cheap, high-depth-friendly) layer evolution.
//
//   ./serve_quickstart --listen /tmp/qokit.sock
//
// runs the same server as a long-lived process instead (stop with
// Ctrl-C); any client speaking serve/protocol.hpp framing can connect,
// e.g. serve::Client.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "api/qokit.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace qokit;

  const bool listen_mode = argc > 2 && std::strcmp(argv[1], "--listen") == 0;
  serve::ServerConfig config;
  config.workers = 2;
  config.listen_path = listen_mode ? argv[2] : "serve_quickstart.sock";
  serve::ScheduleServer server(config);

  if (listen_mode) {
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::printf("serving on %s (Ctrl-C to stop)\n",
                config.listen_path.c_str());
    while (!g_stop)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.shutdown();
    std::printf("stopped.\n");
    return 0;
  }

  // One MaxCut problem, a small batch of schedules -- the request shape a
  // parameter-optimization client would send each step.
  serve::Request request;
  request.terms = maxcut_terms(Graph::random_regular(12, 3, 42));
  request.schedules = {linear_ramp(4, 0.6), linear_ramp(4, 0.8),
                       linear_ramp(4, 1.0)};

  std::printf("%-28s %-9s %12s %12s\n", "path", "cache", "eval (us)",
              "<C> of s0");
  const auto show = [](const char* path, const serve::Response& r) {
    std::printf("%-28s %-9s %12.1f %12.6f\n", path,
                r.cache_hit ? "hit" : "miss",
                static_cast<double>(r.eval_ns) * 1e-3,
                r.expectations.empty() ? 0.0 : r.expectations.front());
  };

  // In-process path: submit() returns a std::future<Response>.
  show("submit()", server.submit_blocking(request));
  show("submit()", server.submit_blocking(request));

  // Socket path: same frames a remote client would send.
  serve::Client client(config.listen_path);
  show("socket client", client.call(request));
  show("socket client", client.call(request));

  const serve::SessionCache::Stats stats = server.cache_stats();
  std::printf(
      "cache: %llu hit(s), %llu miss(es), %llu session(s) resident "
      "(~%.1f MiB)\n",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.sessions),
      static_cast<double>(stats.bytes) / (1024.0 * 1024.0));
  server.shutdown();
  return stats.hits == 3 && stats.misses == 1 ? 0 : 1;
}
