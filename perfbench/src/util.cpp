#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "bench/bench_report.hpp"
#include "bench_util.hpp"

namespace perfbench {

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::pair<double, double> steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  // user nice system idle iowait irq softirq steal guest guest_nice
  for (int field = 0; field < 8 && (stat >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::uint64_t llc_bytes() {
  // The highest cache index sysfs lists for cpu0 is the last level.
  std::uint64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream size_file(dir + "/size");
    std::string text;
    if (!(size_file >> text) || text.empty()) continue;
    std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
    const char unit = text.back();
    if (unit == 'K') value <<= 10;
    if (unit == 'M') value <<= 20;
    if (unit == 'G') value <<= 30;
    best = std::max(best, value);
  }
  if (best == 0) {
    const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (v > 0) best = static_cast<std::uint64_t>(v);
  }
  return best;
}

std::vector<SelfTime> self_times(
    const std::vector<SpanRecorder::Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const SpanRecorder::Span& s : spans)
    if (s.parent >= 0 && s.end_ns >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecorder::Span& s = spans[i];
    if (s.end_ns < 0) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ms += dur * 1e-6;
    // Children may run concurrently (serving clients), so clamp at 0.
    t.self_ms += std::max(0.0, dur - child_ns[i]) * 1e-6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool write_trace(const std::string& path,
                 const std::vector<SpanRecorder::Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecorder::Span& s = spans[i];
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"request\": %lld}}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(end - s.start_ns) * 1e-3, i, s.parent,
                 static_cast<long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

std::string context_json(const Config& cfg, std::uint64_t working_set_bytes) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  if (!mem) throw std::runtime_error("open_memstream failed");
  std::fprintf(mem, "{\n");
  qokit::bench::write_context(mem, cfg.smoke);
  std::fprintf(mem,
               "  \"workload\": \"%s\",\n"
               "  \"seed\": %llu,\n"
               "  \"seconds\": %s,\n"
               "  \"trace\": %s,\n"
               "  \"nproc\": %ld,\n"
               "  \"llc_bytes\": %llu,\n"
               "  \"working_set_bytes\": %llu,\n"
               "  \"env\": \"%s\"\n"
               "}",
               cfg.workload.c_str(),
               static_cast<unsigned long long>(cfg.seed),
               Metrics::number(cfg.seconds).c_str(),
               cfg.trace ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
               static_cast<unsigned long long>(llc_bytes()),
               static_cast<unsigned long long>(working_set_bytes),
               qokit::bench::json_sanitize(cfg.env_record).c_str());
  std::fclose(mem);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

}  // namespace perfbench
