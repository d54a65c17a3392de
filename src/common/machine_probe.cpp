#include "common/machine_probe.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#if defined(__linux__) || defined(__unix__)
#include <unistd.h>
#define QOKIT_HAVE_SYSCONF 1
#endif

namespace qokit {

namespace {

// Read a whole small file; empty string on any failure (probe fields then
// keep their defaults — the probe never throws).
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string trimmed(std::string s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && is_space(static_cast<unsigned char>(s.back())))
    s.pop_back();
  std::size_t b = 0;
  while (b < s.size() && is_space(static_cast<unsigned char>(s[b]))) ++b;
  return s.substr(b);
}

// Parse sysfs cache sizes: "32K", "2048K", "20480K", occasionally "1M".
// Returns 0 on anything unparseable.
std::uint64_t parse_size(const std::string& raw) {
  const std::string s = trimmed(raw);
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) == 0)
    return 0;
  std::size_t pos = 0;
  std::uint64_t value = 0;
  while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
    value = value * 10 + static_cast<std::uint64_t>(s[pos] - '0');
    ++pos;
  }
  if (pos < s.size()) {
    const char suffix =
        static_cast<char>(std::toupper(static_cast<unsigned char>(s[pos])));
    if (suffix == 'K') value <<= 10;
    else if (suffix == 'M') value <<= 20;
    else if (suffix == 'G') value <<= 30;
  }
  return value;
}

int parse_int_or(const std::string& raw, int fallback) {
  const std::string s = trimmed(raw);
  if (s.empty()) return fallback;
  try {
    return std::stoi(s);
  } catch (...) {
    return fallback;
  }
}

bool dir_exists(const std::string& path) {
  std::error_code ec;  // noexcept overload: a probe must never throw
  return std::filesystem::is_directory(path, ec);
}

void probe_caches(const std::string& cpu0, MachineTopology& topo) {
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        cpu0 + "/cache/index" + std::to_string(index) + "/";
    const std::string type = trimmed(slurp(base + "type"));
    if (type.empty()) break;  // indices are dense; first gap ends the scan
    const int level = parse_int_or(slurp(base + "level"), 0);
    const std::uint64_t size = parse_size(slurp(base + "size"));
    if (size == 0) continue;
    if (level == 1 && (type == "Data" || type == "Unified"))
      topo.l1d_bytes = size;
    else if (level == 2)
      topo.l2_bytes = size;
  }
}

/// Fills physical_cores from the per-cpu topology files; returns the
/// number of logical CPUs found (0 when the tree has none).
int probe_cores(const std::string& cpu_root, MachineTopology& topo) {
  std::set<std::pair<int, int>> cores;
  int logical = 0;
  for (int cpu = 0; cpu < 4096; ++cpu) {
    const std::string base =
        cpu_root + "/cpu" + std::to_string(cpu) + "/topology/";
    const std::string core_raw = slurp(base + "core_id");
    if (core_raw.empty()) break;  // cpuN dirs are dense
    ++logical;
    cores.emplace(parse_int_or(slurp(base + "physical_package_id"), 0),
                  parse_int_or(core_raw, cpu));
  }
  if (logical > 0) topo.physical_cores = static_cast<int>(cores.size());
  return logical;
}

void probe_numa(const std::string& node_root, MachineTopology& topo) {
  int nodes = 0;
  for (int node = 0; node < 1024; ++node) {
    if (!dir_exists(node_root + "/node" + std::to_string(node))) break;
    ++nodes;
  }
  if (nodes > 0) topo.numa_nodes = nodes;
}

}  // namespace

MachineTopology probe_machine(const std::string& fs_root) {
  MachineTopology topo;
  std::string root = fs_root;
  while (root.size() > 1 && root.back() == '/') root.pop_back();
  if (root == "/") root.clear();

  const std::string cpu_root = root + "/sys/devices/system/cpu";
  probe_caches(cpu_root + "/cpu0", topo);
  const int logical_cpus = probe_cores(cpu_root, topo);
  probe_numa(root + "/sys/devices/system/node", topo);

  // Fallbacks consult the host, so they run on the real root only (the
  // injected-root test trees must see exactly what they describe).
  if (!root.empty()) return topo;
#ifdef QOKIT_HAVE_SYSCONF
  // sysconf fallback for containers that hide sysfs cache dirs. Only
  // fills fields the sysfs scan left at defaults.
#ifdef _SC_LEVEL1_DCACHE_SIZE
  if (topo.l1d_bytes == MachineTopology{}.l1d_bytes) {
    const long l1 = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
    if (l1 > 0) topo.l1d_bytes = static_cast<std::uint64_t>(l1);
  }
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  if (topo.l2_bytes == MachineTopology{}.l2_bytes) {
    const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (l2 > 0) topo.l2_bytes = static_cast<std::uint64_t>(l2);
  }
#endif
#endif  // QOKIT_HAVE_SYSCONF
  const unsigned hw = std::thread::hardware_concurrency();
  if (logical_cpus <= 1 && hw > 0) {
    // Without per-cpu topology files assume no SMT rather than halve:
    // overcommitting threads costs more than undercounting cores saves.
    topo.physical_cores = static_cast<int>(hw);
  }
  return topo;
}

}  // namespace qokit
