// Machine topology discovery: the cache and core facts the runtime sizes
// itself by.
//
// The pipeline's speedup argument (LayerPlan doc) is entirely about the
// cache hierarchy: tiles must sit in L2, strided working sets in L1/L2,
// and the thread count must match physical cores, not SMT siblings. This
// probe reads exactly those facts from Linux sysfs (with sysconf and
// hardware_concurrency fallbacks) into one plain struct;
// make_simulator turns it into a pipeline::Geometry
// (Geometry::for_caches), a thread count, and the NUMA first-touch switch.
//
// Everything is injectable for tests: probe_machine takes a filesystem
// root, so a fake sysfs tree under /tmp exercises every parse path
// deterministically, and MachineTopology's defaults are chosen so a
// machine where every probe fails still reproduces the static pipeline
// geometry (Geometry::defaults()).
#pragma once

#include <cstdint>
#include <string>

namespace qokit {

/// What the probe learned about this machine. Defaults describe a
/// conservative single-socket box whose derived geometry equals
/// pipeline::Geometry::defaults() — total probe failure is never worse
/// than the static configuration.
struct MachineTopology {
  std::uint64_t l1d_bytes = 32768;   ///< per-core L1 data cache
  std::uint64_t l2_bytes = 2097152;  ///< per-core (or per-CCX) L2
  int physical_cores = 1;            ///< unique (package, core) pairs
  int numa_nodes = 1;

  friend bool operator==(const MachineTopology&,
                         const MachineTopology&) = default;
};

/// Probe the machine rooted at `fs_root` (normally "/"; tests point it at
/// a fake tree containing sys/devices/system/...). Reads, in order of
/// preference:
///   - sysfs cpu0 cache indices (level/type/size)
///   - sysfs per-cpu topology (physical_package_id, core_id) for the
///     physical-core count
///   - sysfs node*/ directories for the NUMA node count
/// falling back, on the real root only, to sysconf(_SC_LEVEL*_CACHE_SIZE)
/// and std::thread::hardware_concurrency, and finally to the struct
/// defaults. Never throws; a missing or malformed file leaves that field
/// at its default.
MachineTopology probe_machine(const std::string& fs_root = "/");

}  // namespace qokit
