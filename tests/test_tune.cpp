// Machine-derived execution settings: the sysfs topology probe against
// injected fake trees, the closed-form cache rule
// (pipeline::Geometry::for_caches) at pinned topologies, the thread,
// first-touch and gauge rules apply_machine sets for pinned topologies,
// that make_simulator hands every simulator the geometry derived from the
// probed machine, and that NUMA first-touch placement moves pages, never
// bits. That any Geometry is bit-identical to any other is pinned by
// test_pipeline.cpp's tiling matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "api/qokit.hpp"
#include "common/aligned.hpp"
#include "common/machine_probe.hpp"
#include "obs/obs.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace qokit {
namespace {

namespace fs = std::filesystem;
using pipeline::Geometry;

/// Scratch directory for this binary's fake trees.
/// ctest parallelism is across binaries, so a fixed name is race-free.
fs::path scratch_dir() {
  const fs::path dir = fs::temp_directory_path() / "qokit_test_tune";
  fs::create_directories(dir);
  return dir;
}

void write_file(const fs::path& path, const std::string& content) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << content;
}

QaoaParams test_schedule() {
  QaoaParams s;
  s.gammas = {0.31, -0.47, 0.83};
  s.betas = {0.78, 0.15, -0.52};
  return s;
}

// ------------------------------------------------------- topology probe

TEST(MachineProbe, ReadsAnInjectedSysfsTree) {
  const fs::path root = scratch_dir() / "fake_sysfs";
  fs::remove_all(root);
  const fs::path cpu = root / "sys/devices/system/cpu";
  write_file(cpu / "cpu0/cache/index0/type", "Data\n");
  write_file(cpu / "cpu0/cache/index0/level", "1\n");
  write_file(cpu / "cpu0/cache/index0/size", "48K\n");
  write_file(cpu / "cpu0/cache/index1/type", "Instruction\n");
  write_file(cpu / "cpu0/cache/index1/level", "1\n");
  write_file(cpu / "cpu0/cache/index1/size", "32K\n");
  write_file(cpu / "cpu0/cache/index2/type", "Unified\n");
  write_file(cpu / "cpu0/cache/index2/level", "2\n");
  write_file(cpu / "cpu0/cache/index2/size", "1024K\n");
  write_file(cpu / "cpu0/cache/index3/type", "Unified\n");
  write_file(cpu / "cpu0/cache/index3/level", "3\n");
  write_file(cpu / "cpu0/cache/index3/size", "32M\n");
  for (int c = 0; c < 8; ++c) {  // 8 logical CPUs, SMT-2: 4 physical cores
    const fs::path topo = cpu / ("cpu" + std::to_string(c)) / "topology";
    write_file(topo / "physical_package_id", "0\n");
    write_file(topo / "core_id", std::to_string(c / 2) + "\n");
  }
  fs::create_directories(root / "sys/devices/system/node/node0");
  fs::create_directories(root / "sys/devices/system/node/node1");

  // Injected roots never consult the host (sysconf and
  // hardware_concurrency are real-machine-only): the fake tree sees
  // exactly what it describes. The instruction cache and L3 are skipped.
  const MachineTopology topo = probe_machine(root.string());
  EXPECT_EQ(topo.l1d_bytes, 48u * 1024);
  EXPECT_EQ(topo.l2_bytes, 1024u * 1024);
  EXPECT_EQ(topo.physical_cores, 4);
  EXPECT_EQ(topo.numa_nodes, 2);
}

TEST(MachineProbe, MissingTreeKeepsConservativeDefaults) {
  const fs::path root = scratch_dir() / "empty_root";
  fs::remove_all(root);
  fs::create_directories(root);
  const MachineTopology defaults;
  EXPECT_EQ(probe_machine(root.string()), defaults);
  // Total probe failure runs the static geometry.
  EXPECT_EQ(Geometry::for_caches(defaults.l1d_bytes, defaults.l2_bytes),
            Geometry::defaults());
}

TEST(MachineProbe, RealMachineProbeIsSane) {
  const MachineTopology topo = probe_machine();
  EXPECT_GE(topo.l1d_bytes, 1024u);
  EXPECT_GE(topo.l2_bytes, topo.l1d_bytes);
  EXPECT_GE(topo.physical_cores, 1);
  EXPECT_GE(topo.numa_nodes, 1);
}

// --------------------------------------------------------- cache rule

TEST(GeometryForCaches, ReproducesTheHandTunedDefaultsOnTheReferenceClass) {
  // The 32 KiB-L1d / 2 MiB-L2 machine class the static constants were
  // tuned for must map back onto exactly those constants.
  static_assert(Geometry::for_caches(32 << 10, 2 << 20) ==
                Geometry::defaults());
  EXPECT_EQ(Geometry::for_caches(32 << 10, 2 << 20), (Geometry{16, 6, 10}));
}

TEST(GeometryForCaches, ScalesWithTheCacheHierarchyAndIsDeterministic) {
  // Big server part: 48 KiB L1d, 8 MiB L2 → wider tiles, full groups.
  EXPECT_EQ(Geometry::for_caches(48 << 10, 8 << 20), (Geometry{18, 8, 10}));
  // Small embedded part: 16 KiB L1d, 256 KiB L2 → clamped low end.
  EXPECT_EQ(Geometry::for_caches(16 << 10, 256 << 10), (Geometry{13, 4, 9}));
  // Degenerate caches land on the clamps, never on a zero or negative knob.
  EXPECT_EQ(Geometry::for_caches(0, 0), (Geometry{12, 2, 8}));
  // Pure function: same caches in, same geometry out.
  EXPECT_EQ(Geometry::for_caches(48 << 10, 8 << 20),
            Geometry::for_caches(48 << 10, 8 << 20));
}

// ---------------------------------------------------- applied settings

TEST(MachineSettings, ApplyMachineSetsThreadsFirstTouchAndGauges) {
  // Process-wide state this test changes; restored at the end.
  const int saved_threads = max_threads();
  const bool saved_touch = first_touch_enabled();
  const bool saved_obs = obs::enabled();
  obs::set_enabled(true);
  // One thread per physical core, unless the user chose a count.
  const bool user_threads = std::getenv("OMP_NUM_THREADS") != nullptr;

  // Two-socket server: wider tiles, 32 threads, first-touch on.
  set_first_touch_enabled(false);
  MachineTopology server;
  server.l1d_bytes = 48 << 10;
  server.l2_bytes = 8 << 20;
  server.physical_cores = 32;
  server.numa_nodes = 2;
  EXPECT_EQ(apply_machine(server), (Geometry{18, 8, 10}));
  EXPECT_TRUE(first_touch_enabled());
#if defined(_OPENMP)
  EXPECT_EQ(max_threads(), user_threads ? saved_threads : 32);
#endif
  EXPECT_EQ(obs::gauge("qokit_tune_tile_log2").value(), 18.0);
  EXPECT_EQ(obs::gauge("qokit_tune_group_qubits").value(), 8.0);
  EXPECT_EQ(obs::gauge("qokit_tune_chunk_log2").value(), 10.0);
  EXPECT_EQ(obs::gauge("qokit_tune_threads").value(), 32.0);

  // Single-node workstation of the reference cache class: the static
  // geometry, 4 threads, first-touch stays off.
  set_first_touch_enabled(false);
  MachineTopology workstation;
  workstation.l1d_bytes = 32 << 10;
  workstation.l2_bytes = 2 << 20;
  workstation.physical_cores = 4;
  workstation.numa_nodes = 1;
  EXPECT_EQ(apply_machine(workstation), Geometry::defaults());
  EXPECT_FALSE(first_touch_enabled());
#if defined(_OPENMP)
  EXPECT_EQ(max_threads(), user_threads ? saved_threads : 4);
#endif
  EXPECT_EQ(obs::gauge("qokit_tune_threads").value(), 4.0);

#if defined(_OPENMP)
  omp_set_num_threads(saved_threads);
#endif
  set_first_touch_enabled(saved_touch);
  obs::set_enabled(saved_obs);
}

// ------------------------------------------------- make_simulator wiring

TEST(MachineSettings, EverySimulatorRunsTheProbedGeometry) {
  // Where the probed caches map onto Geometry::defaults() this cannot tell
  // the probe from the defaults; the test above pins apply_machine's
  // non-default outputs.
  const MachineTopology topo = probe_machine();
  const Geometry probed = Geometry::for_caches(topo.l1d_bytes, topo.l2_bytes);
  const TermList terms = sk_terms(8, 7);
  for (const char* name : {"auto", "serial", "u16", "fwht"}) {
    const auto sim = make_simulator(terms, SimulatorSpec::parse(name));
    const auto* fur = dynamic_cast<const FurQaoaSimulator*>(sim.get());
    ASSERT_NE(fur, nullptr) << name;
    EXPECT_EQ(fur->config().pipeline.geometry, probed) << name;
  }
  const auto dist = make_simulator(terms, SimulatorSpec::parse("dist:2"));
  const auto* dfur = dynamic_cast<const DistributedFurSimulator*>(dist.get());
  ASSERT_NE(dfur, nullptr);
  EXPECT_EQ(dfur->config().pipeline.geometry, probed);
#if defined(_OPENMP)
  // One thread per physical core, unless the user chose a count.
  if (std::getenv("OMP_NUM_THREADS") == nullptr) {
    EXPECT_EQ(max_threads(), std::max(1, topo.physical_cores));
  }
#endif
}

TEST(MachineSettings, FirstTouchPlacementIsBitIdentical) {
  // n = 16 → a 1 MiB statevector, exactly the first-touch threshold: the
  // parallel page-touch runs, and must only move pages, never bits.
  const TermList terms = sk_terms(16, 3);
  const QaoaParams sched = test_schedule();
  const bool saved = first_touch_enabled();
  set_first_touch_enabled(false);
  const auto plain = make_simulator(terms, SimulatorSpec::parse("auto"));
  const StateVector base = plain->simulate_qaoa(sched.gammas, sched.betas);
  set_first_touch_enabled(true);
  const auto touched = make_simulator(terms, SimulatorSpec::parse("auto"));
  const StateVector after =
      touched->simulate_qaoa(sched.gammas, sched.betas);
  set_first_touch_enabled(saved);
  EXPECT_EQ(base.max_abs_diff(after), 0.0);
  EXPECT_EQ(plain->get_expectation(base), touched->get_expectation(after));
}

}  // namespace
}  // namespace qokit
