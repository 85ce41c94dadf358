// Determinism regression test: two identically-seeded runs of a workload
// that exercises every formerly hash-ordered iteration path (pmap teardown,
// pmap RemoveAll, hashed-amap ForEach, object page walks) must produce
// byte-identical stats dumps. Guards against unordered_map iteration order
// leaking into simulation results.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/harness/world.h"
#include "src/kern/workloads.h"
#include "src/sim/report.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed + 0x9e3779b97f4a7c15ull) {}
  std::uint64_t Next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dull;
  }
};

// A seeded workload touching the order-sensitive paths: scattered anon
// mappings (hashed amaps under UVM), random faults, fork + COW in the
// child, child exit (amap ForEach + pmap teardown), partial unmaps, and
// enough memory pressure that teardown order could reach the page queues.
std::string RunSeeded(VmKind kind, std::uint64_t seed) {
  WorldConfig config;
  config.uvm.amap_policy = uvm::AmapImplPolicy::kHash;
  World w(kind, config);
  Rng rng(seed);
  kern::Proc* p = w.kernel->Spawn();
  kern::Exec(*w.kernel, p, kern::OdImage());
  kern::MapAttrs attrs;

  constexpr int kRegions = 24;
  sim::Vaddr bases[kRegions];
  for (int i = 0; i < kRegions; ++i) {
    sim::Vaddr va = 0x40000000 + static_cast<sim::Vaddr>(i) * 0x400000;  // 4 MB apart
    EXPECT_EQ(sim::kOk, w.kernel->MmapAnon(p, &va, 64 * sim::kPageSize, attrs));
    bases[i] = va;
  }
  for (int i = 0; i < 800; ++i) {
    sim::Vaddr va =
        bases[rng.Next() % kRegions] + (rng.Next() % 64) * sim::kPageSize;
    EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(p, va, 1, std::byte{0x5a}));
  }
  kern::Proc* child = w.kernel->Fork(p);
  for (int i = 0; i < 400; ++i) {
    sim::Vaddr va =
        bases[rng.Next() % kRegions] + (rng.Next() % 64) * sim::kPageSize;
    EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(child, va, 1, std::byte{0xa5}));
  }
  w.kernel->Exit(child);
  for (int i = 0; i < kRegions; i += 2) {
    EXPECT_EQ(sim::kOk, w.kernel->Munmap(p, bases[i], 64 * sim::kPageSize));
  }
  w.kernel->Exit(p);

  std::ostringstream os;
  sim::ReportStats(os, w.machine);
  return os.str();
}

// A second seeded workload for the file/device order-sensitive paths: many
// file mappings over a churning vnode population (VnodeCache teardown now
// Terminates in sorted name order), shared and private file writes with
// msync (dirty-page writeback), and several device mappings (the device
// registries are torn down in creation-id order, not hash or pointer
// order). World destruction at the end of each run exercises every one of
// those teardown walks while frames return to the free list.
std::string RunSeededFiles(VmKind kind, std::uint64_t seed) {
  WorldConfig config;
  config.uvm.amap_policy = uvm::AmapImplPolicy::kHash;
  World w(kind, config);
  Rng rng(seed);

  constexpr int kFiles = 12;
  for (int i = 0; i < kFiles; ++i) {
    w.fs.CreateFilePattern("/f" + std::to_string(i), 32 * sim::kPageSize);
  }
  kern::Proc* p = w.kernel->Spawn();
  kern::Exec(*w.kernel, p, kern::OdImage());

  constexpr int kDevices = 5;
  kern::DeviceMem* devs[kDevices];
  sim::Vaddr dev_bases[kDevices];
  for (int i = 0; i < kDevices; ++i) {
    devs[i] = w.kernel->RegisterDevice("/dev/d" + std::to_string(i), 8);
    kern::MapAttrs attrs;
    attrs.shared = true;
    sim::Vaddr va = 0;
    EXPECT_EQ(sim::kOk, w.kernel->MmapDevice(p, &va, devs[i], attrs));
    dev_bases[i] = va;
  }

  constexpr int kMaps = 24;
  sim::Vaddr bases[kMaps];
  for (int i = 0; i < kMaps; ++i) {
    kern::MapAttrs attrs;
    attrs.shared = (i % 3 == 0);  // mix shared writeback with private COW
    sim::Vaddr va = 0;
    EXPECT_EQ(sim::kOk, w.kernel->Mmap(p, &va, 16 * sim::kPageSize,
                                       "/f" + std::to_string(i % kFiles),
                                       (i / kFiles) * 8 * sim::kPageSize, attrs));
    bases[i] = va;
  }
  for (int i = 0; i < 600; ++i) {
    int m = static_cast<int>(rng.Next() % kMaps);
    sim::Vaddr va = bases[m] + (rng.Next() % 16) * sim::kPageSize;
    EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(p, va, 1, std::byte{0x3c}));
  }
  for (int i = 0; i < 120; ++i) {
    int d = static_cast<int>(rng.Next() % kDevices);
    sim::Vaddr va = dev_bases[d] + (rng.Next() % 8) * sim::kPageSize;
    EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(p, va, 1, std::byte{0xd7}));
  }
  for (int i = 0; i < kMaps; i += 3) {
    EXPECT_EQ(sim::kOk, w.kernel->Msync(p, bases[i], 16 * sim::kPageSize));
  }
  for (int i = 1; i < kMaps; i += 3) {
    EXPECT_EQ(sim::kOk, w.kernel->Munmap(p, bases[i], 16 * sim::kPageSize));
  }
  w.kernel->Exit(p);

  std::ostringstream os;
  sim::ReportStats(os, w.machine);
  return os.str();
}

class DeterminismTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(DeterminismTest, IdenticalSeedsProduceIdenticalStatsDumps) {
  for (std::uint64_t seed : {7ull, 99ull}) {
    std::string first = RunSeeded(GetParam(), seed);
    std::string second = RunSeeded(GetParam(), seed);
    EXPECT_EQ(first, second) << "seed=" << seed;
    EXPECT_NE(std::string::npos, first.find("\nfaults "));
  }
}

TEST_P(DeterminismTest, FileAndDevicePathsAreSeedStable) {
  for (std::uint64_t seed : {3ull, 41ull}) {
    std::string first = RunSeededFiles(GetParam(), seed);
    std::string second = RunSeededFiles(GetParam(), seed);
    EXPECT_EQ(first, second) << "seed=" << seed;
    EXPECT_NE(std::string::npos, first.find("\nfaults "));
  }
}

INSTANTIATE_TEST_SUITE_P(BothVms, DeterminismTest,
                         ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return std::string(harness::VmKindName(param_info.param));
                         });

}  // namespace
