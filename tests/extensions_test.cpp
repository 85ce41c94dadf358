// Tests for the features beyond the paper's 1999 feature set: MADV_FREE,
// mincore, vfork, clustered swap-in (the paper's future-work item), and
// optional map-entry coalescing.
#include <gtest/gtest.h>

#include "src/harness/world.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

class MadvFreeTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(MadvFreeTest, DiscardsContentsAndRereadsZero) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 8 * sim::kPageSize, std::byte{0x77});
  ASSERT_EQ(sim::kOk, w.kernel->MadvFree(p, a + 2 * sim::kPageSize, 4 * sim::kPageSize));
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 3 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{0}, b[0]);  // discarded
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(std::byte{0x77}, b[0]);  // outside the range: untouched
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 7 * sim::kPageSize, b));
  EXPECT_EQ(std::byte{0x77}, b[0]);
  w.vm->CheckInvariants();
}

TEST_P(MadvFreeTest, FreesMemoryAndSwap) {
  WorldConfig cfg;
  cfg.ram_pages = 64;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 48 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 48 * sim::kPageSize, std::byte{1});
  w.vm->PageDaemon(32);  // push some to swap
  std::size_t free_before = w.pm.free_pages();
  std::size_t swap_before = w.swap.used_slots();
  ASSERT_EQ(sim::kOk, w.kernel->MadvFree(p, a, 48 * sim::kPageSize));
  EXPECT_GT(w.pm.free_pages(), free_before);
  EXPECT_LT(w.swap.used_slots(), swap_before);
  w.vm->CheckInvariants();
}

TEST_P(MadvFreeTest, DoesNotTouchSharedCowMemory) {
  // After a fork, the memory is COW-shared: MADV_FREE must not destroy the
  // relative's view.
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{0x42});
  kern::Proc* c = w.kernel->Fork(p);
  ASSERT_EQ(sim::kOk, w.kernel->MadvFree(p, a, 4 * sim::kPageSize));
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(c, a, b));
  EXPECT_EQ(std::byte{0x42}, b[0]);
  w.kernel->Exit(c);
  w.vm->CheckInvariants();
}

TEST_P(MadvFreeTest, KeptWiredPageKeepsItsSwapCopy) {
  // MADV_FREE leaves a wired page resident. If that page is clean (read
  // back from swap), its swap copy is still the only backing copy: once
  // the page is unwired and paged out again, a read must find the data.
  WorldConfig cfg;
  cfg.ram_pages = 64;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  // One page, so mlock covers the whole entry without clipping it.
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  sim::Vaddr filler = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &filler, 40 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, filler, 40 * sim::kPageSize, std::byte{1}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, sim::kPageSize, std::byte{0x5c}));
  w.vm->PageDaemon(w.pm.total_pages());
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));  // clean, back from swap
  EXPECT_EQ(std::byte{0x5c}, b[0]);
  ASSERT_EQ(sim::kOk, w.kernel->Mlock(p, a, sim::kPageSize));
  ASSERT_EQ(sim::kOk, w.kernel->MadvFree(p, a, sim::kPageSize));
  ASSERT_EQ(sim::kOk, w.kernel->Munlock(p, a, sim::kPageSize));
  w.vm->PageDaemon(w.pm.total_pages());
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(std::byte{0x5c}, b[0]);
  w.vm->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(BothVms, MadvFreeTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

class MincoreTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(MincoreTest, ReportsResidency) {
  World w(GetParam());
  w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ro.advice = sim::Advice::kRandom;  // defeat clustering for a crisp result
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 4 * sim::kPageSize, "/f", 0, ro));
  std::vector<bool> vec;
  ASSERT_EQ(sim::kOk, w.kernel->Mincore(p, a, 4 * sim::kPageSize, &vec));
  EXPECT_EQ(std::vector<bool>({false, false, false, false}), vec);
  w.kernel->TouchRead(p, a + sim::kPageSize, 1);
  ASSERT_EQ(sim::kOk, w.kernel->Mincore(p, a, 4 * sim::kPageSize, &vec));
  EXPECT_TRUE(vec[1]);
  EXPECT_FALSE(vec[3]);
}

TEST_P(MincoreTest, SeesThroughSwap) {
  WorldConfig cfg;
  cfg.ram_pages = 64;
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 8 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 8 * sim::kPageSize, std::byte{1});
  std::vector<bool> vec;
  ASSERT_EQ(sim::kOk, w.kernel->Mincore(p, a, 8 * sim::kPageSize, &vec));
  EXPECT_TRUE(vec[0]);
  w.vm->PageDaemon(w.pm.total_pages());  // everything out
  ASSERT_EQ(sim::kOk, w.kernel->Mincore(p, a, 8 * sim::kPageSize, &vec));
  for (bool r : vec) {
    EXPECT_FALSE(r);
  }
}

TEST_P(MincoreTest, UnmappedRangeFails) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  std::vector<bool> vec;
  EXPECT_EQ(sim::kErrFault, w.kernel->Mincore(p, 0x5000'0000, sim::kPageSize, &vec));
}

INSTANTIATE_TEST_SUITE_P(BothVms, MincoreTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

class VforkTest : public ::testing::TestWithParam<VmKind> {};

TEST_P(VforkTest, ChildSharesAddressSpace) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1, std::byte{1});
  std::uint64_t copies = w.machine.stats().pages_copied;
  kern::Proc* c = w.kernel->Vfork(p);
  EXPECT_EQ(p->as, c->as);
  // Child writes are the parent's writes (shared AS).
  w.kernel->TouchWrite(c, a, 1, std::byte{2});
  std::vector<std::byte> b(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(std::byte{2}, b[0]);
  EXPECT_EQ(copies, w.machine.stats().pages_copied);  // zero COW activity
  w.kernel->Exit(c);
  // Parent's address space survives the child's exit.
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a, b));
  EXPECT_EQ(std::byte{2}, b[0]);
  w.vm->CheckInvariants();
}

TEST_P(VforkTest, VforkIsMuchCheaperThanFork) {
  World w(GetParam());
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 1024 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 1024 * sim::kPageSize, std::byte{1});
  sim::Nanoseconds t0 = w.machine.clock().now();
  kern::Proc* c1 = w.kernel->Fork(p);
  w.kernel->Exit(c1);
  sim::Nanoseconds fork_cost = w.machine.clock().now() - t0;
  t0 = w.machine.clock().now();
  kern::Proc* c2 = w.kernel->Vfork(p);
  w.kernel->Exit(c2);
  sim::Nanoseconds vfork_cost = w.machine.clock().now() - t0;
  EXPECT_GT(fork_cost, 10 * vfork_cost);
}

INSTANTIATE_TEST_SUITE_P(BothVms, VforkTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

TEST(SwapInClusterTest, ClusteredSwapInUsesFewerOperations) {
  auto swap_in_ops = [](bool cluster) {
    WorldConfig cfg;
    cfg.ram_pages = 128;
    cfg.uvm.cluster_swap_in = cluster;
    World w(VmKind::kUvm, cfg);
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    const std::size_t npages = 64;
    int err = w.kernel->MmapAnon(p, &a, npages * sim::kPageSize, kern::MapAttrs{});
    EXPECT_EQ(sim::kOk, err);
    // Sequential dirtying, clustered pageout -> contiguous swap slots.
    w.kernel->TouchWrite(p, a, npages * sim::kPageSize, std::byte{0x21});
    w.vm->PageDaemon(w.pm.total_pages());
    // Now swap everything back in by reading sequentially.
    std::uint64_t ops_before = w.machine.stats().swap_ops;
    w.kernel->TouchRead(p, a, npages * sim::kPageSize);
    // Verify contents while we are at it.
    std::vector<std::byte> b(1);
    for (std::size_t i = 0; i < npages; ++i) {
      w.kernel->ReadMem(p, a + i * sim::kPageSize, b);
      EXPECT_EQ(std::byte{0x21}, b[0]);
    }
    w.vm->CheckInvariants();
    return w.machine.stats().swap_ops - ops_before;
  };
  std::uint64_t without = swap_in_ops(false);
  std::uint64_t with = swap_in_ops(true);
  EXPECT_GE(without, 4 * with);
}

TEST(SwapInClusterTest, ClusterRoundTripPreservesBytes) {
  WorldConfig cfg;
  cfg.ram_pages = 96;
  cfg.uvm.cluster_swap_in = true;
  World w(VmKind::kUvm, cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  const std::size_t npages = 48;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, npages * sim::kPageSize, kern::MapAttrs{}));
  for (std::size_t i = 0; i < npages; ++i) {
    w.kernel->TouchWrite(p, a + i * sim::kPageSize, 1, std::byte{static_cast<unsigned char>(i)});
  }
  w.vm->PageDaemon(w.pm.total_pages());
  for (std::size_t i = 0; i < npages; ++i) {
    std::vector<std::byte> b(1);
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + i * sim::kPageSize, b));
    EXPECT_EQ(std::byte{static_cast<unsigned char>(i)}, b[0]) << i;
  }
  w.vm->CheckInvariants();
}

TEST(EntryMergeTest, AdjacentAnonMappingsCoalesce) {
  WorldConfig cfg;
  cfg.uvm.merge_map_entries = true;
  World w(VmKind::kUvm, cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0x1000'0000;
  kern::MapAttrs fixed;
  fixed.fixed = true;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, fixed));
  sim::Vaddr b = a + 4 * sim::kPageSize;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &b, 4 * sim::kPageSize, fixed));
  EXPECT_EQ(1u, p->as->EntryCount());
  EXPECT_EQ(1u, w.machine.stats().map_entries_merged);
  // The merged region works as one mapping.
  w.kernel->TouchWrite(p, a, 8 * sim::kPageSize, std::byte{5});
  std::vector<std::byte> v(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + 7 * sim::kPageSize, v));
  EXPECT_EQ(std::byte{5}, v[0]);
  w.vm->CheckInvariants();
}

TEST(EntryMergeTest, IncompatibleNeighborsDoNotMerge) {
  WorldConfig cfg;
  cfg.uvm.merge_map_entries = true;
  World w(VmKind::kUvm, cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0x1000'0000;
  kern::MapAttrs fixed;
  fixed.fixed = true;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, fixed));
  sim::Vaddr b = a + 4 * sim::kPageSize;
  kern::MapAttrs ro = fixed;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &b, 4 * sim::kPageSize, ro));
  EXPECT_EQ(2u, p->as->EntryCount());
  // Non-adjacent mappings never merge either.
  sim::Vaddr c = b + 8 * sim::kPageSize;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &c, 4 * sim::kPageSize, fixed));
  EXPECT_EQ(3u, p->as->EntryCount());
}

TEST(EntryMergeTest, MergingOffByDefaultPreservesTable1) {
  World w(VmKind::kUvm);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0x1000'0000;
  kern::MapAttrs fixed;
  fixed.fixed = true;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, fixed));
  sim::Vaddr b = a + 4 * sim::kPageSize;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &b, 4 * sim::kPageSize, fixed));
  EXPECT_EQ(2u, p->as->EntryCount());
}

}  // namespace
