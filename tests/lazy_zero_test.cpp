// Lazy zero fill (DESIGN.md §9): ZeroPage marks a frame's 64-byte lines
// stale instead of clearing them, Bytes/Data clear stale lines on first
// sight, and CopyPage copies only live lines while carrying the stale mask.
// Every view must show exactly the bytes an eager clear would have left,
// and virtual time and the zero/copy counters must not notice the laziness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/harness/world.h"
#include "src/phys/phys_mem.h"
#include "src/sim/machine.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

constexpr std::size_t kPage = sim::kPageSize;

bool IsZero(std::byte b) { return b == std::byte{0}; }

class LazyZeroPhysTest : public ::testing::Test {
 protected:
  // A frame whose backing bytes are all 0xff, as a previous owner left it.
  phys::Page* DirtyFrame() {
    phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, /*zero=*/false);
    auto data = pm.Data(p);
    std::fill(data.begin(), data.end(), std::byte{0xff});
    return p;
  }

  // Free `p` and allocate until the FIFO free list hands the same frame
  // back; every other frame taken on the way is released again.
  phys::Page* Recycle(phys::Page* p, bool zero) {
    pm.FreePage(p);
    std::vector<phys::Page*> others;
    phys::Page* q = nullptr;
    while ((q = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, zero)) != p) {
      EXPECT_NE(nullptr, q);
      if (q == nullptr) {
        break;
      }
      others.push_back(q);
    }
    for (phys::Page* o : others) {
      pm.FreePage(o);
    }
    return q;
  }

  std::vector<std::byte> Snapshot(phys::Page* p) {
    auto data = pm.Data(p);
    return {data.begin(), data.end()};
  }

  static bool AllZeroExcept(const std::vector<std::byte>& bytes,
                            std::initializer_list<std::size_t> offs) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bool expected_set = std::find(offs.begin(), offs.end(), i) != offs.end();
      if (!expected_set && bytes[i] != std::byte{0}) {
        return false;
      }
    }
    return true;
  }

  sim::Machine machine;
  phys::PhysMem pm{machine, 16};
};

TEST_F(LazyZeroPhysTest, RecycledDirtyFrameReadsZeroThroughBytesAndData) {
  phys::Page* p = Recycle(DirtyFrame(), /*zero=*/true);
  ASSERT_NE(nullptr, p);
  auto head = pm.Bytes(p, 0, 100);
  EXPECT_TRUE(std::all_of(head.begin(), head.end(), IsZero));
  auto tail = pm.Bytes(p, kPage - 1, 1);
  EXPECT_EQ(std::byte{0}, tail[0]);
  auto whole = pm.Bytes(p, 0, kPage);
  EXPECT_TRUE(std::all_of(whole.begin(), whole.end(), IsZero));
  EXPECT_TRUE(AllZeroExcept(Snapshot(p), {}));
}

TEST_F(LazyZeroPhysTest, ZeroPageChargesButTouchesNoBytesUntilRead) {
  phys::Page* p = DirtyFrame();
  sim::Nanoseconds before = machine.clock().now();
  std::uint64_t zeroed = machine.stats().pages_zeroed;
  pm.ZeroPage(p);
  EXPECT_EQ(before + machine.cost().page_zero_ns, machine.clock().now());
  EXPECT_EQ(zeroed + 1, machine.stats().pages_zeroed);
  EXPECT_TRUE(AllZeroExcept(Snapshot(p), {}));
}

TEST_F(LazyZeroPhysTest, CopyOfSparseSourceMatchesByteForByteWithoutLeaks) {
  phys::Page* src = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, /*zero=*/true);
  pm.Bytes(src, 4095, 1)[0] = std::byte{0xaa};  // line 63
  pm.Bytes(src, 0, 1)[0] = std::byte{0x55};     // line 0
  phys::Page* dst = DirtyFrame();               // previous owner's 0xff everywhere
  sim::Nanoseconds before = machine.clock().now();
  std::uint64_t copied = machine.stats().pages_copied;
  pm.CopyPage(src, dst);
  EXPECT_EQ(before + machine.cost().page_copy_ns, machine.clock().now());
  EXPECT_EQ(copied + 1, machine.stats().pages_copied);
  std::vector<std::byte> got = Snapshot(dst);
  EXPECT_EQ(Snapshot(src), got);
  EXPECT_EQ(std::byte{0x55}, got[0]);
  EXPECT_EQ(std::byte{0xaa}, got[4095]);
  EXPECT_TRUE(AllZeroExcept(got, {0, 4095}));
}

TEST_F(LazyZeroPhysTest, CopyOfFullyStaleSourceThenPartialWrite) {
  phys::Page* src = Recycle(DirtyFrame(), /*zero=*/true);
  ASSERT_NE(nullptr, src);
  phys::Page* dst = DirtyFrame();
  pm.CopyPage(src, dst);
  pm.Bytes(dst, 100, 1)[0] = std::byte{0x11};
  EXPECT_TRUE(AllZeroExcept(Snapshot(dst), {100}));
  EXPECT_EQ(std::byte{0x11}, Snapshot(dst)[100]);
  // The source is untouched by writes to the copy.
  EXPECT_TRUE(AllZeroExcept(Snapshot(src), {}));
}

TEST_F(LazyZeroPhysTest, WindowsSpanningAndBoundingLinesClearOnlyStaleBytes) {
  phys::Page* p = Recycle(DirtyFrame(), /*zero=*/true);
  ASSERT_NE(nullptr, p);
  // Lines 0 and 1.
  auto span = pm.Bytes(p, 60, 8);
  ASSERT_EQ(8u, span.size());
  EXPECT_TRUE(std::all_of(span.begin(), span.end(), IsZero));
  std::fill(span.begin(), span.end(), std::byte{0x22});
  // Exactly line 1 again, and exactly the last line: already-live bytes
  // must survive a second window over the same line.
  auto line1 = pm.Bytes(p, 64, 64);
  EXPECT_EQ(std::byte{0x22}, line1[0]);
  EXPECT_EQ(std::byte{0x22}, line1[3]);
  EXPECT_EQ(std::byte{0}, line1[4]);
  auto last = pm.Bytes(p, kPage - 64, 64);
  EXPECT_TRUE(std::all_of(last.begin(), last.end(), IsZero));
  last[63] = std::byte{0x33};
  std::vector<std::byte> got = Snapshot(p);
  for (std::size_t i = 0; i < kPage; ++i) {
    std::byte want = (i >= 60 && i < 68) ? std::byte{0x22} : std::byte{0};
    if (i == kPage - 1) {
      want = std::byte{0x33};
    }
    ASSERT_EQ(want, got[i]) << "offset " << i;
  }
}

// --- Through both VM systems ---

class LazyZeroVmTest : public ::testing::TestWithParam<VmKind> {};

// Byte offset of the one byte written into page `i` of a region.
std::size_t MarkOffset(std::size_t i) { return (i * 97 + 13) % kPage; }
std::byte MarkByte(std::size_t i) { return static_cast<std::byte>(0x80 | (i & 0x7f)); }

TEST_P(LazyZeroVmTest, SwapRoundTripOfOneByteAnonPagesKeepsTheRestZero) {
  WorldConfig cfg;
  cfg.ram_pages = 256;
  cfg.swap_slots = 1024;
  cfg.free_reserve_pages = 4;
  cfg.free_min_pages = 2;
  cfg.swap_reserve_slots = 2;
  // From the first op on, only 64 frames stay in service, so the region
  // below cannot stay resident and the pagedaemon pushes it to swap.
  cfg.pressure_plan = "@0ns phys=64";
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  ASSERT_NE(nullptr, p);
  constexpr std::size_t kPages = 96;
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, kPages * kPage, kern::MapAttrs{}));
  for (std::size_t i = 0; i < kPages; ++i) {
    std::vector<std::byte> one{MarkByte(i)};
    ASSERT_EQ(sim::kOk, w.kernel->WriteMem(p, a + i * kPage + MarkOffset(i), one));
  }
  EXPECT_GT(w.machine.stats().swap_pages_out, 0u);
  std::vector<std::byte> page(kPage);
  for (std::size_t i = 0; i < kPages; ++i) {
    ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + i * kPage, page));
    for (std::size_t off = 0; off < kPage; ++off) {
      std::byte want = off == MarkOffset(i) ? MarkByte(i) : std::byte{0};
      ASSERT_EQ(want, page[off]) << "page " << i << " offset " << off;
    }
  }
  EXPECT_GT(w.machine.stats().swap_pages_in, 0u);
  w.vm->CheckInvariants();
}

TEST_P(LazyZeroVmTest, PastEofZeroPageSurvivesMsync) {
  World w(GetParam());
  w.fs.CreateFilePattern("/short", kPage);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  kern::MapAttrs attrs;
  attrs.shared = true;
  // Page 1 of the mapping lies wholly past EOF: a zero page of the object.
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &a, 2 * kPage, "/short", 0, attrs));
  std::vector<std::byte> one{std::byte{0x5c}};
  ASSERT_EQ(sim::kOk, w.kernel->WriteMem(p, a + kPage + 4000, one));
  ASSERT_EQ(sim::kOk, w.kernel->WriteMem(p, a + 7, one));
  ASSERT_EQ(sim::kOk, w.kernel->Msync(p, a, 2 * kPage));
  std::vector<std::byte> page(kPage);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(p, a + kPage, page));
  for (std::size_t off = 0; off < kPage; ++off) {
    ASSERT_EQ(off == 4000 ? std::byte{0x5c} : std::byte{0}, page[off]) << "offset " << off;
  }
  // The in-file page reached the file; the past-EOF write was dropped.
  kern::Proc* q = w.kernel->Spawn();
  sim::Vaddr b = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(q, &b, kPage, "/short", 0, ro));
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(q, b, page));
  for (std::size_t off = 0; off < kPage; ++off) {
    std::byte want = off == 7 ? std::byte{0x5c} : vfs::Filesystem::PatternByte("/short", off);
    ASSERT_EQ(want, page[off]) << "offset " << off;
  }
  w.vm->CheckInvariants();
}

// What a scenario observed: counters, the virtual clock, and every byte it
// read back.
struct Observed {
  std::uint64_t pages_zeroed = 0;
  std::uint64_t pages_copied = 0;
  std::uint64_t swap_pages_out = 0;
  sim::Nanoseconds now = 0;
  std::vector<std::byte> reads;

  bool operator==(const Observed&) const = default;
};

// Zero fill, COW after fork, file-backed private and shared pages, and
// pageout under a pressure plan. With `eager` set, every owned frame is
// materialized through Data() after each kernel call, which is what an
// eager ZeroPage/CopyPage would have left behind.
Observed RunScenario(VmKind kind, bool eager) {
  WorldConfig cfg;
  cfg.ram_pages = 256;
  cfg.swap_slots = 1024;
  cfg.free_reserve_pages = 4;
  cfg.free_min_pages = 2;
  cfg.swap_reserve_slots = 2;
  cfg.pressure_plan = "@0ns phys=96";
  World w(kind, cfg);
  auto settle = [&] {
    if (!eager) {
      return;
    }
    for (std::size_t pfn = 0; pfn < w.pm.total_pages(); ++pfn) {
      phys::Page* pg = w.pm.PageAt(static_cast<sim::Pfn>(pfn));
      if (pg->owner_kind != phys::OwnerKind::kNone && !pg->poisoned) {
        w.pm.Data(pg);
      }
    }
  };
  Observed out;
  auto read_back = [&](kern::Proc* p, sim::Vaddr va, std::size_t len) {
    std::vector<std::byte> buf(len);
    EXPECT_EQ(sim::kOk, w.kernel->ReadMem(p, va, buf));
    out.reads.insert(out.reads.end(), buf.begin(), buf.end());
    settle();
  };
  auto write_one = [&](kern::Proc* p, sim::Vaddr va, std::byte v) {
    std::vector<std::byte> one{v};
    EXPECT_EQ(sim::kOk, w.kernel->WriteMem(p, va, one));
    settle();
  };

  w.fs.CreateFilePattern("/data", 8 * kPage + 300);
  kern::Proc* parent = w.kernel->Spawn();
  sim::Vaddr anon = 0;
  EXPECT_EQ(sim::kOk, w.kernel->MmapAnon(parent, &anon, 64 * kPage, kern::MapAttrs{}));
  sim::Vaddr priv = 0;
  EXPECT_EQ(sim::kOk, w.kernel->Mmap(parent, &priv, 10 * kPage, "/data", 0, kern::MapAttrs{}));
  kern::MapAttrs shared;
  shared.shared = true;
  sim::Vaddr shm = 0;
  EXPECT_EQ(sim::kOk, w.kernel->Mmap(parent, &shm, 10 * kPage, "/data", 0, shared));
  settle();
  for (std::size_t i = 0; i < 64; ++i) {
    write_one(parent, anon + i * kPage + MarkOffset(i), MarkByte(i));
  }
  for (std::size_t i = 0; i < 10; ++i) {
    write_one(parent, priv + i * kPage + MarkOffset(i + 64), MarkByte(i + 64));
    write_one(parent, shm + i * kPage + MarkOffset(i + 80), MarkByte(i + 80));
  }
  kern::Proc* child = w.kernel->Fork(parent);
  EXPECT_NE(nullptr, child);
  settle();
  for (std::size_t i = 0; i < 64; i += 3) {
    write_one(child, anon + i * kPage + 2000, std::byte{0x3c});
  }
  for (std::size_t i = 0; i < 10; i += 2) {
    write_one(child, priv + i * kPage + 100, std::byte{0x3d});
  }
  EXPECT_EQ(sim::kOk, w.kernel->Msync(parent, shm, 10 * kPage));
  settle();
  for (std::size_t i = 0; i < 64; ++i) {
    read_back(parent, anon + i * kPage, kPage);
    read_back(child, anon + i * kPage, kPage);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    read_back(parent, priv + i * kPage, kPage);
    read_back(child, priv + i * kPage, kPage);
    read_back(child, shm + i * kPage, kPage);
  }
  out.pages_zeroed = w.machine.stats().pages_zeroed;
  out.pages_copied = w.machine.stats().pages_copied;
  out.swap_pages_out = w.machine.stats().swap_pages_out;
  out.now = w.machine.clock().now();
  return out;
}

TEST_P(LazyZeroVmTest, LazyRunMatchesEagerMaterializationExactly) {
  Observed lazy = RunScenario(GetParam(), /*eager=*/false);
  Observed eager = RunScenario(GetParam(), /*eager=*/true);
  EXPECT_GT(lazy.pages_zeroed, 0u);
  EXPECT_GT(lazy.pages_copied, 0u);
  EXPECT_GT(lazy.swap_pages_out, 0u);
  EXPECT_EQ(eager.pages_zeroed, lazy.pages_zeroed);
  EXPECT_EQ(eager.pages_copied, lazy.pages_copied);
  EXPECT_EQ(eager.swap_pages_out, lazy.swap_pages_out);
  EXPECT_EQ(eager.now, lazy.now);
  EXPECT_TRUE(eager.reads == lazy.reads);
}

INSTANTIATE_TEST_SUITE_P(BothVms, LazyZeroVmTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

}  // namespace
