// Unit tests for the simulation substrate itself: virtual clock, RNG
// determinism, stats reset, error names, page arithmetic, and the
// reporting helpers.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/harness/dump.h"
#include "src/harness/world.h"
#include "src/sim/report.h"
#include "src/sim/rng.h"

namespace {

TEST(ClockTest, AdvancesAndConverts) {
  sim::Clock c;
  EXPECT_EQ(0u, c.now());
  c.Advance(1'500'000'000);
  EXPECT_EQ(1'500'000'000u, c.now());
  EXPECT_DOUBLE_EQ(1.5, c.now_seconds());
  EXPECT_DOUBLE_EQ(1'500'000.0, c.now_micros());
  c.Reset();
  EXPECT_EQ(0u, c.now());
}

TEST(ClockTest, SpanMeasuresElapsed) {
  sim::Clock c;
  sim::ClockSpan span(c);
  c.Advance(250);
  EXPECT_EQ(250u, span.elapsed());
  c.Advance(250);
  EXPECT_EQ(500u, span.elapsed());
}

TEST(MachineTest, ChargeAdvancesOnlyTheClock) {
  sim::Machine m;
  m.Charge(42);
  EXPECT_EQ(42u, m.clock().now());
  EXPECT_EQ(0u, m.stats().faults);
}

TEST(PageArithmeticTest, TruncRoundAndCounts) {
  EXPECT_EQ(0u, sim::PageTrunc(4095));
  EXPECT_EQ(4096u, sim::PageTrunc(4096));
  EXPECT_EQ(4096u, sim::PageRound(1));
  EXPECT_EQ(0u, sim::PageRound(0));
  EXPECT_EQ(8192u, sim::PageRound(4097));
  EXPECT_EQ(2u, sim::BytesToPages(4097));
  EXPECT_EQ(1u, sim::BytesToPages(1));
  EXPECT_EQ(3u * 4096, sim::PagesToBytes(3));
}

TEST(ProtTest, BitOperations) {
  using sim::Prot;
  EXPECT_TRUE(sim::CanRead(Prot::kReadWrite));
  EXPECT_TRUE(sim::CanWrite(Prot::kReadWrite));
  EXPECT_FALSE(sim::CanWrite(Prot::kReadExec));
  EXPECT_EQ(Prot::kRead, Prot::kReadWrite & Prot::kReadExec);
  EXPECT_EQ(Prot::kReadWrite, Prot::kRead | Prot::kWrite);
  EXPECT_TRUE(sim::ProtIncludes(Prot::kAll, Prot::kReadWrite));
  EXPECT_FALSE(sim::ProtIncludes(Prot::kRead, Prot::kWrite));
}

TEST(ErrorNameTest, KnownAndUnknown) {
  EXPECT_STREQ("OK", sim::ErrName(sim::kOk));
  EXPECT_STREQ("EFAULT", sim::ErrName(sim::kErrFault));
  EXPECT_STREQ("ENOMEM", sim::ErrName(sim::kErrNoMem));
  EXPECT_STREQ("EMAPENTRYPOOL", sim::ErrName(sim::kErrMapEntryPool));
  EXPECT_STREQ("E???", sim::ErrName(999));
}

TEST(RngTest, DeterministicPerSeed) {
  sim::Rng a(7);
  sim::Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  sim::Rng c(8);
  bool differs = false;
  sim::Rng a2(7);
  for (int i = 0; i < 16; ++i) {
    differs |= a2.Next() != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BoundsRespected) {
  sim::Rng r(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(10), 10u);
    std::uint64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(ReportTest, StatsReportMentionsKeyCounters) {
  sim::Machine m;
  m.stats().faults = 5;
  m.stats().swap_ops = 2;
  std::ostringstream os;
  sim::ReportStats(os, m);
  EXPECT_EQ(0u, os.str().find("virtual time: 0.000000 s\nfaults 5\n"));
  EXPECT_NE(std::string::npos, os.str().find("\nswap_ops 2\n"));
  EXPECT_NE(std::string::npos, os.str().find("\ncost breakdown"));
}

// Every counter in the list gets exactly one report line of its own,
// carrying its own value, in list order.
TEST(ReportTest, StatsReportCoversEveryCounter) {
  sim::Machine m;
  for (std::size_t i = 0; i < sim::kNumStats; ++i) {
    m.stats().*sim::kStatFields[i] = 1000 + i;
  }
  std::ostringstream os;
  sim::ReportStats(os, m);
  std::istringstream in(os.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(0u, line.find("virtual time: "));
  for (std::size_t i = 0; i < sim::kNumStats; ++i) {
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(std::string(sim::kStatNames[i]) + " " + std::to_string(1000 + i), line);
  }
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(0u, line.find("cost breakdown"));
}

TEST(DumpTest, BothSystemsProduceStructureDumps) {
  for (harness::VmKind kind : {harness::VmKind::kBsd, harness::VmKind::kUvm}) {
    harness::World w(kind);
    kern::Proc* p = w.kernel->Spawn();
    w.fs.CreateFilePattern("/f", 4 * sim::kPageSize);
    sim::Vaddr file_va = 0;
    ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &file_va, 4 * sim::kPageSize, "/f", 0,
                                       kern::MapAttrs{}));
    sim::Vaddr anon_va = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &anon_va, 4 * sim::kPageSize, kern::MapAttrs{}));
    w.kernel->TouchWrite(p, anon_va, 2 * sim::kPageSize, std::byte{1});
    w.kernel->TouchWrite(p, file_va, 1, std::byte{2});
    std::ostringstream os;
    kern::DumpMap(os, *w.vm, *p->as);
    std::string out = os.str();
    EXPECT_NE(std::string::npos, out.find("2 entries")) << out;
    if (kind == harness::VmKind::kUvm) {
      EXPECT_NE(std::string::npos, out.find("amap[")) << out;
      EXPECT_NE(std::string::npos, out.find("uobj[")) << out;
    } else {
      EXPECT_NE(std::string::npos, out.find("chain-depth=")) << out;
    }
  }
}

TEST(ShmTest, SharedSegmentsWorkOnUvm) {
  harness::World w(harness::VmKind::kUvm);
  int shmid = 0;
  ASSERT_EQ(sim::kOk, w.kernel->ShmCreate(4, &shmid));
  kern::Proc* a = w.kernel->Spawn();
  kern::Proc* b = w.kernel->Spawn();
  sim::Vaddr va_a = 0;
  sim::Vaddr va_b = 0;
  ASSERT_EQ(sim::kOk, w.kernel->ShmAttach(a, shmid, &va_a));
  ASSERT_EQ(sim::kOk, w.kernel->ShmAttach(b, shmid, &va_b));
  // Writes through one attachment are visible through the other.
  w.kernel->TouchWrite(a, va_a + sim::kPageSize, 1, std::byte{0x99});
  std::vector<std::byte> buf(1);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(b, va_b + sim::kPageSize, buf));
  EXPECT_EQ(std::byte{0x99}, buf[0]);
  // Contents survive the writer's exit while any attachment remains.
  w.kernel->Exit(a);
  ASSERT_EQ(sim::kOk, w.kernel->ReadMem(b, va_b + sim::kPageSize, buf));
  EXPECT_EQ(std::byte{0x99}, buf[0]);
  ASSERT_EQ(sim::kOk, w.kernel->ShmDetach(b, shmid, va_b));
  ASSERT_EQ(sim::kOk, w.kernel->ShmRemove(shmid));
  w.vm->CheckInvariants();
}

TEST(ShmTest, BsdVmCannotShareUnrelatedAddressSpaces) {
  // §1.1: under BSD VM it is "not possible for processes to easily
  // exchange, copy, or share chunks of their virtual address space".
  harness::World w(harness::VmKind::kBsd);
  int shmid = 0;
  ASSERT_EQ(sim::kOk, w.kernel->ShmCreate(4, &shmid));
  kern::Proc* a = w.kernel->Spawn();
  sim::Vaddr va = 0;
  EXPECT_EQ(sim::kErrNotSup, w.kernel->ShmAttach(a, shmid, &va));
  ASSERT_EQ(sim::kOk, w.kernel->ShmRemove(shmid));
}

TEST(ShmTest, InvalidIdsRejected) {
  harness::World w(harness::VmKind::kUvm);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr va = 0;
  EXPECT_EQ(sim::kErrInval, w.kernel->ShmAttach(p, 42, &va));
  EXPECT_EQ(sim::kErrInval, w.kernel->ShmRemove(42));
}

}  // namespace
