// The cross-layer invariant auditor (DESIGN.md §13): registration and
// violation mechanics, periodic polling at kernel operation boundaries,
// observer-effect freedom, and — the part that proves the auditor earns its
// keep — corruption fixtures: each deliberately breaks one invariant class,
// asserts the matching check catches it, then repairs the damage (the
// shutdown audit in ~World must still come back clean).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/harness/world.h"
#include "src/sim/annotations.h"
#include "src/sim/audit.h"
#include "src/sim/report.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

// True if any violation of the most recent Run() contains `needle`.
bool ViolationMentions(const sim::Auditor& a, const std::string& needle) {
  for (const std::string& v : a.last_violations()) {
    if (v.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(AuditorTest, RegisterFailAndUnregisterMechanics) {
  sim::Auditor a;
  int token = a.Register("test.always-fails", [](sim::Auditor& au) {
    au.Fail("first");
    au.Fail("second");
  });
  EXPECT_EQ(2u, a.Run());
  ASSERT_EQ(2u, a.last_violations().size());
  EXPECT_TRUE(ViolationMentions(a, "first"));
  EXPECT_TRUE(ViolationMentions(a, "second"));
  EXPECT_EQ(2u, a.total_violations());
  a.Unregister(token);
  EXPECT_EQ(0u, a.Run());
  EXPECT_EQ(2u, a.runs());
}

class AuditWorldTest : public ::testing::TestWithParam<VmKind> {};

// A small mixed workload leaving plenty of live state for checks to chew
// on: anon memory, a file mapping, a fork, some paging.
kern::Proc* RunWorkload(World& w) {
  w.fs.CreateFilePattern("/f", 8 * sim::kPageSize);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0, f = 0;
  EXPECT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 32 * sim::kPageSize, kern::MapAttrs{}));
  EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 32 * sim::kPageSize, std::byte{0x5a}));
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  EXPECT_EQ(sim::kOk, w.kernel->Mmap(p, &f, 8 * sim::kPageSize, "/f", 0, ro));
  EXPECT_EQ(sim::kOk, w.kernel->TouchRead(p, f, 8 * sim::kPageSize));
  kern::Proc* child = w.kernel->Fork(p);
  EXPECT_NE(nullptr, child);
  EXPECT_EQ(sim::kOk, w.kernel->TouchWrite(child, a, 4 * sim::kPageSize, std::byte{0xa5}));
  w.kernel->Exit(child);
  return p;
}

TEST_P(AuditWorldTest, HealthyWorldAuditsCleanAndChecksAreRegistered) {
  World w(GetParam());
  RunWorkload(w);
  // Bottom-up registration: pool, pv, and the active VM's state check.
  EXPECT_GE(w.machine.auditor().check_count(), 3u);
  EXPECT_EQ(0u, w.machine.auditor().Run());
}

TEST_P(AuditWorldTest, AuditIsObserverEffectFree) {
  World w(GetParam());
  RunWorkload(w);
  sim::Nanoseconds before_ns = w.machine.clock().now();
  std::ostringstream stats_before;
  sim::ReportStats(stats_before, w.machine);
  ASSERT_EQ(0u, w.machine.auditor().Run());
  std::ostringstream stats_after;
  sim::ReportStats(stats_after, w.machine);
  EXPECT_EQ(before_ns, w.machine.clock().now()) << "audit charged virtual time";
  EXPECT_EQ(stats_before.str(), stats_after.str()) << "audit moved a stats counter";
}

// The observer-effect check above compares whole reports, so it sees only
// what the report prints. Poisoning an idle frame moves frames_poisoned and
// the lock counters, charges no time and touches no other counter; the
// report must still change.
TEST_P(AuditWorldTest, StatsReportSeesAPoisonOnlyCounterMove) {
  World w(GetParam());
  std::ostringstream before;
  sim::ReportStats(before, w.machine);
  ASSERT_EQ(phys::PageQueue::kFree, w.pm.PageAt(5)->queue);
  ASSERT_TRUE(w.pm.PoisonPfn(5));
  std::ostringstream after;
  sim::ReportStats(after, w.machine);
  EXPECT_NE(before.str(), after.str()) << "report misses frames_poisoned";
  EXPECT_NE(std::string::npos, after.str().find("\nframes_poisoned 1\n"));
}

TEST_P(AuditWorldTest, ArmedIntervalPollsAtOperationBoundaries) {
  WorldConfig cfg;
  cfg.audit_every = 10'000;  // every 10 virtual us
  World w(GetParam(), cfg);
  kern::Proc* p = RunWorkload(w);
  EXPECT_GT(w.machine.auditor().runs(), 0u)
      << "periodic audits never fired despite an armed interval";
  EXPECT_EQ(0u, w.machine.auditor().total_violations());
  w.kernel->Exit(p);
}

// --- Corruption fixtures: one per invariant class ---

TEST_P(AuditWorldTest, CatchesPoolQueueTagCorruption) {
  World w(GetParam());
  RunWorkload(w);
  phys::Page* victim = w.pm.active_queue().head();
  ASSERT_NE(nullptr, victim);
  phys::PageQueue saved = victim->queue;
  victim->queue = phys::PageQueue::kNone;  // tag now disagrees with the list
  EXPECT_GE(w.machine.auditor().Run(), 1u);
  EXPECT_TRUE(ViolationMentions(w.machine.auditor(), "active-tag count"));
  victim->queue = saved;
  EXPECT_EQ(0u, w.machine.auditor().Run());
}

TEST_P(AuditWorldTest, CatchesPoisonBookkeepingAndMappedPoisonCorruption) {
  World w(GetParam());
  kern::Proc* p = RunWorkload(w);
  sim::Vaddr va = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &va, sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, va, 1, std::byte{1}));
  auto pte = p->as->pmap().Extract(va);
  ASSERT_TRUE(pte.has_value());
  phys::Page* page = w.pm.PageAt(pte->pfn);
  // Poison behind PhysMem's back: the frame is still mapped (the injection
  // hook never ran) and every poison counter is now wrong.
  SIM_POISON_WRITE_OK("corruption fixture: prove the audit catches a rogue poison bit");
  page->poisoned = true;
  EXPECT_GE(w.machine.auditor().Run(), 2u);
  EXPECT_TRUE(ViolationMentions(w.machine.auditor(), "poisoned frame still mapped"));
  EXPECT_TRUE(ViolationMentions(w.machine.auditor(), "poisoned recount"));
  EXPECT_TRUE(ViolationMentions(w.machine.auditor(), "without a generation tag"));
  SIM_POISON_WRITE_OK("corruption fixture repair");
  page->poisoned = false;
  EXPECT_EQ(0u, w.machine.auditor().Run());
}

TEST_P(AuditWorldTest, CatchesObjectPageBackPointerCorruption) {
  World w(GetParam());
  kern::Proc* p = RunWorkload(w);
  // A resident file page: owned by a vnode-backed object on either VM.
  sim::Vaddr f = 0;
  kern::MapAttrs ro;
  ro.prot = sim::Prot::kRead;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &f, sim::kPageSize, "/f", 0, ro));
  ASSERT_EQ(sim::kOk, w.kernel->TouchRead(p, f, sim::kPageSize));
  auto pte = p->as->pmap().Extract(f);
  ASSERT_TRUE(pte.has_value());
  phys::Page* page = w.pm.PageAt(pte->pfn);
  page->offset += 1;  // page no longer agrees with its object's index
  EXPECT_GE(w.machine.auditor().Run(), 1u);
  EXPECT_TRUE(ViolationMentions(w.machine.auditor(), "point back at its object"));
  page->offset -= 1;
  EXPECT_EQ(0u, w.machine.auditor().Run());
}

TEST_P(AuditWorldTest, CatchesSwapSlotOwnershipCorruption) {
  WorldConfig cfg;
  cfg.ram_pages = 64;   // small RAM: the workload below must hit swap
  cfg.swap_slots = 256;  // small device keeps the repair loop short
  World w(GetParam(), cfg);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  const std::size_t npages = 128;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, npages * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, npages * sim::kPageSize, std::byte{0x11}));
  ASSERT_GT(w.swap.used_slots(), 0u) << "workload never paged out";
  ASSERT_EQ(0u, w.machine.auditor().Run());
  // Free a slot behind the VM's back: some anon or swap pager now points at
  // a slot the device no longer considers allocated. Slot numbers allocate
  // from zero, so slot 0 is in use after the pageout above.
  w.swap.FreeSlot(0);
  EXPECT_GE(w.machine.auditor().Run(), 1u);
  EXPECT_TRUE(ViolationMentions(w.machine.auditor(), "not allocated on the device"));
  // Repair: the allocator scans from a rotating hint, so keep allocating
  // until slot 0 comes back, then return the extras.
  std::vector<std::int32_t> extras;
  std::int32_t got;
  while ((got = w.swap.AllocSlot()) != 0) {
    ASSERT_NE(swp::kNoSlot, got);
    extras.push_back(got);
  }
  for (std::int32_t s : extras) {
    w.swap.FreeSlot(s);
  }
  EXPECT_EQ(0u, w.machine.auditor().Run());
}

INSTANTIATE_TEST_SUITE_P(BothVms, AuditWorldTest,
                         ::testing::Values(VmKind::kBsd, VmKind::kUvm));

}  // namespace
