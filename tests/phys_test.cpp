// Unit tests for the physical memory layer: frame allocation, page queues,
// wiring, contents, and the cost/stat accounting other layers rely on.
#include <gtest/gtest.h>

#include "src/phys/phys_mem.h"
#include "src/sim/machine.h"

namespace {

class PhysTest : public ::testing::Test {
 protected:
  sim::Machine machine;
  phys::PhysMem pm{machine, 64};
};

TEST_F(PhysTest, FreshMemoryIsAllFree) {
  EXPECT_EQ(64u, pm.total_pages());
  EXPECT_EQ(64u, pm.free_pages());
  EXPECT_EQ(0u, pm.active_pages());
  EXPECT_EQ(0u, pm.inactive_pages());
}

TEST_F(PhysTest, AllocTakesFromFreeList) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 7, /*zero=*/false);
  ASSERT_NE(nullptr, p);
  EXPECT_EQ(63u, pm.free_pages());
  EXPECT_EQ(phys::OwnerKind::kKernel, p->owner_kind);
  EXPECT_EQ(this, p->owner);
  EXPECT_EQ(7u, p->offset);
  EXPECT_EQ(phys::PageQueue::kNone, p->queue);
}

TEST_F(PhysTest, AllocZeroClearsContentsAndCharges) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, /*zero=*/false);
  pm.Data(p)[123] = std::byte{0xff};
  pm.FreePage(p);
  sim::Nanoseconds before = machine.clock().now();
  // The freed frame is reallocated (FIFO): request zeroed memory.
  phys::Page* q;
  do {
    q = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, /*zero=*/true);
  } while (q != p && q != nullptr);
  ASSERT_EQ(p, q);
  EXPECT_EQ(std::byte{0}, pm.Data(q)[123]);
  EXPECT_GT(machine.clock().now(), before);
  EXPECT_GT(machine.stats().pages_zeroed, 0u);
}

TEST_F(PhysTest, ExhaustionReturnsNull) {
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_NE(nullptr, pm.AllocPage(phys::OwnerKind::kKernel, this, i, false));
  }
  EXPECT_EQ(nullptr, pm.AllocPage(phys::OwnerKind::kKernel, this, 99, false));
}

TEST_F(PhysTest, FreeReturnsToFreeList) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  pm.FreePage(p);
  EXPECT_EQ(64u, pm.free_pages());
  EXPECT_EQ(phys::OwnerKind::kNone, p->owner_kind);
  EXPECT_EQ(nullptr, p->owner);
}

TEST_F(PhysTest, ActivateDeactivateMoveBetweenQueues) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  pm.Activate(p);
  EXPECT_EQ(phys::PageQueue::kActive, p->queue);
  EXPECT_EQ(1u, pm.active_pages());
  pm.Deactivate(p);
  EXPECT_EQ(phys::PageQueue::kInactive, p->queue);
  EXPECT_EQ(0u, pm.active_pages());
  EXPECT_EQ(1u, pm.inactive_pages());
  pm.Dequeue(p);
  EXPECT_EQ(phys::PageQueue::kNone, p->queue);
  EXPECT_EQ(0u, pm.inactive_pages());
  pm.FreePage(p);
}

TEST_F(PhysTest, InactiveQueueIsFifo) {
  phys::Page* a = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  phys::Page* b = pm.AllocPage(phys::OwnerKind::kKernel, this, 1, false);
  phys::Page* c = pm.AllocPage(phys::OwnerKind::kKernel, this, 2, false);
  pm.Deactivate(a);
  pm.Deactivate(b);
  pm.Deactivate(c);
  EXPECT_EQ(a, pm.inactive_queue().head());
  pm.Dequeue(a);
  EXPECT_EQ(b, pm.inactive_queue().head());
  EXPECT_EQ(b->q_next, c);
  pm.Dequeue(b);
  pm.Dequeue(c);
  for (phys::Page* p : {a, b, c}) {
    pm.FreePage(p);
  }
}

TEST_F(PhysTest, WireRemovesFromQueuesUnwireReactivates) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  pm.Activate(p);
  pm.Wire(p);
  EXPECT_EQ(1, p->wire_count);
  EXPECT_EQ(phys::PageQueue::kNone, p->queue);
  pm.Wire(p);
  EXPECT_EQ(2, p->wire_count);
  pm.Unwire(p);
  EXPECT_EQ(phys::PageQueue::kNone, p->queue);  // still wired once
  pm.Unwire(p);
  EXPECT_EQ(phys::PageQueue::kActive, p->queue);
  pm.Dequeue(p);
  pm.FreePage(p);
}

TEST_F(PhysTest, CopyPageCopiesContentsAndCharges) {
  phys::Page* a = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, true);
  phys::Page* b = pm.AllocPage(phys::OwnerKind::kKernel, this, 1, true);
  pm.Data(a)[0] = std::byte{0x42};
  pm.Data(a)[4095] = std::byte{0x24};
  sim::Nanoseconds before = machine.clock().now();
  pm.CopyPage(a, b);
  EXPECT_EQ(std::byte{0x42}, pm.Data(b)[0]);
  EXPECT_EQ(std::byte{0x24}, pm.Data(b)[4095]);
  EXPECT_EQ(machine.cost().page_copy_ns, machine.clock().now() - before);
  EXPECT_EQ(1u, machine.stats().pages_copied);
  pm.FreePage(a);
  pm.FreePage(b);
}

TEST_F(PhysTest, FreeTargetDefaultsToFivePercent) {
  EXPECT_EQ(64u / 20 + 4, pm.free_target());
  EXPECT_GE(pm.free_pages(), pm.free_target());
  std::vector<phys::Page*> held;
  while (pm.free_pages() > pm.free_target() - 1) {
    held.push_back(pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false));
  }
  EXPECT_LT(pm.free_pages(), pm.free_target());
  for (phys::Page* p : held) {
    pm.FreePage(p);
  }
}

TEST_F(PhysTest, FreeReserveBlocksNormalAllocsButNotEmergency) {
  pm.set_free_reserve(8);
  std::vector<phys::Page*> held;
  while (pm.free_pages() > 8) {
    held.push_back(pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false));
    ASSERT_NE(nullptr, held.back());
  }
  // Only the emergency reserve remains: a normal request is refused (and
  // counted) so the caller reclaims and retries instead of deadlocking the
  // daemon on its own working memory.
  EXPECT_EQ(nullptr, pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false));
  EXPECT_EQ(1u, machine.stats().page_alloc_failures);
  EXPECT_EQ(8u, pm.free_pages());
  phys::Page* p =
      pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false, phys::AllocPri::kEmergency);
  ASSERT_NE(nullptr, p);
  EXPECT_EQ(1u, machine.stats().emergency_page_allocs);
  pm.FreePage(p);
  for (phys::Page* h : held) {
    pm.FreePage(h);
  }
}

TEST_F(PhysTest, PageoutScopeMakesAllocsEmergency) {
  pm.set_free_reserve(64);  // everything below the reserve from the start
  EXPECT_FALSE(pm.in_pageout());
  EXPECT_EQ(nullptr, pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false));
  {
    phys::PageoutScope scope(pm);
    EXPECT_TRUE(pm.in_pageout());
    phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
    ASSERT_NE(nullptr, p);
    EXPECT_EQ(1u, machine.stats().emergency_page_allocs);
    pm.FreePage(p);
  }
  EXPECT_FALSE(pm.in_pageout());
}

TEST_F(PhysTest, BalloonAbsorbsFreeFramesDownToFloorOnly) {
  phys::Page* a = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  ASSERT_NE(nullptr, a);
  // Ask to balloon more than exists: absorption stops at the floor (4
  // frames with no watermarks set) and the rest is a deficit.
  pm.SetBalloonTarget(100);
  EXPECT_EQ(59u, pm.balloon_pages());
  EXPECT_EQ(4u, pm.free_pages());
  // Freed frames feed the deficit one at a time instead of re-entering
  // service, but never squeeze the free list below the floor.
  pm.FreePage(a);
  EXPECT_EQ(60u, pm.balloon_pages());
  EXPECT_EQ(4u, pm.free_pages());
  // Growing returns frames to the free list.
  pm.SetBalloonTarget(0);
  EXPECT_EQ(0u, pm.balloon_pages());
  EXPECT_EQ(64u, pm.free_pages());
}

TEST_F(PhysTest, BalloonHonorsFreeReserveFloor) {
  pm.set_free_reserve(16);
  pm.SetBalloonTarget(100);
  // The floor is max(free_min, free_reserve, 4): the balloon may not eat
  // the emergency pool the pageout path depends on.
  EXPECT_EQ(16u, pm.free_pages());
  EXPECT_EQ(48u, pm.balloon_pages());
  pm.SetBalloonTarget(0);
  EXPECT_EQ(64u, pm.free_pages());
}

TEST_F(PhysTest, PageAtRoundTripsPfn) {
  phys::Page* p = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, false);
  EXPECT_EQ(p, pm.PageAt(p->pfn));
  pm.FreePage(p);
}

TEST_F(PhysTest, DistinctFramesHaveDistinctStorage) {
  phys::Page* a = pm.AllocPage(phys::OwnerKind::kKernel, this, 0, true);
  phys::Page* b = pm.AllocPage(phys::OwnerKind::kKernel, this, 1, true);
  pm.Data(a)[10] = std::byte{1};
  EXPECT_EQ(std::byte{0}, pm.Data(b)[10]);
  pm.FreePage(a);
  pm.FreePage(b);
}

}  // namespace
