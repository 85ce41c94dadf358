// Unit tests for the shared pagedaemon scan (phys::Pagedaemon) driven by a
// fake reclaimer, independent of both VM systems: victim selection — queue
// refill, poison before the reference bit, second chance, dequeuing of
// pinned pages — and the allocate-or-reclaim retry path.
#include <gtest/gtest.h>

#include <vector>

#include "src/phys/pagedaemon.h"
#include "src/phys/phys_mem.h"
#include "src/sim/machine.h"

namespace {

// Records every hook call. Reclaim frees the page unless `stubborn`, in
// which case it does nothing at all and the page stays at the inactive head.
class FakeHooks : public phys::PageoutHooks {
 public:
  explicit FakeHooks(phys::PhysMem& pm) : pm_(pm) {}

  void ContainPoisoned(phys::Page* p) override {
    contained.push_back(p);
    pm_.Dequeue(p);
  }

  std::size_t Reclaim(phys::Page* p) override {
    reclaimed.push_back(p);
    in_pageout.push_back(pm_.in_pageout());
    if (inactive_at_first_reclaim < 0) {
      inactive_at_first_reclaim = static_cast<int>(pm_.inactive_pages());
    }
    if (stubborn) {
      return 0;
    }
    pm_.FreePage(p);
    return 1;
  }

  bool stubborn = false;
  std::vector<phys::Page*> contained;
  std::vector<phys::Page*> reclaimed;
  std::vector<bool> in_pageout;
  int inactive_at_first_reclaim = -1;

 private:
  phys::PhysMem& pm_;
};

class PagedaemonScanTest : public ::testing::Test {
 protected:
  static constexpr int kAllocRetries = 3;

  // A managed page placed on the active or inactive queue.
  phys::Page* NewPage(bool inactive) {
    phys::Page* p = pm.AllocPage(phys::OwnerKind::kUvmAnon, nullptr, next_offset_++, false);
    EXPECT_NE(nullptr, p);
    if (inactive) {
      pm.Deactivate(p);
    } else {
      pm.Activate(p);
    }
    return p;
  }

  sim::Machine machine;
  phys::PhysMem pm{machine, 64};
  FakeHooks hooks{pm};
  phys::Pagedaemon daemon{pm, hooks, "test_pagedaemon", kAllocRetries};

 private:
  sim::ObjOffset next_offset_ = 0;
};

TEST_F(PagedaemonScanTest, PoisonedPageReachesPoisonHookEvenWhenReferenced) {
  phys::Page* p = NewPage(/*inactive=*/true);
  phys::Page* cold = NewPage(/*inactive=*/true);
  p->referenced = true;
  ASSERT_TRUE(pm.PoisonPfn(p->pfn));
  sim::Nanoseconds before = machine.clock().now();
  // One frame to free: the poisoned page is contained on the spot, before
  // the cold page behind it satisfies the target.
  EXPECT_EQ(1u, daemon.Run(pm.free_pages() + 1));
  EXPECT_EQ(std::vector<phys::Page*>{p}, hooks.contained);
  EXPECT_EQ(std::vector<phys::Page*>{cold}, hooks.reclaimed);
  EXPECT_TRUE(p->referenced) << "poison is checked before the reference bit";
  EXPECT_EQ(phys::PageQueue::kNone, p->queue) << "no second lap for a poisoned page";
  EXPECT_EQ(machine.cost().poison_contain_ns, machine.clock().now() - before);
}

TEST_F(PagedaemonScanTest, ReferencedPageIsReactivatedNotReclaimed) {
  phys::Page* hot = NewPage(/*inactive=*/true);
  phys::Page* cold = NewPage(/*inactive=*/true);
  hot->referenced = true;
  EXPECT_EQ(1u, daemon.Run(pm.free_pages() + 1));
  EXPECT_EQ(std::vector<phys::Page*>{cold}, hooks.reclaimed);
  EXPECT_EQ(phys::PageQueue::kActive, hot->queue);
  EXPECT_FALSE(hot->referenced) << "second chance clears the reference bit";
}

TEST_F(PagedaemonScanTest, WiredBusyAndLoanedPagesAreDequeuedWithoutReclaim) {
  phys::Page* wired = NewPage(/*inactive=*/true);
  phys::Page* busy = NewPage(/*inactive=*/true);
  phys::Page* loaned = NewPage(/*inactive=*/true);
  wired->wire_count = 1;
  busy->busy = true;
  loaned->loan_count = 1;
  EXPECT_EQ(0u, daemon.Run(pm.free_pages() + 1));
  EXPECT_TRUE(hooks.reclaimed.empty());
  EXPECT_TRUE(hooks.contained.empty());
  for (phys::Page* p : {wired, busy, loaned}) {
    EXPECT_EQ(phys::PageQueue::kNone, p->queue);
  }
  EXPECT_EQ(0u, pm.inactive_pages());
}

TEST_F(PagedaemonScanTest, RefillMovesDeficitTimesTwoPlusFourFromActiveHead) {
  std::vector<phys::Page*> active;
  for (int i = 0; i < 40; ++i) {
    active.push_back(NewPage(/*inactive=*/false));
    active.back()->referenced = true;  // refill clears it
  }
  const std::size_t deficit = 3;
  EXPECT_EQ(deficit, daemon.Run(pm.free_pages() + deficit));
  EXPECT_EQ(static_cast<int>(deficit * 2 + 4), hooks.inactive_at_first_reclaim);
  // The victims are the oldest active pages, in queue order.
  EXPECT_EQ(std::vector<phys::Page*>(active.begin(), active.begin() + deficit), hooks.reclaimed);
  EXPECT_EQ(deficit * 2 + 4 - deficit, pm.inactive_pages());
  EXPECT_EQ(40 - (deficit * 2 + 4), pm.active_pages());
  for (std::size_t i = deficit; i < deficit * 2 + 4; ++i) {
    EXPECT_EQ(phys::PageQueue::kInactive, active[i]->queue);
    EXPECT_FALSE(active[i]->referenced);
  }
  EXPECT_TRUE(active[deficit * 2 + 4]->referenced) << "refill stops at the computed count";
}

TEST_F(PagedaemonScanTest, ReclaimHookRunsInsidePageoutScope) {
  NewPage(/*inactive=*/true);
  NewPage(/*inactive=*/true);
  EXPECT_FALSE(pm.in_pageout());
  daemon.Run(pm.free_pages() + 2);
  EXPECT_EQ((std::vector<bool>{true, true}), hooks.in_pageout);
  EXPECT_FALSE(pm.in_pageout());
}

TEST_F(PagedaemonScanTest, TerminatesWhenReclaimNeverFrees) {
  NewPage(/*inactive=*/true);
  hooks.stubborn = true;
  EXPECT_EQ(0u, daemon.Run(pm.total_pages()));
  // The total_pages*4+64 guard bounds the pass.
  EXPECT_EQ(pm.total_pages() * 4 + 64, hooks.reclaimed.size());
}

TEST_F(PagedaemonScanTest, AllocPageRunsTheDaemonWhenMemoryIsShort) {
  while (pm.free_pages() > 0) {
    NewPage(/*inactive=*/true);
  }
  phys::Page* p = daemon.AllocPage(phys::OwnerKind::kKernel, nullptr, 0, /*zero=*/false);
  ASSERT_NE(nullptr, p);
  // One pass reclaimed up to the free target; the allocation took one.
  EXPECT_EQ(pm.free_target(), hooks.reclaimed.size());
  EXPECT_EQ(pm.free_target() - 1, pm.free_pages());
  EXPECT_EQ(0u, machine.stats().alloc_retries) << "one pass sufficed";
}

TEST_F(PagedaemonScanTest, AllocPageGivesUpAfterTheRetryBudget) {
  while (pm.free_pages() > 0) {
    NewPage(/*inactive=*/true);
  }
  hooks.stubborn = true;
  sim::Nanoseconds before = machine.clock().now();
  EXPECT_EQ(nullptr, daemon.AllocPage(phys::OwnerKind::kKernel, nullptr, 0, /*zero=*/false));
  EXPECT_EQ(static_cast<std::uint64_t>(kAllocRetries), machine.stats().alloc_retries);
  // Backoff doubles per metered retry: 1x + 2x + 4x.
  EXPECT_EQ(machine.cost().mem_retry_backoff_ns * 7, machine.clock().now() - before);
}

}  // namespace
