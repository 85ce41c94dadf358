#include "src/phys/pagedaemon.h"

#include "src/sim/machine.h"
#include "src/sim/retry.h"

namespace phys {

std::size_t Pagedaemon::Run(std::size_t target_free) {
  sim::Machine& machine = pm_.machine();
  sim::ChargeScope scope(machine, sim::CostCat::kPageout, label_);
  PageoutScope pressure_scope(pm_);  // daemon allocs may use the reserve
  std::size_t freed = 0;
  std::size_t guard = pm_.total_pages() * 4 + 64;
  while (pm_.free_pages() < target_free && guard-- > 0) {
    if (pm_.inactive_queue().empty()) {
      // Refill the inactive queue from the head of the active queue.
      std::size_t want = (target_free - pm_.free_pages()) * 2 + 4;
      while (want-- > 0 && !pm_.active_queue().empty()) {
        Page* ap = pm_.active_queue().head();
        ap->referenced = false;
        pm_.Deactivate(ap);
      }
      if (pm_.inactive_queue().empty()) {
        break;  // nothing reclaimable
      }
    }
    Page* p = pm_.inactive_queue().head();
    if (p->poisoned) {
      // Checked before the reference bit: a poisoned frame must leave
      // circulation, not get another lap of the queues.
      machine.Charge(sim::CostCat::kPoison, machine.cost().poison_contain_ns);
      hooks_.ContainPoisoned(p);
      continue;
    }
    if (p->referenced) {
      p->referenced = false;
      pm_.Activate(p);
      continue;
    }
    if (p->wire_count > 0 || p->busy || p->loan_count > 0) {
      pm_.Dequeue(p);
      continue;
    }
    freed += hooks_.Reclaim(p);
  }
  return freed;
}

Page* Pagedaemon::AllocPage(OwnerKind kind, void* owner, sim::ObjOffset offset, bool zero) {
  Page* p = pm_.AllocPage(kind, owner, offset, zero);
  if (p == nullptr) {
    Run(pm_.free_target());
    p = pm_.AllocPage(kind, owner, offset, zero);
  }
  if (p == nullptr) {
    // One pass may not recover enough under sustained pressure; the bound
    // makes true exhaustion a clean failure instead of a hang.
    sim::Machine& machine = pm_.machine();
    sim::RetryWithBackoff(
        machine,
        {max_alloc_retries_, machine.cost().mem_retry_backoff_ns, &machine.stats().alloc_retries},
        [&] { return (p = pm_.AllocPage(kind, owner, offset, zero)) != nullptr; },
        [&](int) { Run(pm_.free_target()); });
  }
  return p;
}

}  // namespace phys
