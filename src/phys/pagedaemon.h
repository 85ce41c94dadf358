// The pagedaemon's victim scan and the allocate-or-reclaim path, shared by
// both VM systems (DESIGN.md §12). How a victim is *picked* is policy-free
// and lives here once: the inactive queue is refilled from the active head,
// poison is checked before the reference bit, referenced pages get a second
// chance, wired, busy and loaned pages leave the queues. How a victim is
// *paged out* is the paper's §6 difference and stays in each VM, behind
// PageoutHooks.
#ifndef SRC_PHYS_PAGEDAEMON_H_
#define SRC_PHYS_PAGEDAEMON_H_

#include <cstddef>

#include "src/phys/phys_mem.h"
#include "src/sim/types.h"

namespace phys {

// The per-owner halves of a pagedaemon pass, supplied by the VM system.
class PageoutHooks {
 public:
  // A poisoned page reached the inactive head (containment already
  // charged). Take it out of circulation: discard it if its contents
  // refetch, otherwise park it off the queues. Never page it out.
  virtual void ContainPoisoned(Page* p) = 0;
  // Page out or drop an unreferenced, unwired, idle, unloaned inactive
  // page; return the frames freed. A page that stays must leave the
  // inactive head (re-activate or dequeue it).
  virtual std::size_t Reclaim(Page* p) = 0;

 protected:
  ~PageoutHooks() = default;
};

class Pagedaemon {
 public:
  // `label` names the pass in traces; `max_alloc_retries` is the owner's
  // VmTuning budget for AllocPage.
  Pagedaemon(PhysMem& pm, PageoutHooks& hooks, const char* label, int max_alloc_retries)
      : pm_(pm), hooks_(hooks), label_(label), max_alloc_retries_(max_alloc_retries) {}
  Pagedaemon(const Pagedaemon&) = delete;
  Pagedaemon& operator=(const Pagedaemon&) = delete;

  // One pass: scan the inactive queue until `target_free` frames are free
  // or nothing reclaimable remains. Returns the frames freed.
  std::size_t Run(std::size_t target_free);

  // PhysMem::AllocPage; on failure a pass and a retry, then bounded
  // retries with virtual-time backoff, each after another pass. nullptr on
  // true exhaustion.
  Page* AllocPage(OwnerKind kind, void* owner, sim::ObjOffset offset, bool zero);

 private:
  PhysMem& pm_;
  PageoutHooks& hooks_;
  const char* label_;
  int max_alloc_retries_;
};

}  // namespace phys

#endif  // SRC_PHYS_PAGEDAEMON_H_
