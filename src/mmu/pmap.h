// The machine-dependent pmap layer (§2 of the paper). Both BSD VM and UVM
// sit on top of this identical interface, exactly as the paper's systems
// share pmap modules. The simulated MMU keeps per-address-space page tables
// (va -> pfn + protection + wired bit) and a pv-entry reverse map so that
// operations by physical page (pmap_page_protect, used for COW fork and
// pageout) find every mapping of a frame.
//
// i386 modelling: each 4 MB region of mapped virtual address space requires
// one wired page-table page. Under UVM, the wired state of page-table pages
// lives only inside the pmap; under BSD VM, the machine-dependent code also
// enters each page-table page into the kernel map, costing a kernel map
// entry (§3.2). The hook `on_ptpage_alloc` lets the BSD layer model that.
#ifndef SRC_MMU_PMAP_H_
#define SRC_MMU_PMAP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/phys/phys_mem.h"
#include "src/sim/lock.h"
#include "src/sim/pool.h"
#include "src/sim/types.h"

namespace mmu {

struct Pte {
  sim::Pfn pfn = sim::kInvalidPfn;
  sim::Prot prot = sim::Prot::kNone;
  bool wired = false;
};

class Pmap;

// Shared MMU state: the pv table mapping each frame to the set of virtual
// mappings of it. One MmuContext exists per Machine.
class MmuContext {
 public:
  // Registers the machine-check poison hook with PhysMem (unmap every
  // mapping of a freshly poisoned unwired frame, so the next touch faults
  // and the owning VM runs containment) and the "mmu.pv" auditor check.
  explicit MmuContext(phys::PhysMem& pm);
  ~MmuContext();

  MmuContext(const MmuContext&) = delete;
  MmuContext& operator=(const MmuContext&) = delete;

  phys::PhysMem& phys() { return pm_; }
  sim::Machine& machine() { return pm_.machine(); }

  // Lower the protection of every mapping of `page` to `prot`; kNone removes
  // the mappings entirely. Returns the number of mappings affected.
  std::size_t PageProtect(phys::Page* page, sim::Prot prot);

  // Number of pmaps currently mapping this frame.
  std::size_t MappingCount(const phys::Page* page) const {
    std::size_t n = 0;
    for (const PvEntry* e = pv_[page->pfn]; e != nullptr; e = e->next) {
      ++n;
    }
    return n;
  }

 private:
  friend class Pmap;
  // pv entries are slab-allocated singly-linked chain nodes: insertion
  // prepends (LIFO — deterministic, and the freed node is the next one
  // reused), removal unlinks in place. No vector copies, no O(n) erase
  // shuffles on long chains.
  struct PvEntry {
    Pmap* pmap;
    sim::Vaddr va;
    PvEntry* next;
  };

  void PvAdd(sim::Pfn pfn, Pmap* pmap, sim::Vaddr va);
  void PvRemove(sim::Pfn pfn, Pmap* pmap, sim::Vaddr va);
  // The one chain-walk helper everything shares: the link slot (head
  // pointer or some entry's `next`) whose target matches (pmap, va), or the
  // terminating null slot if absent. Removal writes through the slot.
  PvEntry** FindPvLink(sim::Pfn pfn, const Pmap* pmap, sim::Vaddr va);
  bool PvContains(sim::Pfn pfn, const Pmap* pmap, sim::Vaddr va) const;

  // Registered with sim::Auditor: every pv entry has a matching PTE and
  // vice versa, wired counts recount, and no unwired poisoned frame is
  // still mapped anywhere.
  void AuditPv(sim::Auditor& auditor) const;

  phys::PhysMem& pm_;
  // Class-level locks shared by every pmap (the real i386 pmap serialized
  // on one kernel lock too). Both zero-cost: pmap operation costs already
  // subsume the round-trips. The pmap lock is taken *after* EnsurePtPage —
  // PT-page allocation reaches down to the page queues (lower rank) and the
  // BSD kmap-mirroring hook (map rank), both illegal under it.
  sim::SimLock pmap_lock_;
  sim::SimLock pv_lock_;  // leaf guarding the pv chains
  // Declared before pv_ and used by every pmap: chains must drain (all
  // pmaps die) before the context, so the teardown leak assert is real.
  sim::Pool<PvEntry> pv_pool_;
  // Slab storage for every pmap's PTE / page-table-page hash nodes.
  sim::PoolResource pte_pool_;
  std::vector<PvEntry*> pv_;  // per-pfn chain heads
  std::vector<Pmap*> pmaps_;  // live pmaps, in creation order
  int audit_token_ = 0;
  int poison_hook_token_ = 0;
};

class Pmap {
 public:
  // `is_kernel`: the kernel pmap does not consume page-table pages (its page
  // tables are part of the statically wired kernel image).
  // `on_ptpage_alloc` / `on_ptpage_free`: invoked as page-table pages come
  // and go (BSD VM uses these to mirror PT pages into the kernel map).
  Pmap(MmuContext& ctx, bool is_kernel,
       std::function<void(phys::Page*)> on_ptpage_alloc = nullptr,
       std::function<void(phys::Page*)> on_ptpage_free = nullptr);
  ~Pmap();

  Pmap(const Pmap&) = delete;
  Pmap& operator=(const Pmap&) = delete;

  // Establish (or replace) a mapping of `page` at `va`.
  void Enter(sim::Vaddr va, phys::Page* page, sim::Prot prot, bool wired);

  // Remove any mapping at `va`.
  void Remove(sim::Vaddr va);
  // Remove every mapping in [start, end).
  void RemoveRange(sim::Vaddr start, sim::Vaddr end);
  // Remove every mapping in the pmap.
  void RemoveAll();

  // Change the protection of the mapping at `va`, if any.
  void Protect(sim::Vaddr va, sim::Prot prot);
  void ProtectRange(sim::Vaddr start, sim::Vaddr end, sim::Prot prot);

  // Lower existing mappings in [start, end) to the intersection of their
  // current protection and `prot`. A mapping whose intersection is empty is
  // removed unless it is wired (wired mappings are kept with no access so
  // the wiring bookkeeping survives; the next access faults).
  void IntersectProtRange(sim::Vaddr start, sim::Vaddr end, sim::Prot prot);

  // Change only the wired attribute of an existing mapping.
  void ChangeWiring(sim::Vaddr va, bool wired);
  // Unwire every wired mapping in [start, end): drop the frame's wire count
  // and clear the PTE's wired bit. Each page costs one Extract (plus one
  // ChangeWiring when wired), each taking the pmap lock on its own.
  void UnwireRange(sim::Vaddr start, sim::Vaddr end);

  // Query the translation for `va`.
  std::optional<Pte> Extract(sim::Vaddr va) const;

  std::size_t resident_count() const { return ptes_.size(); }
  std::size_t wired_count() const { return wired_count_; }
  std::size_t ptpage_count() const { return ptpages_.size(); }

  bool is_kernel() const { return is_kernel_; }

 private:
  friend class MmuContext;

  void EnsurePtPage(sim::Vaddr va);
  void RemoveLocked(sim::Vaddr va_page);

  // Single-entry translation cache (an L1 "TLB" in front of ptes_). Returns
  // the PTE for a page-aligned va, or null. unordered_map guarantees
  // reference stability across insert/rehash, so the cached pointer is only
  // invalidated when the cached entry itself is erased (RemoveLocked).
  // Purely a host-side accelerator: virtual-time charges are unchanged.
  Pte* LookupPte(sim::Vaddr va_page) const;

  // Hash nodes come from the context's shared slab resource; node pointers
  // are stable (pool blocks), so the PTE cache stays valid across rehash.
  template <typename K, typename V>
  using PooledUMap = std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                                        sim::PoolAllocator<std::pair<const K, V>>>;

  MmuContext& ctx_;
  bool is_kernel_;
  std::function<void(phys::Page*)> on_ptpage_alloc_;
  std::function<void(phys::Page*)> on_ptpage_free_;
  PooledUMap<sim::Vaddr, Pte> ptes_;  // keyed by page-aligned va
  PooledUMap<std::uint64_t, phys::Page*> ptpages_;  // keyed by va >> 22
  std::size_t wired_count_ = 0;
  mutable sim::Vaddr cache_va_ = 0;
  mutable Pte* cache_pte_ = nullptr;
};

}  // namespace mmu

#endif  // SRC_MMU_PMAP_H_
