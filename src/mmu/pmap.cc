#include "src/mmu/pmap.h"

#include <algorithm>
#include <string>

#include "src/sim/annotations.h"
#include "src/sim/assert.h"

namespace mmu {

namespace {
constexpr std::uint64_t kPtShift = 22;  // i386: one page-table page maps 4 MB
}  // namespace

MmuContext::MmuContext(phys::PhysMem& pm)
    : pm_(pm),
      pmap_lock_(pm.machine(), "mmu.pmap", sim::LockRank::kPmap),
      pv_lock_(pm.machine(), "mmu.pv", sim::LockRank::kPv),
      pv_pool_("mmu.pv_entry", &pm.machine().pools()),
      pte_pool_("mmu.pte_nodes", &pm.machine().pools()),
      pv_(pm.total_pages(), nullptr) {
  // Machine-check response (DESIGN.md §13): the moment a live frame is
  // poisoned, strip every mapping of it through the pv chain so the next
  // touch faults and the owning VM discovers the poison. Wired and kernel
  // frames keep their mappings — wiring is a no-unmap contract; consuming
  // those panics at the access site instead.
  poison_hook_token_ = pm_.AddPoisonHook([this](phys::Page* p) {
    if (p->wire_count == 0 && p->owner_kind != phys::OwnerKind::kKernel) {
      PageProtect(p, sim::Prot::kNone);
    }
  });
  audit_token_ =
      machine().auditor().Register("mmu.pv", [this](sim::Auditor& a) { AuditPv(a); });
}

MmuContext::~MmuContext() {
  machine().auditor().Unregister(audit_token_);
  pm_.RemovePoisonHook(poison_hook_token_);
}

void MmuContext::AuditPv(sim::Auditor& auditor) const {
  std::unordered_set<const Pmap*> live(pmaps_.begin(), pmaps_.end());
  std::size_t pv_total = 0;
  for (sim::Pfn pfn = 0; pfn < pv_.size(); ++pfn) {
    for (const PvEntry* e = pv_[pfn]; e != nullptr; e = e->next) {
      ++pv_total;
      if (!live.contains(e->pmap)) {
        auditor.Fail("pv entry references a dead pmap: pfn " + std::to_string(pfn));
        continue;
      }
      auto it = e->pmap->ptes_.find(e->va);
      if (it == e->pmap->ptes_.end()) {
        auditor.Fail("pv entry without a pte: pfn " + std::to_string(pfn) + " va " +
                     std::to_string(e->va));
      } else if (it->second.pfn != pfn) {
        auditor.Fail("pv entry and pte disagree: pfn " + std::to_string(pfn) + " va " +
                     std::to_string(e->va) + " pte.pfn " + std::to_string(it->second.pfn));
      }
    }
    const phys::Page* page = pm_.PageAt(pfn);
    if (page->poisoned && pv_[pfn] != nullptr && page->wire_count == 0 &&
        page->owner_kind != phys::OwnerKind::kKernel) {
      auditor.Fail("poisoned frame still mapped: pfn " + std::to_string(pfn));
    }
  }
  std::size_t pte_total = 0;
  for (const Pmap* pmap : pmaps_) {
    pte_total += pmap->ptes_.size();
    std::size_t wired = 0;
    SIM_ORDERED_OK("read-only audit recount; no simulation state touched");
    for (const auto& [va, pte] : pmap->ptes_) {
      if (pte.wired) {
        ++wired;
      }
      if (pte.pfn >= pv_.size()) {
        auditor.Fail("pte maps an out-of-range pfn: va " + std::to_string(va));
        continue;
      }
      if (!PvContains(pte.pfn, pmap, va)) {
        auditor.Fail("pte without a pv entry: va " + std::to_string(va) + " pfn " +
                     std::to_string(pte.pfn));
      }
    }
    if (wired != pmap->wired_count_) {
      auditor.Fail("wired recount " + std::to_string(wired) + " != wired_count " +
                   std::to_string(pmap->wired_count_));
    }
  }
  if (pv_total != pte_total) {
    auditor.Fail("pv entries " + std::to_string(pv_total) + " != resident ptes " +
                 std::to_string(pte_total));
  }
}

MmuContext::PvEntry** MmuContext::FindPvLink(sim::Pfn pfn, const Pmap* pmap, sim::Vaddr va) {
  PvEntry** link = &pv_[pfn];
  while (*link != nullptr && !((*link)->pmap == pmap && (*link)->va == va)) {
    link = &(*link)->next;
  }
  return link;
}

bool MmuContext::PvContains(sim::Pfn pfn, const Pmap* pmap, sim::Vaddr va) const {
  for (const PvEntry* e = pv_[pfn]; e != nullptr; e = e->next) {
    if (e->pmap == pmap && e->va == va) {
      return true;
    }
  }
  return false;
}

void MmuContext::PvAdd(sim::Pfn pfn, Pmap* pmap, sim::Vaddr va) {
  sim::LockGuard g(pv_lock_);
  pv_[pfn] = pv_pool_.New(PvEntry{pmap, va, pv_[pfn]});
}

void MmuContext::PvRemove(sim::Pfn pfn, Pmap* pmap, sim::Vaddr va) {
  sim::LockGuard g(pv_lock_);
  PvEntry** link = FindPvLink(pfn, pmap, va);
  SIM_ASSERT_MSG(*link != nullptr, "pv entry missing on remove");
  PvEntry* e = *link;
  *link = e->next;
  pv_pool_.Delete(e);
}

std::size_t MmuContext::PageProtect(phys::Page* page, sim::Prot prot) {
  sim::LockGuard g(pmap_lock_);
  std::size_t n = MappingCount(page);
  machine().Charge(sim::CostCat::kPmap, machine().cost().pmap_page_protect_ns * (n == 0 ? 1 : n));
  if (prot == sim::Prot::kNone) {
    // Remove all mappings, erasing while we iterate: RemoveLocked unlinks
    // exactly the head entry (its (pmap, va) is the chain's first match),
    // so re-reading the head each round visits every mapping once. No copy
    // of the chain is taken.
    while (PvEntry* e = pv_[page->pfn]) {
      e->pmap->RemoveLocked(e->va);
    }
  } else {
    for (PvEntry* e = pv_[page->pfn]; e != nullptr; e = e->next) {
      auto it = e->pmap->ptes_.find(e->va);
      SIM_ASSERT(it != e->pmap->ptes_.end());
      it->second.prot = it->second.prot & prot;
    }
  }
  return n;
}

Pmap::Pmap(MmuContext& ctx, bool is_kernel, std::function<void(phys::Page*)> on_ptpage_alloc,
           std::function<void(phys::Page*)> on_ptpage_free)
    : ctx_(ctx),
      is_kernel_(is_kernel),
      on_ptpage_alloc_(std::move(on_ptpage_alloc)),
      on_ptpage_free_(std::move(on_ptpage_free)),
      ptes_(sim::PoolAllocator<std::pair<const sim::Vaddr, Pte>>(&ctx.pte_pool_)),
      ptpages_(sim::PoolAllocator<std::pair<const std::uint64_t, phys::Page*>>(&ctx.pte_pool_)) {
  ctx_.pmaps_.push_back(this);
}

Pmap::~Pmap() {
  RemoveAll();
  // Free page-table pages in ascending va order: ptpages_ is an unordered
  // map, and the order pages return to the free list is observable (the
  // allocator reuses them LIFO), so hash-order iteration would make runs
  // diverge based on hashing internals.
  std::vector<std::uint64_t> idxs;
  idxs.reserve(ptpages_.size());
  SIM_ORDERED_OK("collect-only walk; indices sorted before pages are freed");
  for (const auto& [idx, page] : ptpages_) {
    idxs.push_back(idx);
  }
  std::sort(idxs.begin(), idxs.end());
  for (std::uint64_t idx : idxs) {
    phys::Page* page = ptpages_[idx];
    if (on_ptpage_free_) {
      on_ptpage_free_(page);
    }
    ctx_.phys().Unwire(page);
    ctx_.phys().Dequeue(page);
    ctx_.phys().FreePage(page);
  }
  ptpages_.clear();
  auto it = std::find(ctx_.pmaps_.begin(), ctx_.pmaps_.end(), this);
  SIM_ASSERT(it != ctx_.pmaps_.end());
  ctx_.pmaps_.erase(it);
}

Pte* Pmap::LookupPte(sim::Vaddr va_page) const {
  if (cache_pte_ != nullptr && cache_va_ == va_page) {
    ++ctx_.machine().stats().pte_cache_hits;
    return cache_pte_;
  }
  auto it = ptes_.find(va_page);
  if (it == ptes_.end()) {
    return nullptr;
  }
  cache_va_ = va_page;
  // The cache is logically mutable state; the PTE itself is only written
  // through non-const callers.
  cache_pte_ = const_cast<Pte*>(&it->second);
  return cache_pte_;
}

void Pmap::EnsurePtPage(sim::Vaddr va) {
  if (is_kernel_) {
    return;
  }
  std::uint64_t idx = va >> kPtShift;
  if (ptpages_.contains(idx)) {
    return;
  }
  // Page-table pages are allocated at emergency priority: a PT page is at
  // most a few frames per address space and the fault path cannot back out
  // of needing one, so it may dip into the pageout reserve.
  phys::Page* pt = ctx_.phys().AllocPage(phys::OwnerKind::kKernel, this, idx, /*zero=*/true,
                                         phys::AllocPri::kEmergency);
  SIM_POOL_FATAL_OK("emergency allocation below the reserve; only fails if RAM is truly empty");
  SIM_ASSERT_MSG(pt != nullptr, "out of memory allocating page-table page");
  ctx_.phys().Wire(pt);
  ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().ptpage_alloc_ns);
  ptpages_.emplace(idx, pt);
  if (on_ptpage_alloc_) {
    on_ptpage_alloc_(pt);
  }
}

void Pmap::Enter(sim::Vaddr va, phys::Page* page, sim::Prot prot, bool wired) {
  SIM_ASSERT_MSG(!page->poisoned, "mapping a poisoned frame");
  va = sim::PageTrunc(va);
  // PT-page allocation happens outside the pmap lock: it reaches the page
  // queues and the BSD kmap hook, both of which rank below kPmap.
  EnsurePtPage(va);
  sim::LockGuard g(ctx_.pmap_lock_);
  ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_enter_ns);
  if (Pte* pte = LookupPte(va); pte != nullptr) {
    // Replacing an existing mapping.
    if (pte->pfn == page->pfn) {
      if (pte->wired && !wired) {
        --wired_count_;
      } else if (!pte->wired && wired) {
        ++wired_count_;
      }
      pte->prot = prot;
      pte->wired = wired;
      return;
    }
    RemoveLocked(va);
  }
  ptes_[va] = Pte{page->pfn, prot, wired};
  if (wired) {
    ++wired_count_;
  }
  ctx_.PvAdd(page->pfn, this, va);
}

void Pmap::RemoveLocked(sim::Vaddr va_page) {
  auto it = ptes_.find(va_page);
  if (it == ptes_.end()) {
    return;
  }
  if (it->second.wired) {
    --wired_count_;
  }
  ctx_.PvRemove(it->second.pfn, this, va_page);
  if (cache_pte_ != nullptr && cache_va_ == va_page) {
    cache_pte_ = nullptr;
  }
  ptes_.erase(it);
}

void Pmap::Remove(sim::Vaddr va) {
  sim::LockGuard g(ctx_.pmap_lock_);
  ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_remove_ns);
  RemoveLocked(sim::PageTrunc(va));
}

void Pmap::RemoveRange(sim::Vaddr start, sim::Vaddr end) {
  sim::LockGuard g(ctx_.pmap_lock_);
  for (sim::Vaddr va = sim::PageTrunc(start); va < end; va += sim::kPageSize) {
    if (ptes_.contains(va)) {
      ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_remove_ns);
      RemoveLocked(va);
    }
  }
}

void Pmap::RemoveAll() {
  // Tear down in ascending va order rather than hash order: removal order
  // reaches the pv lists and (via pageout interactions) the page queues, so
  // it must not depend on unordered_map internals.
  std::vector<sim::Vaddr> vas;
  vas.reserve(ptes_.size());
  SIM_ORDERED_OK("collect-only walk; addresses sorted before removal");
  for (const auto& [va, pte] : ptes_) {
    vas.push_back(va);
  }
  std::sort(vas.begin(), vas.end());
  sim::LockGuard g(ctx_.pmap_lock_);
  for (sim::Vaddr va : vas) {
    ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_remove_ns);
    RemoveLocked(va);
  }
}

void Pmap::Protect(sim::Vaddr va, sim::Prot prot) {
  sim::LockGuard g(ctx_.pmap_lock_);
  Pte* pte = LookupPte(sim::PageTrunc(va));
  if (pte == nullptr) {
    return;
  }
  ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_protect_ns);
  if (prot == sim::Prot::kNone) {
    RemoveLocked(sim::PageTrunc(va));
  } else {
    pte->prot = prot;
  }
}

void Pmap::ProtectRange(sim::Vaddr start, sim::Vaddr end, sim::Prot prot) {
  for (sim::Vaddr va = sim::PageTrunc(start); va < end; va += sim::kPageSize) {
    Protect(va, prot);
  }
}

void Pmap::IntersectProtRange(sim::Vaddr start, sim::Vaddr end, sim::Prot prot) {
  sim::LockGuard g(ctx_.pmap_lock_);
  for (sim::Vaddr va = sim::PageTrunc(start); va < end; va += sim::kPageSize) {
    Pte* pte = LookupPte(va);
    if (pte == nullptr) {
      continue;
    }
    ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_protect_ns);
    sim::Prot np = pte->prot & prot;
    if (np == sim::Prot::kNone && !pte->wired) {
      RemoveLocked(va);
    } else {
      pte->prot = np;
    }
  }
}

void Pmap::ChangeWiring(sim::Vaddr va, bool wired) {
  sim::LockGuard g(ctx_.pmap_lock_);
  Pte* pte = LookupPte(sim::PageTrunc(va));
  if (pte == nullptr) {
    return;
  }
  if (pte->wired != wired) {
    pte->wired = wired;
    wired_count_ += wired ? 1 : -1;
  }
}

void Pmap::UnwireRange(sim::Vaddr start, sim::Vaddr end) {
  phys::PhysMem& pm = ctx_.phys();
  for (sim::Vaddr va = start; va < end; va += sim::kPageSize) {
    auto pte = Extract(va);
    if (pte.has_value() && pte->wired) {
      pm.Unwire(pm.PageAt(pte->pfn));
      ChangeWiring(va, false);
    }
  }
}

std::optional<Pte> Pmap::Extract(sim::Vaddr va) const {
  sim::LockGuard g(ctx_.pmap_lock_);  // ctx_ is a non-const reference
  ctx_.machine().Charge(sim::CostCat::kPmap, ctx_.machine().cost().pmap_extract_ns);
  Pte* pte = LookupPte(sim::PageTrunc(va));
  if (pte == nullptr) {
    return std::nullopt;
  }
  return *pte;
}

}  // namespace mmu
