#include "src/bsdvm/bsd_vm.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "src/sim/annotations.h"
#include "src/sim/assert.h"
#include "src/sim/retry.h"

namespace bsdvm {

BsdAddressSpace::BsdAddressSpace(BsdVm& vm, bool is_kernel)
    : map_(vm.machine(), is_kernel ? BsdVm::kKernMin : BsdVm::kUserMin,
           is_kernel ? BsdVm::kKernMax : BsdVm::kUserMax,
           is_kernel ? vm.config_.kernel_map_entries : 0, &vm.map_entry_pool_,
           is_kernel ? "bsd.kmap" : "bsd.map"),
      pmap_(
          vm.mmu_, is_kernel,
          // BSD VM: the i386 pmap module records each page-table page in the
          // kernel map as well (§3.2); UVM keeps it only in the pmap.
          is_kernel ? std::function<void(phys::Page*)>{}
                    : [&vm, this](phys::Page* pt) {
                        sim::Vaddr va = 0;
                        auto& kmap = vm.kernel_as_->map_;
                        kmap.Lock();
                        int err = kmap.FindSpace(&va, sim::kPageSize);
                        SIM_ASSERT(err == sim::kOk);
                        MapEntry e;
                        e.start = va;
                        e.end = va + sim::kPageSize;
                        e.prot = sim::Prot::kReadWrite;
                        e.inherit = sim::Inherit::kNone;
                        e.wired_count = 1;
                        err = kmap.InsertEntry(e);
                        SIM_POOL_FATAL_OK("BSD PT-page mirror fires mid-fault with no way to back out; the kernel entry pool is never shrunk by pressure plans");
                        SIM_ASSERT_MSG(err == sim::kOk, "kernel map entry pool exhausted");
                        kmap.Unlock();
                        ptpage_entries_.emplace(pt, va);
                      },
          is_kernel ? std::function<void(phys::Page*)>{}
                    : [&vm, this](phys::Page* pt) {
                        auto it = ptpage_entries_.find(pt);
                        SIM_ASSERT(it != ptpage_entries_.end());
                        auto& kmap = vm.kernel_as_->map_;
                        kmap.Lock();
                        auto eit = kmap.LookupEntry(it->second);
                        SIM_ASSERT(eit != kmap.entries().end());
                        kmap.EraseEntry(eit);
                        kmap.Unlock();
                        ptpage_entries_.erase(it);
                      }) {}

BsdVm::BsdVm(sim::Machine& machine, phys::PhysMem& pm, mmu::MmuContext& mmu,
             vfs::VnodeCache& vnodes, swp::SwapDevice& swap, const BsdConfig& config)
    : MapVm(machine, pm),
      mmu_(mmu),
      vnodes_(vnodes),
      swap_(swap),
      config_(config),
      pagedaemon_(pm, *this, "bsd_pagedaemon", config.tuning.max_alloc_retries),
      object_chain_lock_(machine, "bsd.object", sim::LockRank::kObject,
                         /*acquire_ns=*/nullptr,
                         sim::SimLock::Attribution::kContext),
      object_pool_("bsd.object", &machine.pools()),
      swap_block_pool_("bsd.swap_blocks", &machine.pools()),
      map_entry_pool_("bsd.map_entries", &machine.pools()),
      pagestore_chunk_pool_("bsd.pagestore_chunks", &machine.pools()) {
  kernel_as_ = std::make_unique<BsdAddressSpace>(*this, /*is_kernel=*/true);
  audit_token_ =
      machine_.auditor().Register("bsd.state", [this](sim::Auditor& a) { AuditState(a); });
}

BsdVm::~BsdVm() {
  // Release device objects and their wired frames, in object-creation order
  // rather than hash order: freed frames reach the allocator's free list,
  // whose order later allocations observe.
  std::vector<VmObject*> dev_objs;
  dev_objs.reserve(device_objects_.size());
  SIM_ORDERED_OK("collect only; sorted by creation id below");
  for (auto& [dev, obj] : device_objects_) {
    dev_objs.push_back(obj);
  }
  std::sort(dev_objs.begin(), dev_objs.end(),
            [](const VmObject* a, const VmObject* b) { return a->id < b->id; });
  for (VmObject* obj : dev_objs) {
    // The DeviceMem may already be destroyed (the kernel owns it); free the
    // frames from the object's own page list.
    while (!obj->pages.empty()) {
      phys::Page* p = obj->pages.begin()->second;
      obj->pages.erase(p->offset);
      mmu_.PageProtect(p, sim::Prot::kNone);
      pm_.Unwire(p);
      pm_.Dequeue(p);
      pm_.FreePage(p);
    }
    DerefObject(obj);
  }
  device_objects_.clear();
  // Release kernel-map reservations (and their anonymous objects).
  Unmap(*kernel_as_, kKernMin, kKernMax - kKernMin);
  // Drain the object cache so vnode references are dropped.
  while (!object_cache_.empty()) {
    VmObject* obj = object_cache_.front();
    CacheRemove(obj);
    TerminateObject(obj);
  }
  SIM_ASSERT_MSG(all_objects_.empty(), "BsdVm destroyed with live objects");
  machine_.auditor().Unregister(audit_token_);
}

// ---------------------------------------------------------------------------
// Objects

std::unique_ptr<SwapPager> BsdVm::NewSwapPager() {
  return std::make_unique<SwapPager>(swap_, &swap_block_pool_);
}

VmObject* BsdVm::NewObject(std::size_t size_pages, bool internal) {
  machine_.Charge(sim::CostCat::kAlloc, machine_.cost().object_alloc_ns);
  ++machine_.stats().objects_allocated;
  VmObject* obj = object_pool_.New(size_pages, internal);
  obj->id = next_object_id_++;
  obj->pages.BindStats(&machine_.stats());
  obj->pages.BindPool(&pagestore_chunk_pool_);
  all_objects_.insert(obj);
  return obj;
}

VmObject* BsdVm::ObjectForVnode(vfs::Vnode* vn) {
  machine_.Charge(sim::CostCat::kAlloc, machine_.cost().pager_hash_ns);
  auto it = pager_hash_.find(vn);
  if (it != pager_hash_.end()) {
    VmObject* obj = it->second;
    if (obj->in_cache_) {
      ++machine_.stats().object_cache_hits;
      CacheRemove(obj);
    }
    ++obj->ref_count;
    return obj;
  }
  // BSD VM allocates three structures for a fresh vnode mapping: the
  // vm_object, the vm_pager and the pager-private vn_pager, plus a pager
  // hash-table insertion (§6, Figure 4).
  VmObject* obj = NewObject(vn->size_pages(), /*internal=*/false);
  obj->can_persist_ = true;
  machine_.Charge(sim::CostCat::kAlloc, machine_.cost().pager_alloc_ns * 2);
  machine_.Charge(sim::CostCat::kAlloc, machine_.cost().pager_hash_ns);
  obj->pager = std::make_unique<VnodePager>(vnodes_, vn);
  obj->ref_count = 1;
  pager_hash_.emplace(vn, obj);
  return obj;
}

void BsdVm::RefObject(VmObject* obj) {
  SIM_ASSERT(!obj->in_cache_);
  ++obj->ref_count;
}

void BsdVm::DerefObject(VmObject* obj) {
  while (obj != nullptr) {
    SIM_ASSERT(obj->ref_count > 0);
    if (--obj->ref_count > 0) {
      return;
    }
    if (obj->can_persist_) {
      CacheInsert(obj);
      return;
    }
    VmObject* next = obj->shadow;
    obj->shadow = nullptr;
    TerminateObject(obj);
    obj = next;
  }
}

void BsdVm::CacheInsert(VmObject* obj) {
  SIM_ASSERT(obj->ref_count == 0 && !obj->in_cache_);
  obj->in_cache_ = true;
  object_cache_.push_back(obj);
  if (object_cache_.size() > config_.object_cache_limit) {
    VmObject* victim = object_cache_.front();
    ++machine_.stats().object_cache_evictions;
    CacheRemove(victim);
    TerminateObject(victim);
  }
}

void BsdVm::CacheRemove(VmObject* obj) {
  SIM_ASSERT(obj->in_cache_);
  auto it = std::find(object_cache_.begin(), object_cache_.end(), obj);
  SIM_ASSERT(it != object_cache_.end());
  object_cache_.erase(it);
  obj->in_cache_ = false;
}

void BsdVm::TerminateObject(VmObject* obj) {
  SIM_ASSERT(obj->ref_count == 0 && !obj->in_cache_);
  // Flush dirty pages of vnode-backed objects back to the file. Terminate
  // cannot report failure, so flushes retry transient errors (the shared
  // VmTuning retry budget, with the same backoff and accounting as the
  // pagedaemon) and then drop the write, counting the drop (matching a
  // real kernel on dying media).
  if (!obj->internal_ && obj->pager != nullptr) {
    sim::ChargeScope scope(machine_, sim::CostCat::kPageout, "bsd_terminate_flush");
    for (auto& [pgi, page] : obj->pages) {
      // A poisoned page's bytes are garbage; dropping the write keeps the
      // coherent pre-write copy on disk.
      if (page->dirty && !page->poisoned) {
        int err = sim::RetryPageoutIo(machine_, config_.tuning.max_pageout_retries,
                                      [&] { return obj->pager->PutPage(pm_, page, pgi); });
        if (err == sim::kErrIO) {
          ++machine_.stats().pageout_drops;
          if (machine_.tracer().enabled()) {
            machine_.tracer().Instant(sim::CostCat::kPageout, "bsd_pageout_drop",
                                      machine_.clock().now(), pgi);
          }
        }
      }
    }
    pager_hash_.erase(static_cast<VnodePager*>(obj->pager.get())->vnode());
  }
  while (!obj->pages.empty()) {
    FreeObjectPage(obj->pages.begin()->second);
  }
  obj->pager.reset();  // frees swap slots / vnode reference
  VmObject* shadow = obj->shadow;
  all_objects_.erase(obj);
  object_pool_.Delete(obj);
  if (shadow != nullptr) {
    DerefObject(shadow);
  }
}

phys::Page* BsdVm::AllocPageInObject(VmObject* obj, std::uint64_t pgindex, bool zero) {
  SIM_ASSERT(!obj->pages.contains(pgindex));
  phys::Page* p = pagedaemon_.AllocPage(phys::OwnerKind::kBsdObject, obj, pgindex, zero);
  if (p == nullptr) {
    return nullptr;
  }
  obj->pages.emplace(pgindex, p);
  return p;
}

void BsdVm::FreeObjectPage(phys::Page* p) {
  SIM_ASSERT(p->owner_kind == phys::OwnerKind::kBsdObject);
  auto* obj = static_cast<VmObject*>(p->owner);
  mmu_.PageProtect(p, sim::Prot::kNone);
  obj->pages.erase(p->offset);
  pm_.FreePage(p);
}

int BsdVm::ContainPoisonedPage(phys::Page* p) {
  SIM_ASSERT_MSG(p->wire_count == 0, "EMEMPOISON: poisoned wired/device page is uncontainable");
  machine_.Charge(sim::CostCat::kPoison, machine_.cost().poison_contain_ns);
  auto* obj = static_cast<VmObject*>(p->owner);
  if (p->dirty) {
    // The only copy of modified data is gone. An internal page stays
    // attached so every later toucher is killed too (matching the anon
    // case in UVM); a vnode page is dropped so the stale on-disk copy
    // serves later faults instead of turning a persistent cached object
    // into a permanent kill-trap.
    if (!obj->internal_) {
      FreeObjectPage(p);
    }
    return sim::kErrMemPoison;
  }
  ++machine_.stats().poison_discards;
  ++machine_.stats().poison_refetches;
  if (machine_.tracer().enabled()) {
    machine_.tracer().Instant(sim::CostCat::kPoison, "bsd_poison_refetch", machine_.clock().now(),
                              p->pfn);
  }
  FreeObjectPage(p);
  return sim::kOk;
}

// ---------------------------------------------------------------------------
// Shadow chains: creation, collapse, bypass

void BsdVm::ShadowEntry(MapEntry& entry) {
  machine_.Charge(sim::CostCat::kAlloc, machine_.cost().object_alloc_ns);
  ++machine_.stats().shadows_created;
  VmObject* shadow = NewObject(entry.npages(), /*internal=*/true);
  shadow->shadow = entry.object;  // takes over the entry's reference
  shadow->shadow_pgoffset = entry.pgoffset;
  shadow->ref_count = 1;
  entry.object = shadow;
  entry.pgoffset = 0;
  entry.needs_copy = false;
}

bool BsdVm::CanBypass(const VmObject* o, const VmObject* s) const {
  // s can be bypassed if it contributes no data visible through o. Scan
  // s's resident pages (bailing on the first contribution, as Mach does);
  // any swap-resident data is conservatively treated as a contribution.
  if (s->pager != nullptr) {
    return false;
  }
  for (const auto& [si, page] : s->pages) {
    if (si < o->shadow_pgoffset) {
      continue;
    }
    std::uint64_t i = si - o->shadow_pgoffset;
    if (i >= o->size_pages_) {
      continue;
    }
    if (!o->pages.contains(i)) {
      return false;  // s's page is visible through o
    }
  }
  return true;
}

void BsdVm::TryCollapse(VmObject* top) {
  if (!config_.enable_collapse) {
    return;
  }
  VmObject* o = top;
  while (o != nullptr && o->internal_ && o->shadow != nullptr) {
    VmObject* s = o->shadow;
    ++machine_.stats().collapse_attempts;
    machine_.Charge(machine_.cost().collapse_attempt_ns);
    // Wired, busy, or loaned pages pin the chain: collapse must wait (the
    // classic Mach restriction).
    bool pinned = false;
    for (const auto& [spgi, sp] : s->pages) {
      if (sp->wire_count > 0 || sp->busy || sp->loan_count > 0) {
        pinned = true;
        break;
      }
    }
    if (pinned) {
      break;
    }
    if (s->ref_count == 1 && s->pager == nullptr && s->internal_) {
      // Full collapse: absorb s's pages into o and splice it out.
      ++machine_.stats().collapses_done;
      for (auto it = s->pages.begin(); it != s->pages.end();) {
        std::uint64_t spgi = it->first;
        phys::Page* sp = it->second;
        it = s->pages.erase(it);
        bool visible = spgi >= o->shadow_pgoffset &&
                       spgi - o->shadow_pgoffset < o->size_pages_ &&
                       !o->pages.contains(spgi - o->shadow_pgoffset);
        if (visible) {
          sp->offset = spgi - o->shadow_pgoffset;
          sp->owner = o;
          o->pages.emplace(sp->offset, sp);
        } else {
          // Redundant copy: this is exactly the memory the collapse exists
          // to reclaim.
          mmu_.PageProtect(sp, sim::Prot::kNone);
          pm_.FreePage(sp);
        }
      }
      o->shadow = s->shadow;  // o inherits s's reference on s->shadow
      o->shadow_pgoffset += s->shadow_pgoffset;
      s->shadow = nullptr;
      s->ref_count = 0;
      all_objects_.erase(s);
      object_pool_.Delete(s);
      continue;
    }
    if (s->ref_count > 1 && CanBypass(o, s)) {
      ++machine_.stats().bypasses_done;
      o->shadow = s->shadow;
      o->shadow_pgoffset += s->shadow_pgoffset;
      if (s->shadow != nullptr) {
        ++s->shadow->ref_count;
      }
      DerefObject(s);
      continue;
    }
    // ref_count == 1 with a swap pager: 4.4BSD cannot collapse through an
    // object that has paged to backing store — the swap-leak source (§5.1).
    break;
  }
}

// ---------------------------------------------------------------------------
// Mapping operations

int BsdVm::Map(kern::AddressSpace& as_, sim::Vaddr* addr, std::uint64_t len, vfs::Vnode* vn,
               sim::ObjOffset off, const kern::MapAttrs& attrs) {
  sim::ChargeScope scope(machine_, sim::CostCat::kMap, "bsd_map");
  auto& as = static_cast<BsdAddressSpace&>(as_);
  len = sim::PageRound(len);
  if (len == 0) {
    return sim::kErrInval;
  }
  VmMap& map = as.map_;

  // --- Step 1: vm_map_find() establishes the mapping with DEFAULT
  // attributes (read-write protection, copy inheritance, normal advice).
  map.Lock();
  if (int err = map.Place(addr, len, attrs.fixed); err != sim::kOk) {
    map.Unlock();
    return err;
  }

  MapEntry e;
  e.start = *addr;
  e.end = *addr + len;
  e.prot = sim::Prot::kReadWrite;  // the insecure default (§3.1)
  e.max_prot = attrs.max_prot;
  e.advice = sim::Advice::kNormal;
  if (vn != nullptr) {
    e.object = ObjectForVnode(vn);
    e.pgoffset = off >> sim::kPageShift;
    if (!attrs.shared) {
      e.copy_on_write = true;
      e.needs_copy = true;
      e.eager_shadow = true;  // BSD shadows private mappings on any fault
    }
    e.inherit = attrs.shared ? sim::Inherit::kShared : sim::Inherit::kCopy;
  } else {
    // Zero-fill: BSD VM allocates the anonymous object right away (§5.1).
    e.object = NewObject(len >> sim::kPageShift, /*internal=*/true);
    e.object->ref_count = 1;
    e.pgoffset = 0;
    e.inherit = attrs.shared ? sim::Inherit::kShared : sim::Inherit::kCopy;
  }
  if (int err = map.InsertEntry(e); err != sim::kOk) {
    map.Unlock();
    DerefObject(e.object);
    return err;
  }
  map.Unlock();

  // --- Step 2: every non-default attribute needs a separate relock +
  // lookup + modify pass. Between step 1 and step 2 the mapping is live
  // with read-write protection — the security window the paper describes.
  if (attrs.prot != sim::Prot::kReadWrite) {
    Protect(as, *addr, len, attrs.prot);
  }
  if (attrs.inherit.has_value() && *attrs.inherit != e.inherit) {
    SetInherit(as, *addr, len, *attrs.inherit);
  }
  if (attrs.advice != sim::Advice::kNormal) {
    SetAdvice(as, *addr, len, attrs.advice);
  }
  return sim::kOk;
}

int BsdVm::MapDevice(kern::AddressSpace& as_, sim::Vaddr* addr, kern::DeviceMem& dev,
                     const kern::MapAttrs& attrs) {
  sim::ChargeScope scope(machine_, sim::CostCat::kMap, "bsd_map_device");
  auto& as = static_cast<BsdAddressSpace&>(as_);
  auto dit = device_objects_.find(&dev);
  if (dit == device_objects_.end()) {
    // BSD VM: a standalone device object plus pager structures, entered in
    // the registry with a permanent reference.
    VmObject* obj = NewObject(dev.pages.size(), /*internal=*/false);
    machine_.Charge(sim::CostCat::kAlloc, machine_.cost().pager_alloc_ns * 2);
    obj->ref_count = 1;  // the registry's reference
    for (std::size_t i = 0; i < dev.pages.size(); ++i) {
      phys::Page* p = dev.pages[i];
      p->owner_kind = phys::OwnerKind::kBsdObject;
      p->owner = obj;
      p->offset = i;
      obj->pages.emplace(i, p);
    }
    dev.adopted_by_vm = true;
    dit = device_objects_.emplace(&dev, obj).first;
  }
  VmObject* obj = dit->second;
  std::uint64_t len = dev.pages.size() * sim::kPageSize;
  VmMap& map = as.map_;
  map.Lock();
  if (int err = map.Place(addr, len, attrs.fixed); err != sim::kOk) {
    map.Unlock();
    return err;
  }
  MapEntry e;
  e.start = *addr;
  e.end = *addr + len;
  e.prot = sim::Prot::kReadWrite;  // the insecure two-step default again
  e.max_prot = attrs.max_prot;
  e.object = obj;
  RefObject(obj);
  e.pgoffset = 0;
  if (!attrs.shared) {
    e.copy_on_write = true;
    e.needs_copy = true;
    e.eager_shadow = true;
  }
  e.inherit =
      attrs.inherit.value_or(attrs.shared ? sim::Inherit::kShared : sim::Inherit::kCopy);
  int err = map.InsertEntry(e);
  SIM_ASSERT(err == sim::kOk);
  map.Unlock();
  if (attrs.prot != sim::Prot::kReadWrite) {
    Protect(as, *addr, len, attrs.prot);
  }
  return sim::kOk;
}

void BsdVm::DupRefs::operator()(MapEntry& e) const {
  if (e.object != nullptr) {
    vm->RefObject(e.object);
  }
}

int BsdVm::Unmap(kern::AddressSpace& as_, sim::Vaddr addr, std::uint64_t len) {
  sim::ChargeScope scope(machine_, sim::CostCat::kMap, "bsd_unmap");
  auto& as = static_cast<BsdAddressSpace&>(as_);
  len = sim::PageRound(len);
  std::vector<VmObject*> drop;
  VmMap& map = as.map_;
  // BSD VM holds the map lock across the whole operation, including the
  // object dereferences that can trigger lengthy I/O (§3.1).
  map.Lock();
  auto first = [&] { return map.Seek(addr); };
  int err = map.WalkRangeLocked(addr, addr + len, first, DupRefs{this}, [&](VmMap::iterator it) {
    if (it->wired_count > 0) {
      as.pmap_.UnwireRange(it->start, it->end);
    }
    as.pmap_.RemoveRange(it->start, it->end);
    if (it->object != nullptr) {
      drop.push_back(it->object);
    }
    map.EraseEntry(it);
    return sim::kOk;
  });
  for (VmObject* obj : drop) {
    DerefObject(obj);
  }
  map.Unlock();
  return err;
}

int BsdVm::Protect(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len, sim::Prot prot) {
  sim::ChargeScope scope(machine_, sim::CostCat::kMap, "bsd_protect");
  return MapVm::Protect(as, addr, len, prot);
}

int BsdVm::Msync(kern::AddressSpace& as_, sim::Vaddr addr, std::uint64_t len) {
  sim::ChargeScope scope(machine_, sim::CostCat::kPageout, "bsd_msync");
  auto& as = static_cast<BsdAddressSpace&>(as_);
  len = sim::PageRound(len);
  sim::Vaddr end = addr + len;
  VmMap& map = as.map_;
  map.Lock();
  int rc = sim::kOk;
  map.ForEachOverlap(addr, end, [&](MapEntry& e, sim::Vaddr lo, sim::Vaddr hi) {
    // Walk the chain to the vnode object, flushing its dirty pages in the
    // affected index range — one page per I/O operation.
    VmObject* obj = e.object;
    std::uint64_t pgoff = e.pgoffset;
    while (obj != nullptr && obj->internal_) {
      pgoff += obj->shadow_pgoffset;
      obj = obj->shadow;
    }
    if (obj == nullptr || obj->pager == nullptr) {
      return;
    }
    for (sim::Vaddr va = lo; va < hi; va += sim::kPageSize) {
      std::uint64_t pgi = pgoff + ((va - e.start) >> sim::kPageShift);
      phys::Page* p = obj->LookupPage(pgi);
      // Never flush a poisoned page: its bytes are garbage and would
      // overwrite the coherent on-disk copy.
      if (p != nullptr && p->dirty && !p->poisoned) {
        // On error the page stays dirty; keep flushing the rest of the
        // range and report the first failure.
        int err = obj->pager->PutPage(pm_, p, pgi);
        if (err != sim::kOk && rc == sim::kOk) {
          rc = err;
        }
      }
    }
  });
  map.Unlock();
  return rc;
}

int BsdVm::MadvFree(kern::AddressSpace& as_, sim::Vaddr addr, std::uint64_t len) {
  auto& as = static_cast<BsdAddressSpace&>(as_);
  len = sim::PageRound(len);
  sim::Vaddr end = addr + len;
  VmMap& map = as.map_;
  map.Lock();
  map.ForEachOverlap(addr, end, [&](MapEntry& e, sim::Vaddr lo, sim::Vaddr hi) {
    // Only a privately held, chain-less anonymous object can be discarded
    // safely (anything deeper would "reveal" stale chain data).
    VmObject* obj = e.object;
    if (obj == nullptr || !obj->internal_ || obj->ref_count != 1 || obj->shadow != nullptr) {
      return;
    }
    for (sim::Vaddr va = lo; va < hi; va += sim::kPageSize) {
      std::uint64_t pgi = e.PageIndexOf(va);
      if (phys::Page* p = obj->LookupPage(pgi); p != nullptr) {
        if (p->wire_count > 0 || p->loan_count > 0 || p->busy) {
          continue;  // kept resident: its swap copy stays the backing copy
        }
        FreeObjectPage(p);
      }
      if (obj->pager != nullptr) {
        static_cast<SwapPager*>(obj->pager.get())->Invalidate(pgi);
      }
    }
  });
  map.Unlock();
  return sim::kOk;
}

phys::Page* BsdVm::LookupPage(MapEntry& e, sim::Vaddr va) {
  std::uint64_t pgi = e.PageIndexOf(va);
  for (VmObject* obj = e.object; obj != nullptr; obj = obj->shadow) {
    if (phys::Page* p = obj->LookupPage(pgi); p != nullptr) {
      return p;
    }
    pgi += obj->shadow_pgoffset;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Wiring (§3.2): everything goes through the map, fragmenting entries.

int BsdVm::WireTransient(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                         kern::TransientWiring* out) {
  // BSD vslock(): identical to mlock — wires through the map, permanently
  // fragmenting the entries (§3.2).
  out->va = addr;
  out->len = len;
  return Wire(as, addr, len);
}

void BsdVm::UnwireTransient(kern::AddressSpace& as, kern::TransientWiring& tw) {
  Unwire(as, tw.va, tw.len);
}

int BsdVm::AllocProcResources(kern::ProcKernelResources* out) {
  // BSD: the u-area and kernel stack are wired allocations in the kernel
  // map — two kernel map entries per process (§3.2).
  VmMap& kmap = kernel_as_->map_;
  for (std::size_t npages : {kUPages, kKStackPages}) {
    kmap.Lock();
    sim::Vaddr va = kernel_alloc_hint_;
    if (int err = kmap.FindSpace(&va, npages * sim::kPageSize); err != sim::kOk) {
      kmap.Unlock();
      return err;
    }
    MapEntry e;
    e.start = va;
    e.end = va + npages * sim::kPageSize;
    e.prot = sim::Prot::kReadWrite;
    e.inherit = sim::Inherit::kNone;
    e.wired_count = 1;
    if (int err = kmap.InsertEntry(e); err != sim::kOk) {
      kmap.Unlock();
      return err;
    }
    kmap.Unlock();
    out->kernel_ranges.emplace_back(va, npages * sim::kPageSize);
    for (std::size_t i = 0; i < npages; ++i) {
      phys::Page* p = pagedaemon_.AllocPage(phys::OwnerKind::kKernel, this, 0, /*zero=*/true);
      if (p == nullptr) {
        return sim::kErrNoMem;
      }
      pm_.Wire(p);
      out->wired_pages.push_back(p);
    }
  }
  return sim::kOk;
}

void BsdVm::SwapOutProcResources(kern::ProcKernelResources& res) {
  // BSD VM: the wired state lives in the kernel map, so swapping a process
  // out means relocking the kernel map and editing its entries (§3.2).
  VmMap& kmap = kernel_as_->map_;
  for (auto [va, len] : res.kernel_ranges) {
    kmap.Lock();
    auto it = kmap.LookupEntry(va);
    SIM_ASSERT(it != kmap.entries().end());
    it->wired_count = 0;
    kmap.Unlock();
  }
  for (phys::Page* p : res.wired_pages) {
    pm_.Unwire(p);
  }
}

void BsdVm::SwapInProcResources(kern::ProcKernelResources& res) {
  VmMap& kmap = kernel_as_->map_;
  for (auto [va, len] : res.kernel_ranges) {
    kmap.Lock();
    auto it = kmap.LookupEntry(va);
    SIM_ASSERT(it != kmap.entries().end());
    it->wired_count = 1;
    kmap.Unlock();
  }
  for (phys::Page* p : res.wired_pages) {
    pm_.Wire(p);
  }
}

void BsdVm::FreeProcResources(kern::ProcKernelResources& res) {
  VmMap& kmap = kernel_as_->map_;
  for (auto [va, len] : res.kernel_ranges) {
    kmap.Lock();
    auto it = kmap.LookupEntry(va);
    if (it != kmap.entries().end()) {
      kmap.EraseEntry(it);
    }
    kmap.Unlock();
  }
  res.kernel_ranges.clear();
  for (phys::Page* p : res.wired_pages) {
    pm_.Unwire(p);
    pm_.Dequeue(p);
    pm_.FreePage(p);
  }
  res.wired_pages.clear();
}

// ---------------------------------------------------------------------------
// Fork

kern::AddressSpace* BsdVm::Fork(kern::AddressSpace& parent_) {
  sim::ChargeScope scope(machine_, sim::CostCat::kFork, "bsd_fork");
  auto& parent = static_cast<BsdAddressSpace&>(parent_);
  auto* child = new BsdAddressSpace(*this, /*is_kernel=*/false);
  VmMap& pmapp = parent.map_;
  pmapp.Lock();
  for (MapEntry& e : pmapp.entries()) {
    switch (e.inherit) {
      case sim::Inherit::kNone:
        break;
      case sim::Inherit::kShared: {
        MapEntry ce = e;
        ce.wired_count = 0;
        if (ce.object != nullptr) {
          RefObject(ce.object);
        }
        int err = child->map_.InsertEntry(ce);
        SIM_ASSERT(err == sim::kOk);
        break;
      }
      case sim::Inherit::kCopy: {
        MapEntry ce = e;
        ce.wired_count = 0;
        if (e.object != nullptr) {
          // Both sides get needs-copy COW; the parent's resident pages are
          // write-protected to trigger the copy faults (§5.1).
          e.copy_on_write = true;
          e.needs_copy = true;
          e.eager_shadow = false;
          ce.copy_on_write = true;
          ce.needs_copy = true;
          ce.eager_shadow = false;
          RefObject(e.object);
          // vm_object_copy: per-resident-page copy-on-write marking at the
          // object layer, on top of the pmap write-protect both systems do.
          machine_.Charge(machine_.cost().bsd_fork_page_ns * e.object->pages.size());
          parent.pmap_.IntersectProtRange(e.start, e.end, sim::Prot::kReadExec);
        }
        int err = child->map_.InsertEntry(ce);
        SIM_ASSERT(err == sim::kOk);
        break;
      }
    }
  }
  pmapp.Unlock();
  return child;
}

// ---------------------------------------------------------------------------
// Fault handling (§5.1): chain walk, COW promotion, collapse attempts.

// The locked section of the fault: the caller holds (and releases) the map
// lock. Early error returns release nothing here, so virtual hold time is
// identical to the old inline-unlock structure (no charges happen between a
// return and the caller's Unlock).
int BsdVm::FaultBody(BsdAddressSpace& as, sim::Vaddr va, sim::Access access) {
  VmMap& map = as.map_;
  auto it = map.LookupEntry(va);
  if (it == map.entries().end()) {
    return sim::kErrFault;
  }
  MapEntry& e = *it;
  bool write = access == sim::Access::kWrite;
  sim::Prot need = write ? sim::Prot::kWrite : sim::Prot::kRead;
  if (!sim::ProtIncludes(e.prot, need)) {
    return sim::kErrProt;
  }
  if (e.object == nullptr) {
    return sim::kErrFault;  // kernel reservation, not faultable
  }
  // Captured up front: later steps (COW copies, loan breaks) may replace or
  // remove the existing translation, and the wire transfer needs the
  // original.
  const auto old_pte = as.pmap_.Extract(va);

  // BSD clears needs-copy by allocating a shadow object on a write fault —
  // or on any fault at all for mmap'd private mappings (Table 3's
  // "read/private" penalty).
  if (e.needs_copy && (write || e.eager_shadow)) {
    ShadowEntry(e);
  }

  VmObject* first = e.object;
  const std::uint64_t first_pgi = e.PageIndexOf(va);

  // Walk the shadow chain looking for the page.
  VmObject* obj = first;
  std::uint64_t pgi = first_pgi;
  phys::Page* page = nullptr;
  VmObject* found_in = nullptr;
  for (;;) {
    // Each object in the chain has its own lock that must be taken and
    // dropped while searching (§5.3). One class-level lock stands in for the
    // per-object locks; its acquire folds the hop cost into the same single
    // context charge the walk has always made.
    sim::LockGuard chain(object_chain_lock_,
                         machine_.cost().object_chain_hop_ns +
                             machine_.cost().object_lock_ns);
    page = obj->LookupPage(pgi);
    if (page != nullptr && page->poisoned) {
      // hwpoison discovery at fault time. Clean pages are discarded and the
      // walk falls through to re-probe this object's pager (or a deeper
      // chain level, or zero fill) — a transparent refetch. Dirty pages
      // surface kErrMemPoison and the kernel kills the toucher.
      if (int err = ContainPoisonedPage(page); err != sim::kOk) {
        return err;
      }
      page = nullptr;
    }
    if (page != nullptr) {
      found_in = obj;
      break;
    }
    if (obj->pager != nullptr && obj->pager->HasPage(pgi)) {
      page = AllocPageInObject(obj, pgi, /*zero=*/false);
      if (page == nullptr) {
        return sim::kErrNoMem;
      }
      sim::ChargeScope pagein_scope(machine_, sim::CostCat::kPagein, "bsd_pagein");
      if (int err = obj->pager->GetPage(pm_, page, pgi); err != sim::kOk) {
        // The backing copy is still intact; drop the empty frame and
        // surface the error to the faulting process.
        FreeObjectPage(page);
        if (err == sim::kErrIO) {
          ++machine_.stats().pagein_errors;
        }
        return err;
      }
      found_in = obj;
      break;
    }
    if (obj->shadow == nullptr) {
      break;
    }
    pgi += obj->shadow_pgoffset;
    obj = obj->shadow;
  }

  if (found_in == nullptr) {
    // Nothing anywhere in the chain: zero-fill in the first object.
    page = AllocPageInObject(first, first_pgi, /*zero=*/true);
    if (page == nullptr) {
      return sim::kErrNoMem;
    }
    found_in = first;
    if (write) {
      page->dirty = true;
    }
  }

  sim::Prot enter_prot = e.prot;
  if (found_in != first) {
    if (write) {
      // Copy-on-write promotion: copy the backing page into the first
      // object. The backing page stays where it is — possibly never again
      // accessible (the leak the collapse tries to repair).
      SIM_ASSERT(e.copy_on_write);
      const std::uint32_t src_gen = page->gen;
      phys::Page* np = AllocPageInObject(first, first_pgi, /*zero=*/false);
      if (np == nullptr) {
        return sim::kErrNoMem;
      }
      bool stale;
      {
        // The allocation may have run the pagedaemon, which can page the
        // backing copy out from under us — and a TryCollapse triggered from
        // a concurrent teardown can restructure the chain, so `page` (and
        // even `found_in`) may be dangling. Re-validate under the page-queue
        // lock; on staleness back out and let the kernel's pressure-recovery
        // loop retry the whole fault from the top.
        sim::LockGuard q(pm_.queue_lock());
        stale = !pm_.FrameIsCurrent(sim::LockToken(pm_.queue_lock()), page,
                                    src_gen);
      }
      if (stale) {
        FreeObjectPage(np);
        ++machine_.stats().fault_stale_page_retries;
        return sim::kErrNoMem;
      }
      pm_.CopyPage(page, np);
      np->dirty = true;
      pm_.Activate(page);
      page = np;
      found_in = first;
    } else if (e.copy_on_write) {
      enter_prot = enter_prot & sim::Prot::kReadExec;  // map RO, copy later
    }
  } else if (write) {
    page->dirty = true;
  }
  if (e.needs_copy) {
    enter_prot = enter_prot & sim::Prot::kReadExec;
  }

  // BSD VM attempts an object collapse on every copy-on-write fault (§5.3).
  if (e.copy_on_write && first->internal_) {
    TryCollapse(first);
  }

  bool wire = e.wired_count > 0;
  if (wire) {
    // A fault in a wired entry may replace the mapped page (e.g. a COW
    // copy); the physical wire must follow the new page.
    bool same = old_pte.has_value() && old_pte->wired && old_pte->pfn == page->pfn;
    if (old_pte.has_value() && old_pte->wired && old_pte->pfn != page->pfn) {
      pm_.Unwire(pm_.PageAt(old_pte->pfn));
    }
    if (!same) {
      pm_.Wire(page);
    }
  }
  as.pmap_.Enter(va, page, enter_prot, wire);
  page->referenced = true;
  if (page->wire_count == 0) {
    pm_.Activate(page);
  }
  return sim::kOk;
}

// ---------------------------------------------------------------------------
// Pageout: one page per I/O operation (§6).

std::size_t BsdVm::PageDaemon(std::size_t target_free) { return pagedaemon_.Run(target_free); }

void BsdVm::ContainPoisoned(phys::Page* p) {
  // Retire clean object pages now (backing store or zero fill refetches
  // transparently) and park everything else off-queue — dirty ones are
  // kill-traps for the fault path, and teardown retires them. Retired
  // frames do not count as freed.
  if (p->owner_kind == phys::OwnerKind::kBsdObject && !p->dirty && p->wire_count == 0 &&
      p->loan_count == 0 && !p->busy) {
    ++machine_.stats().poison_discards;
    FreeObjectPage(p);
  } else {
    pm_.Dequeue(p);
  }
}

std::size_t BsdVm::Reclaim(phys::Page* p) {
  if (p->owner_kind != phys::OwnerKind::kBsdObject) {
    pm_.Dequeue(p);
    return 0;
  }
  auto* obj = static_cast<VmObject*>(p->owner);
  mmu_.PageProtect(p, sim::Prot::kNone);
  if (p->dirty) {
    if (obj->pager == nullptr) {
      SIM_ASSERT(obj->internal_);
      machine_.Charge(sim::CostCat::kAlloc, machine_.cost().pager_alloc_ns);
      obj->pager = NewSwapPager();
    }
    // The page stays dirty through the retries, so giving up loses nothing.
    int perr = sim::RetryPageoutIo(machine_, config_.tuning.max_pageout_retries,
                                   [&] { return obj->pager->PutPage(pm_, p, p->offset); });
    if (perr != sim::kOk) {
      pm_.Activate(p);  // swap full or I/O error; keep the page
      return 0;
    }
    // First pageout to swap is one of BSD VM's collapse triggers (§5.1).
    TryCollapse(obj);
    // The collapse may have freed or moved `p`; re-check before freeing.
    if (p->owner_kind != phys::OwnerKind::kBsdObject || p->queue == phys::PageQueue::kFree) {
      return 1;
    }
    obj = static_cast<VmObject*>(p->owner);
  }
  obj->pages.erase(p->offset);
  pm_.FreePage(p);
  return 1;
}

// ---------------------------------------------------------------------------
// Introspection

std::size_t BsdVm::AnonResidentPages(kern::AddressSpace& as_) const {
  auto& as = static_cast<BsdAddressSpace&>(as_);
  // Anonymous memory in BSD VM lives in internal (shadow/zero-fill) objects;
  // walk each entry's chain, deduping shared objects. The per-object page
  // counts are summed, so the unordered visit order cannot affect the result.
  std::size_t n = 0;
  std::unordered_set<const VmObject*> seen;  // SIM_ORDERED_OK: order-insensitive sum
  for (const MapEntry& e : const_cast<VmMap&>(as.map_).entries()) {
    for (const VmObject* o = e.object; o != nullptr; o = o->shadow) {
      if (!o->internal_ || !seen.insert(o).second) {
        continue;
      }
      n += o->pages.size();
    }
  }
  return n;
}

std::size_t BsdVm::TotalAnonPages() const {
  std::size_t total = 0;
  for (VmObject* obj : all_objects_) {
    if (!obj->internal_) {
      continue;
    }
    std::set<std::uint64_t> logical;
    for (const auto& [pgi, page] : obj->pages) {
      logical.insert(pgi);
    }
    if (obj->pager != nullptr) {
      auto* sp = static_cast<SwapPager*>(obj->pager.get());
      for (std::uint64_t i = 0; i < obj->size_pages_; ++i) {
        if (sp->HasPage(i)) {
          logical.insert(i);
        }
      }
    }
    total += logical.size();
  }
  return total;
}

std::size_t BsdVm::MaxChainDepth(kern::AddressSpace& as_) const {
  auto& as = static_cast<BsdAddressSpace&>(as_);
  std::size_t deepest = 0;
  for (const MapEntry& e : const_cast<VmMap&>(as.map_).entries()) {
    std::size_t depth = 0;
    for (VmObject* o = e.object; o != nullptr; o = o->shadow) {
      ++depth;
    }
    deepest = std::max(deepest, depth);
  }
  return deepest;
}

void BsdVm::AuditState(sim::Auditor& auditor) const {
  std::unordered_set<std::int32_t> seen_slots;
  for (const VmObject* obj : all_objects_) {
    if (obj->ref_count <= 0 && !obj->in_cache_) {
      auditor.Fail("live bsd object with no references and not cached");
    }
    if (obj->in_cache_ && obj->ref_count != 0) {
      auditor.Fail("cached bsd object with references");
    }
    if (obj->in_cache_ && !obj->can_persist_) {
      auditor.Fail("cached non-persistent bsd object");
    }
    for (const auto& [pgi, page] : obj->pages) {
      if (page->owner_kind != phys::OwnerKind::kBsdObject || page->owner != obj ||
          page->offset != pgi) {
        auditor.Fail("bsd object page does not point back at its object/offset");
      }
      if (page->poisoned && page->loan_count > 0) {
        auditor.Fail("poisoned bsd page still loaned out");
      }
    }
    if (obj->shadow != nullptr && !all_objects_.contains(obj->shadow)) {
      auditor.Fail("bsd shadow pointer to an object not in the live set");
    }
    if (obj->internal_ && obj->pager != nullptr) {
      // Whole swap blocks are reserved up front, so a slot may be allocated
      // without holding valid data yet; either way it must be allocated on
      // the device and owned by exactly one pager.
      static_cast<const SwapPager*>(obj->pager.get())
          ->ForEachSlot([&](std::int32_t slot, bool) {
            if (!swap_.IsUsed(slot)) {
              auditor.Fail("bsd swap-pager slot is not allocated on the device");
            }
            if (!seen_slots.insert(slot).second) {
              auditor.Fail("two bsd swap pagers own the same swap slot");
            }
          });
    }
  }
  if (object_cache_.size() > config_.object_cache_limit) {
    auditor.Fail("bsd object cache exceeds its limit");
  }
}

}  // namespace bsdvm
