// The BSD VM baseline system: the Mach-derived 4.4BSD virtual memory design
// the paper replaces. Implements kern::VmSystem (over kern::MapVm's shared
// syscall skeleton) with shadow-object chains, the collapse operation, the
// 100-entry object cache, two-step mapping (establish with default
// attributes, then modify), single-lock unmap, map fragmentation on every
// wiring, and one-page-at-a-time pageout I/O.
#ifndef SRC_BSDVM_BSD_VM_H_
#define SRC_BSDVM_BSD_VM_H_

#include <cstddef>
#include <list>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/bsdvm/pagers.h"
#include "src/bsdvm/vm_map.h"
#include "src/bsdvm/vm_object.h"
#include "src/vm/map_vm.h"
#include "src/vm/vm_iface.h"
#include "src/mmu/pmap.h"
#include "src/phys/pagedaemon.h"
#include "src/phys/phys_mem.h"
#include "src/sim/lock.h"
#include "src/sim/machine.h"
#include "src/swap/swap_device.h"
#include "src/vfs/vnode.h"

namespace bsdvm {

class BsdVm;

class BsdAddressSpace : public kern::AddressSpace {
 public:
  BsdAddressSpace(BsdVm& vm, bool is_kernel);

  mmu::Pmap& pmap() override { return pmap_; }
  std::size_t EntryCount() const override { return map_.entry_count(); }

  VmMap& map() { return map_; }

 private:
  friend class BsdVm;
  friend class kern::MapVm<BsdVm, BsdAddressSpace>;
  VmMap map_;
  // BSD VM mirrors each page-table page into the kernel map (§3.2); this
  // records which kernel-map entry belongs to which PT page for teardown.
  std::unordered_map<phys::Page*, sim::Vaddr> ptpage_entries_;
  mmu::Pmap pmap_;
};

struct BsdConfig {
  std::size_t object_cache_limit = 100;  // §4: the one-hundred-file limit
  std::size_t kernel_map_entries = 4096;  // fixed kernel entry pool
  bool enable_collapse = true;            // ablation switch
  kern::VmTuning tuning;                  // shared pageout-retry policy
};

class BsdVm : public kern::MapVm<BsdVm, BsdAddressSpace>, private phys::PageoutHooks {
 public:
  BsdVm(sim::Machine& machine, phys::PhysMem& pm, mmu::MmuContext& mmu, vfs::VnodeCache& vnodes,
        swp::SwapDevice& swap, const BsdConfig& config = BsdConfig{});
  ~BsdVm() override;

  const char* name() const override { return "bsdvm"; }

  kern::AddressSpace* Fork(kern::AddressSpace& parent) override;
  kern::AddressSpace& kernel_as() override { return *kernel_as_; }

  int Map(kern::AddressSpace& as, sim::Vaddr* addr, std::uint64_t len, vfs::Vnode* vn,
          sim::ObjOffset off, const kern::MapAttrs& attrs) override;
  int MapDevice(kern::AddressSpace& as, sim::Vaddr* addr, kern::DeviceMem& dev,
                const kern::MapAttrs& attrs) override;
  int Unmap(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override;
  // The shared all-or-nothing walk, inside a `bsd_protect` cost scope.
  int Protect(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
              sim::Prot prot) override;
  int Msync(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override;
  int MadvFree(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override;

  int WireTransient(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                    kern::TransientWiring* out) override;
  void UnwireTransient(kern::AddressSpace& as, kern::TransientWiring& tw) override;

  int AllocProcResources(kern::ProcKernelResources* out) override;
  void FreeProcResources(kern::ProcKernelResources& res) override;
  void SwapOutProcResources(kern::ProcKernelResources& res) override;
  void SwapInProcResources(kern::ProcKernelResources& res) override;

  std::size_t PageDaemon(std::size_t target_free) override;

  std::size_t KernelMapEntries() const override { return kernel_as_->EntryCount(); }
  std::size_t AnonResidentPages(kern::AddressSpace& as) const override;
  const kern::VmTuning& tuning() const override { return config_.tuning; }

  // --- BSD-specific introspection used by tests and benches ---
  std::size_t object_cache_size() const { return object_cache_.size(); }
  std::size_t live_objects() const { return all_objects_.size(); }
  // Total anonymous pages held (resident + swapped) across all internal
  // objects. The swap-leak test compares this against the number of
  // distinct accessible pages.
  std::size_t TotalAnonPages() const;
  // Longest shadow chain below any entry of `as`.
  std::size_t MaxChainDepth(kern::AddressSpace& as) const;

 private:
  friend class BsdAddressSpace;
  friend class kern::MapVm<BsdVm, BsdAddressSpace>;

  VmObject* NewObject(std::size_t size_pages, bool internal);
  // Swap pagers share the VM-wide swap-block slab.
  std::unique_ptr<SwapPager> NewSwapPager();
  VmObject* ObjectForVnode(vfs::Vnode* vn);
  void RefObject(VmObject* obj);
  void DerefObject(VmObject* obj);
  void TerminateObject(VmObject* obj);
  void CacheInsert(VmObject* obj);
  void CacheRemove(VmObject* obj);

  // Give `entry` a fresh shadow object, clearing needs-copy.
  void ShadowEntry(MapEntry& entry);
  void TryCollapse(VmObject* top);
  bool CanBypass(const VmObject* o, const VmObject* s) const;

  phys::Page* AllocPageInObject(VmObject* obj, std::uint64_t pgindex, bool zero);
  // Remove a page from its object and free the frame (mappings removed).
  void FreeObjectPage(phys::Page* p);

  // Pageout (§6): the per-owner halves of the shared pagedaemon scan.
  void ContainPoisoned(phys::Page* p) override;
  std::size_t Reclaim(phys::Page* p) override;

  // --- hwpoison containment (DESIGN.md §13) ---
  // A fault found a poisoned resident page in the chain. Clean pages are
  // discarded (backing store or zero fill refetches transparently); dirty
  // pages are unrecoverable — kErrMemPoison, and the kernel kills the
  // toucher. Dirty vnode pages are additionally dropped so the stale
  // on-disk copy serves later faults instead of killing every mapper.
  int ContainPoisonedPage(phys::Page* p);
  // Registered with sim::Auditor as "bsd.state": object refcount/cache
  // invariants, page back-pointers, swap-slot ownership.
  void AuditState(sim::Auditor& auditor) const;

  static constexpr const char* kFaultLabel = "bsd_fault";
  // The locked section of a fault (kern::MapVm's fault entry holds the map
  // lock around it).
  int FaultBody(BsdAddressSpace& as, sim::Vaddr va, sim::Access access);
  // The page currently backing `va` in `e`, resident only: the first hit
  // walking the entry's shadow chain from the top (mincore).
  static phys::Page* LookupPage(MapEntry& e, sim::Vaddr va);

  // The range walker's split hook (sim::AddrMap::WalkRange): both halves
  // of a clipped entry share its object, so each split takes a reference.
  struct DupRefs {
    BsdVm* vm;
    void operator()(MapEntry& e) const;
  };

  mmu::MmuContext& mmu_;
  vfs::VnodeCache& vnodes_;
  swp::SwapDevice& swap_;
  BsdConfig config_;
  phys::Pagedaemon pagedaemon_;

  // Class-level stand-in for BSD's per-object locks: the fault chain walk
  // takes it once per hop, folding the hop cost into the acquire so the
  // virtual-time charge matches the pre-SimLock model exactly.
  sim::SimLock object_chain_lock_;

  // Metadata slabs (DESIGN.md §14). Declared before kernel_as_ and the
  // object registries: every object/swap-block/map-entry must be freed
  // (teardown in ~BsdVm's body) before the pools' leak asserts run.
  sim::Pool<VmObject> object_pool_;
  sim::PoolResource swap_block_pool_;       // SwapPager block-map nodes
  sim::PoolResource map_entry_pool_;        // every VmMap's entry nodes
  sim::PoolResource pagestore_chunk_pool_;  // object page-store chunks

  std::unique_ptr<BsdAddressSpace> kernel_as_;
  // Ordered by creation id, not pointer value: walks over the live-object
  // registry (TotalAnonPages, AuditState) must not depend on where the
  // allocator happened to place each object.
  struct VmObjectIdLess {
    bool operator()(const VmObject* a, const VmObject* b) const { return a->id < b->id; }
  };
  std::set<VmObject*, VmObjectIdLess> all_objects_;
  std::uint64_t next_object_id_ = 0;
  std::unordered_map<vfs::Vnode*, VmObject*> pager_hash_;
  std::list<VmObject*> object_cache_;  // front = least recently cached
  // Device objects: one per mapped device, permanently referenced by this
  // registry (BSD's device pager kept the pages for the device lifetime).
  std::unordered_map<kern::DeviceMem*, VmObject*> device_objects_;
  sim::Vaddr kernel_alloc_hint_ = 0;
};

}  // namespace bsdvm

#endif  // SRC_BSDVM_BSD_VM_H_
