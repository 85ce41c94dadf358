// UVM itself (§2–§7): the paper's virtual memory system. Implements
// kern::VmSystem (over kern::MapVm's shared syscall skeleton) with:
//  - single-step secure mapping and two-phase unmap (§3.1),
//  - wiring that stays out of the map for all transient cases (§3.2),
//  - embedded memory objects with pager-routed lifetime (§4),
//  - amap/anon two-level anonymous memory with needs-copy deferral and
//    minherit support; no object chains, no collapse, no swap leaks (§5),
//  - a pager API where the pager allocates pages and clusters I/O, plus
//    aggressive pagedaemon clustering of anonymous pageout with dynamic
//    swap-slot reassignment (§6),
//  - page loanout, page transfer, and map-entry passing (§7),
//  - a fault handler with madvise-driven neighbour-mapping lookahead (§5.4).
#ifndef SRC_CORE_UVM_H_
#define SRC_CORE_UVM_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/amap.h"
#include "src/core/uvm_map.h"
#include "src/core/uvm_object.h"
#include "src/vm/map_vm.h"
#include "src/vm/vm_iface.h"
#include "src/mmu/pmap.h"
#include "src/phys/pagedaemon.h"
#include "src/phys/phys_mem.h"
#include "src/sim/lock.h"
#include "src/sim/machine.h"
#include "src/swap/swap_device.h"
#include "src/vfs/vnode.h"

namespace uvm {

class Uvm;

class UvmAddressSpace : public kern::AddressSpace {
 public:
  UvmAddressSpace(Uvm& vm, bool is_kernel);

  mmu::Pmap& pmap() override { return pmap_; }
  std::size_t EntryCount() const override { return map_.entry_count(); }

  UvmMap& map() { return map_; }

 private:
  friend class Uvm;
  friend class kern::MapVm<Uvm, UvmAddressSpace>;
  UvmMap map_;
  mmu::Pmap pmap_;
};

struct UvmConfig {
  std::size_t kernel_map_entries = 4096;
  AmapImplPolicy amap_policy = AmapImplPolicy::kArray;
  // Fault lookahead for Advice::kNormal: "look four pages ahead of the
  // faulting address and three pages behind" (§5.4).
  int lookahead_fwd = 4;
  int lookahead_back = 3;
  std::size_t pageout_cluster = 16;      // anon pageout cluster size (pages)
  std::size_t vnode_read_cluster = 8;    // clustered pagein size (pages)
  bool enable_lookahead = true;          // ablation switch
  bool cluster_anon_pageout = true;      // ablation switch
  bool cluster_vnode_io = true;          // ablation switch
  // Extensions beyond the paper's 1999 feature set:
  // Clustered swap-in (the paper's "future work" asynchronous pagein, in
  // synchronous form): when a fault pages in an anon whose neighbours sit
  // in contiguous swap slots (likely, given clustered pageout), read the
  // whole run in one I/O operation.
  bool cluster_swap_in = false;
  // Coalesce adjacent compatible anonymous map entries at map time
  // (NetBSD later added this to uvm_map). Off by default to keep Table 1
  // workload calibration byte-exact.
  bool merge_map_entries = false;
  kern::VmTuning tuning;  // shared pageout-retry policy
};

class Uvm : public kern::MapVm<Uvm, UvmAddressSpace>, private phys::PageoutHooks {
 public:
  Uvm(sim::Machine& machine, phys::PhysMem& pm, mmu::MmuContext& mmu, vfs::VnodeCache& vnodes,
      swp::SwapDevice& swap, const UvmConfig& config = UvmConfig{});
  ~Uvm() override;

  const char* name() const override { return "uvm"; }

  kern::AddressSpace* Fork(kern::AddressSpace& parent) override;
  kern::AddressSpace& kernel_as() override { return *kernel_as_; }

  int Map(kern::AddressSpace& as, sim::Vaddr* addr, std::uint64_t len, vfs::Vnode* vn,
          sim::ObjOffset off, const kern::MapAttrs& attrs) override;
  int MapDevice(kern::AddressSpace& as, sim::Vaddr* addr, kern::DeviceMem& dev,
                const kern::MapAttrs& attrs) override;
  int Unmap(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override;
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

  int Loan(kern::AddressSpace& as, sim::Vaddr va, std::size_t npages,
           std::vector<phys::Page*>* out) override;
  void Unloan(std::span<phys::Page*> pages) override;
  int Transfer(kern::AddressSpace& dst, sim::Vaddr* addr,
               std::span<phys::Page*> pages) override;
  int Extract(kern::AddressSpace& src, sim::Vaddr src_va, std::uint64_t len,
              kern::AddressSpace& dst, sim::Vaddr* dst_va, kern::ExtractMode mode) override;

  std::size_t KernelMapEntries() const override { return kernel_as_->EntryCount(); }
  std::size_t AnonResidentPages(kern::AddressSpace& as) const override;
  const kern::VmTuning& tuning() const override { return config_.tuning; }

  // --- UVM-specific introspection ---
  // One anon == one logical page of anonymous memory (resident or on swap).
  // The swap-leak comparison measures this against accessible pages.
  std::size_t LiveAnons() const { return all_anons_.size(); }
  std::size_t LiveAmaps() const { return all_amaps_.size(); }

  phys::PhysMem& phys() { return pm_; }
  const UvmConfig& config() const { return config_; }
  // Slab storage for uvm-object page-store chunks (uvm_object.cc binds it
  // alongside the stats block on every object it initializes).
  sim::PoolResource& pagestore_pool() { return pagestore_chunk_pool_; }

  // Page allocation with pagedaemon fallback (used by pagers too).
  phys::Pagedaemon& pagedaemon() { return pagedaemon_; }

  // Helpers for the pager ops and the vnode attachment.
  void VnodeCacheRef(vfs::Vnode* vn) { vnodes_.Ref(vn); }
  void VnodeCacheUnref(vfs::Vnode* vn) { vnodes_.Unref(vn); }
  // Called from UvmVnode::Terminate: the vnode is being recycled and its
  // attachment destroyed, so drop our (otherwise dangling) pointer to it.
  void ForgetVnode(vfs::Vnode* vn) { attached_vnodes_.erase(vn); }
  // Remove a uobj-owned page from its object and free the frame.
  void ReleaseObjectPage(phys::Page* p);

  // --- hwpoison containment (DESIGN.md §13) ---
  // A borrower of loaned pages registers here to learn when a memory error
  // revokes a loan: the page passed to the hook must not be read again and
  // must be dropped from the borrower's loan list (Unloan must not be
  // called for it — the loan is already closed).
  void set_loan_revoke_hook(std::function<void(phys::Page*)> fn) {
    loan_revoke_hook_ = std::move(fn);
  }

 private:
  friend class UvmAddressSpace;
  friend class UvmVnode;
  friend class kern::MapVm<Uvm, UvmAddressSpace>;

  // --- anon/amap management ---
  Anon* NewAnon();
  void RefAnon(Anon* a) { ++a->ref_count; }
  void DerefAnon(Anon* a);
  Amap* NewAmap(std::uint64_t nslots);
  void RefAmap(Amap* am) { ++am->ref_count; }
  void DerefAmap(Amap* am);
  // Ensure the entry has a private amap for promotions (lazy allocation).
  void EnsureAmap(UvmMapEntry& e);
  // Clear needs-copy: give the entry its own COW copy of the amap (§5.2).
  void AmapCopy(UvmMapEntry& e);

  // --- object management ---
  UvmObject* GetVnodeObject(vfs::Vnode* vn);
  void DetachObject(UvmObject* obj);

  // --- fault internals ---
  static constexpr const char* kFaultLabel = "uvm_fault";
  // The locked section of a fault (kern::MapVm's fault entry holds the map
  // lock around it).
  int FaultBody(UvmAddressSpace& as, sim::Vaddr va, sim::Access access);
  int FaultLocked(UvmAddressSpace& as, UvmMapEntry& e, sim::Vaddr va, bool write);
  void MapNeighbors(UvmAddressSpace& as, UvmMapEntry& e, sim::Vaddr fault_va);
  // Resolve the page for an anon, swapping it in if necessary.
  int AnonPageIn(Anon* anon);
  // Swap-in with optional clustering over contiguous neighbour slots.
  int AnonPageInCluster(UvmMapEntry& e, sim::Vaddr va, Anon* anon);
  // Optional coalescing of `it` with its neighbours after insertion.
  void TryMergeEntry(UvmMap& map, UvmMap::iterator it);
  // Replace the resident page of an anon/uobj slot that is loaned out.
  phys::Page* BreakLoan(phys::Page* old_page, phys::OwnerKind kind, void* owner,
                        sim::ObjOffset offset);

  // --- map helpers ---
  // The range walker's split hook (sim::AddrMap::WalkRange): both halves
  // of a clipped entry share its amap and object, so each split takes one
  // more reference on each.
  struct DupRefs {
    Uvm* vm;
    void operator()(UvmMapEntry& e) const;
  };
  void DropEntryRefs(UvmMapEntry& e);
  // amap_unadd for an unmap of [start, end): when `it` is only partly
  // covered and holds the only reference to a private amap, free the
  // covered anons now rather than when the last clipped sibling dies.
  // (BSD VM cannot do this — pages of a partially unmapped object stay
  // until the object dies.)
  void AmapUnadd(UvmAddressSpace& as, UvmMap::iterator it, sim::Vaddr start, sim::Vaddr end);

  // --- pageout (§6): the per-owner halves of the shared pagedaemon scan ---
  void ContainPoisoned(phys::Page* p) override;
  std::size_t Reclaim(phys::Page* p) override;
  std::size_t PageOutAnonCluster(phys::Page* first);
  std::size_t PageOutObjectRun(phys::Page* first);

  // The page currently backing `va` in `e`, resident only: the amap's anon
  // if the slot has one, else the object's page (mincore, loan).
  static phys::Page* LookupPage(UvmMapEntry& e, sim::Vaddr va);

  // --- hwpoison containment (DESIGN.md §13) ---
  // Machine-check response for UVM-owned state: break any outstanding loan
  // on the freshly poisoned frame (notify the borrower, unwire, unmap) so
  // the page becomes containable by the ordinary discovery paths.
  void OnPoison(phys::Page* p);
  // A fault found a poisoned resident page. Clean pages are discarded —
  // the backing copy (swap slot, vnode, or zero fill) re-materializes the
  // contents transparently. Dirty pages are unrecoverable: kErrMemPoison,
  // and the kernel kills the faulting process.
  int ContainPoisonedAnon(Anon* anon);
  int ContainPoisonedObjPage(phys::Page* p);
  // Registered with sim::Auditor as "uvm.state": anon/amap refcount
  // agreement, swap-slot ownership, object page back-pointers.
  void AuditState(sim::Auditor& auditor) const;

  mmu::MmuContext& mmu_;
  vfs::VnodeCache& vnodes_;
  swp::SwapDevice& swap_;
  UvmConfig config_;
  phys::Pagedaemon pagedaemon_;

  // Class-level stand-ins for UVM's per-object and per-amap locks (§3:
  // UVM's two-layer locking). Zero-cost: the amap/object lookup costs
  // already model the round-trips, so acquires charge nothing; the locks
  // exist for rank checking and per-class hold-time attribution.
  sim::SimLock object_lock_;
  sim::SimLock amap_lock_;

  // Metadata slabs (DESIGN.md §14). Declared before kernel_as_ and every
  // container below: all anons/amaps/map entries must be freed (teardown in
  // ~Uvm's body and member destructors) before the pools' leak asserts run.
  sim::Pool<Anon> anon_pool_;
  sim::Pool<Amap> amap_pool_;
  sim::PoolResource amap_node_pool_;       // hash-amap nodes + buckets
  sim::PoolResource map_entry_pool_;       // every UvmMap's entry nodes
  sim::PoolResource pagestore_chunk_pool_; // uvm-object page-store chunks

  std::unique_ptr<UvmAddressSpace> kernel_as_;
  std::unordered_set<Anon*> all_anons_;
  std::unordered_set<Amap*> all_amaps_;
  std::unordered_set<vfs::Vnode*> attached_vnodes_;
  std::unordered_map<kern::DeviceMem*, std::unique_ptr<UvmDevice>> devices_;
  std::uint64_t next_device_id_ = 0;
  std::function<void(phys::Page*)> loan_revoke_hook_;
  int poison_hook_token_ = 0;
};

}  // namespace uvm

#endif  // SRC_CORE_UVM_H_
