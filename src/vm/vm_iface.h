// The machine-independent VM interface both systems implement. Everything
// above this line (processes, syscalls, workloads, benches, tests) is
// written once against this interface and runs unmodified over either
// bsdvm::BsdVm (the Mach-derived baseline) or uvm::Uvm (the paper's system).
//
// Layering: this file lives *below* src/core and src/bsdvm (they include it
// to implement the interface) and above the device layers — see the include
// DAG enforced by tools/simlint. The types keep the historical `kern`
// namespace: the namespace names the API's consumer, the directory names
// the layer.
#ifndef SRC_VM_VM_IFACE_H_
#define SRC_VM_VM_IFACE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/mmu/pmap.h"
#include "src/phys/page.h"
#include "src/sim/types.h"
#include "src/vfs/vnode.h"

namespace kern {

// Paging tuning shared by both VM systems. Both configs embed one of these
// so fault-injection comparisons between the two VMs are apples-to-apples:
// a retry-count difference would otherwise masquerade as an architectural
// virtual-time difference.
struct VmTuning {
  // Transient-EIO retries per pageout after the initial attempt, with
  // doubling virtual-time backoff. Applies uniformly to pagedaemon passes
  // and to terminate-time flushes (which historically hardcoded 3 attempts
  // per VM); every retry increments Stats::pageout_retries on every path.
  int max_pageout_retries = 5;
  // Extra pagedaemon-and-retry passes after a failed physical-page
  // allocation (beyond the historical single daemon+retry), with doubling
  // mem_retry_backoff_ns, before the failure surfaces as kErrNoMem. Each
  // pass increments Stats::alloc_retries.
  int max_alloc_retries = 3;
  // Kernel-level retries of a fault that failed with kErrNoMem/kErrNoSwap
  // before the out-of-swap killer is consulted (DESIGN.md §12). Each retry
  // increments Stats::fault_retries.
  int max_fault_retries = 3;
};

// Attributes of a new mapping. UVM's uvm_map() accepts all of these in one
// call (§3.1); BSD VM emulates the same API with its insecure multi-step
// establish-then-modify sequence, and the difference is metered.
struct MapAttrs {
  sim::Prot prot = sim::Prot::kReadWrite;
  sim::Prot max_prot = sim::Prot::kAll;
  // Inheritance; nullopt picks the traditional default (shared mappings are
  // inherited shared, everything else copy-on-write).
  std::optional<sim::Inherit> inherit;
  sim::Advice advice = sim::Advice::kNormal;
  bool shared = false;  // MAP_SHARED; false = private copy-on-write
  bool fixed = false;   // *addr is a requirement, not a hint
};

// Opaque per-process (or kernel) address space. Concrete types are
// bsdvm::BsdAddressSpace and uvm::UvmAddressSpace.
class AddressSpace {
 public:
  virtual ~AddressSpace() = default;
  virtual mmu::Pmap& pmap() = 0;
  virtual std::size_t EntryCount() const = 0;
};

// State needed to undo a transient buffer wiring (sysctl / physio, §3.2).
// UVM records the wired pages here — conceptually "on the kernel stack" —
// and never touches the map; BSD VM records nothing here because it wires
// through the map, fragmenting entries.
struct TransientWiring {
  sim::Vaddr va = 0;
  std::uint64_t len = 0;
  std::vector<phys::Page*> pages;  // UVM only
};

// Per-process kernel-side VM resources: the u-area (user structure) and
// kernel stack (§3.2). BSD VM allocates these as wired kernel-map entries
// (two map entries per process); UVM wires the frames and records the wired
// state in the proc structure, touching no map.
struct ProcKernelResources {
  std::vector<std::pair<sim::Vaddr, std::uint64_t>> kernel_ranges;  // BSD VM only
  std::vector<phys::Page*> wired_pages;                             // UVM only
};

// A memory-mappable device (framebuffer / ROM style): a fixed set of wired
// frames whose contents the device controls. §4's claim is that UVM makes
// "any kernel abstraction memory mappable" by embedding a uvm_object, and
// §6's pager-allocates API exists precisely so a pager can hand out
// pre-existing pages (the ROM example). The first MapDevice call hands
// ownership of the frames to the VM system.
struct DeviceMem {
  std::string name;
  std::vector<phys::Page*> pages;
  bool adopted_by_vm = false;
};

// Mode for map-entry passing (§7).
enum class ExtractMode : std::uint8_t {
  kCopy,   // copy-on-write copy into the destination
  kShare,  // genuine sharing of the underlying memory
  kMove,   // move: source range is unmapped
};

class VmSystem {
 public:
  virtual ~VmSystem() = default;

  virtual const char* name() const = 0;

  // --- Address spaces ---
  virtual AddressSpace* CreateAddressSpace() = 0;
  virtual void DestroyAddressSpace(AddressSpace* as) = 0;
  // Duplicate `parent` for a child process, honouring per-entry inheritance.
  virtual AddressSpace* Fork(AddressSpace& parent) = 0;
  virtual AddressSpace& kernel_as() = 0;

  // --- Mapping operations ---
  // Establish a mapping of `len` bytes. vn == nullptr gives a zero-fill
  // (anonymous) mapping. On success *addr holds the chosen address.
  virtual int Map(AddressSpace& as, sim::Vaddr* addr, std::uint64_t len, vfs::Vnode* vn,
                  sim::ObjOffset off, const MapAttrs& attrs) = 0;
  // Map a device's frames. Shared mappings see (and write) device memory
  // directly; private mappings are COW over it.
  virtual int MapDevice(AddressSpace& as, sim::Vaddr* addr, DeviceMem& dev,
                        const MapAttrs& attrs) = 0;
  virtual int Unmap(AddressSpace& as, sim::Vaddr addr, std::uint64_t len) = 0;
  virtual int Protect(AddressSpace& as, sim::Vaddr addr, std::uint64_t len, sim::Prot prot) = 0;
  virtual int SetInherit(AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                         sim::Inherit inherit) = 0;
  virtual int SetAdvice(AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                        sim::Advice advice) = 0;
  // Write dirty pages of the range back to backing store.
  virtual int Msync(AddressSpace& as, sim::Vaddr addr, std::uint64_t len) = 0;
  // madvise(MADV_FREE): discard the anonymous contents of the range without
  // unmapping it; subsequent reads see zero-fill pages.
  virtual int MadvFree(AddressSpace& as, sim::Vaddr addr, std::uint64_t len) = 0;
  // mincore(2): one entry per page, true if resident.
  virtual int Mincore(AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                      std::vector<bool>* out) = 0;

  // --- Wiring ---
  // mlock(2)-style persistent wiring: must be recorded in the map in both
  // systems (§3.2, the one unavoidable fragmentation case).
  virtual int Wire(AddressSpace& as, sim::Vaddr addr, std::uint64_t len) = 0;
  virtual int Unwire(AddressSpace& as, sim::Vaddr addr, std::uint64_t len) = 0;
  // sysctl/physio-style transient wiring of a user buffer.
  virtual int WireTransient(AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                            TransientWiring* out) = 0;
  virtual void UnwireTransient(AddressSpace& as, TransientWiring& tw) = 0;

  // --- Per-process kernel resources (u-area + kernel stack) ---
  virtual int AllocProcResources(ProcKernelResources* out) = 0;
  virtual void FreeProcResources(ProcKernelResources& res) = 0;
  // §3.2: "a process' user structure must be wired as long as the process
  // is runnable. When a process is swapped out its user structure is
  // unwired until the process is swapped back in." The wired state lives
  // in the proc structure under UVM, and in the kernel map under BSD VM.
  virtual void SwapOutProcResources(ProcKernelResources& res) = 0;
  virtual void SwapInProcResources(ProcKernelResources& res) = 0;

  // --- Faults ---
  virtual int Fault(AddressSpace& as, sim::Vaddr addr, sim::Access access) = 0;

  // --- Paging ---
  // Reclaim memory until at least `target_free` frames are free (or nothing
  // more can be done). Returns the number of frames freed.
  virtual std::size_t PageDaemon(std::size_t target_free) = 0;

  // --- Data movement (§7; BSD VM returns kErrNotSup) ---
  // Loan `npages` starting at `va` to the kernel as wired, read-only pages.
  virtual int Loan(AddressSpace& as, sim::Vaddr va, std::size_t npages,
                   std::vector<phys::Page*>* out);
  virtual void Unloan(std::span<phys::Page*> pages);
  // Insert `pages` (kernel-produced or loaned) into `dst` as anonymous
  // memory at *addr (hint). The VM takes ownership of the pages.
  virtual int Transfer(AddressSpace& dst, sim::Vaddr* addr, std::span<phys::Page*> pages);
  // Map-entry passing between address spaces.
  virtual int Extract(AddressSpace& src, sim::Vaddr src_va, std::uint64_t len, AddressSpace& dst,
                      sim::Vaddr* dst_va, ExtractMode mode);

  // --- Introspection (Table 1 and invariant checks) ---
  virtual std::size_t KernelMapEntries() const = 0;
  // Frames resident in this address space's mappings (excluding the kernel).
  virtual std::size_t ResidentPages(AddressSpace& as) const = 0;
  // Resident *anonymous* frames attributable to `as`: the out-of-swap
  // killer's victim metric (DESIGN.md §12). Host-side walk, charges
  // nothing.
  virtual std::size_t AnonResidentPages(AddressSpace& as) const = 0;
  // The retry/backoff knobs this VM instance was configured with.
  virtual const VmTuning& tuning() const = 0;
  // Run this VM's registered audit check (AuditState); panics on the first
  // violation (tests call this).
  virtual void CheckInvariants() = 0;
};

}  // namespace kern

#endif  // SRC_VM_VM_IFACE_H_
