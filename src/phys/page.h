// The vm_page analogue: one Page struct per frame of simulated physical
// memory. A Page carries ownership tags linking it back to the memory
// object or anon it belongs to and intrusive queue linkage for the paging
// queues. Its byte contents live in PhysMem (backing buffer plus the
// lazy-zero stale-line mask) and are reached only through PhysMem::Bytes
// and PhysMem::Data.
#ifndef SRC_PHYS_PAGE_H_
#define SRC_PHYS_PAGE_H_

#include <cstdint>

#include "src/sim/types.h"

namespace phys {

// Which paging queue a page currently sits on.
enum class PageQueue : std::uint8_t {
  kNone,      // wired or busy, off all queues
  kFree,
  kActive,
  kInactive,
};

// Identifies the higher-level structure that owns a page. The VM systems
// store a pointer whose meaning depends on the tag; the physical layer never
// dereferences it, it only hands it back to the pagedaemon.
enum class OwnerKind : std::uint8_t {
  kNone,
  kBsdObject,   // bsdvm::VmObject
  kUvmObject,   // uvm::UvmObject
  kUvmAnon,     // uvm::Anon
  kKernel,      // kernel wired allocation (page tables, u-areas, ...)
};

struct Page {
  sim::Pfn pfn = sim::kInvalidPfn;

  // Ownership
  OwnerKind owner_kind = OwnerKind::kNone;
  void* owner = nullptr;
  sim::ObjOffset offset = 0;  // page *index* within the owning object

  // State
  std::uint16_t wire_count = 0;
  std::uint16_t loan_count = 0;  // UVM page loanout (§7)
  bool dirty = false;
  bool referenced = false;
  bool busy = false;  // I/O in progress

  // Memory-error (hwpoison) state, DESIGN.md §13. A poisoned frame suffered
  // an uncorrectable memory error: its contents are lost, it must never be
  // mapped or allocated again, and the VM systems contain it on discovery.
  // Set only through phys::PhysMem's injection entry points (enforced by
  // simlint's poison-direct-write rule) and never cleared — the frame is
  // retired for the machine's lifetime. poison_gen records which injection
  // event hit the frame (1-based, monotonic across the machine).
  bool poisoned = false;
  std::uint32_t poison_gen = 0;

  // Reuse generation: bumped every time the frame is freed. Fault paths that
  // hold a bare Page* across a blocking allocation (which may run the
  // pagedaemon and free the frame) capture gen beforehand and re-validate
  // with PhysMem::FrameIsCurrent afterwards instead of touching a recycled
  // frame (DESIGN.md §15).
  std::uint32_t gen = 0;

  // Intrusive queue linkage (managed by PhysMem only)
  PageQueue queue = PageQueue::kNone;
  Page* q_next = nullptr;
  Page* q_prev = nullptr;

  bool IsManaged() const { return owner_kind != OwnerKind::kNone; }
};

}  // namespace phys

#endif  // SRC_PHYS_PAGE_H_
