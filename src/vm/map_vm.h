// The syscall skeleton both VM systems share (DESIGN.md §9 "Shared syscall
// scaffolding"). The paper compares mechanisms — single-step vs two-step
// mapping (§3.1), wiring in the map vs in the proc (§3.2), amap/anon vs
// shadow chains (§5) — not the scaffolding around them, so the fault entry,
// mlock/munlock, mprotect/minherit/madvise, mincore and the address-space
// lifecycle are written once here, over the map-range walker
// (sim::AddrMap::WalkRange).
//
// Each VM derives as `class Uvm : public kern::MapVm<Uvm, UvmAddressSpace>`
// and supplies only the hooks that carry its mechanism:
//   FaultBody(as, va, access)  the locked section of a fault;
//   DupRefs{vm}                the walker's split hook (one more reference
//                              on whatever the two clipped halves share);
//   kFaultLabel                the fault's cost-scope and trace label;
//   LookupPage(entry, va)      static: the resident page backing `va`, or
//                              nullptr (no charge, no I/O).
// Both the VM and its address space `As` (which holds `map_` and `pmap_`)
// befriend this class.
#ifndef SRC_VM_MAP_VM_H_
#define SRC_VM_MAP_VM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/phys/phys_mem.h"
#include "src/sim/assert.h"
#include "src/sim/machine.h"
#include "src/sim/types.h"
#include "src/vm/vm_iface.h"

namespace kern {

template <typename Vm, typename As>
class MapVm : public VmSystem {
 public:
  // Address-space layout (i386-like): user maps span [kUserMin, kUserMax),
  // the kernel map [kKernMin, kKernMax).
  static constexpr sim::Vaddr kUserMin = 0x0000'1000;
  static constexpr sim::Vaddr kUserMax = 0xB000'0000;
  static constexpr sim::Vaddr kKernMin = 0xC000'0000;
  static constexpr sim::Vaddr kKernMax = 0x1'0000'0000;
  static constexpr std::size_t kUPages = 2;       // u-area size
  static constexpr std::size_t kKStackPages = 2;  // kernel stack size

  AddressSpace* CreateAddressSpace() override { return new As(self(), /*is_kernel=*/false); }

  void DestroyAddressSpace(AddressSpace* as) override {
    Unmap(*as, kUserMin, kUserMax - kUserMin);
    delete static_cast<As*>(as);
  }

  // mprotect: all or nothing, like uvm_map_protect / vm_map_protect —
  // refuse before anything changes.
  int Protect(AddressSpace& as_, sim::Vaddr addr, std::uint64_t len, sim::Prot prot) override {
    auto& as = static_cast<As&>(as_);
    sim::Vaddr end = addr + sim::PageRound(len);
    if (!as.map_.AllInRange(addr, end, [&](const auto& e) {
          return sim::ProtIncludes(e.max_prot, prot);
        })) {
      return sim::kErrProt;
    }
    return as.map_.WalkRange(addr, end, Dup(), [&](auto it) {
      it->prot = prot;
      as.pmap_.IntersectProtRange(it->start, it->end, prot);
      return sim::kOk;
    });
  }

  int SetInherit(AddressSpace& as_, sim::Vaddr addr, std::uint64_t len,
                 sim::Inherit inherit) override {
    auto& as = static_cast<As&>(as_);
    return as.map_.WalkRange(addr, addr + sim::PageRound(len), Dup(), [&](auto it) {
      it->inherit = inherit;
      return sim::kOk;
    });
  }

  int SetAdvice(AddressSpace& as_, sim::Vaddr addr, std::uint64_t len,
                sim::Advice advice) override {
    auto& as = static_cast<As&>(as_);
    return as.map_.WalkRange(addr, addr + sim::PageRound(len), Dup(), [&](auto it) {
      it->advice = advice;
      return sim::kOk;
    });
  }

  int Mincore(AddressSpace& as_, sim::Vaddr addr, std::uint64_t len,
              std::vector<bool>* out) override {
    auto& as = static_cast<As&>(as_);
    len = sim::PageRound(len);
    out->clear();
    auto& map = as.map_;
    map.Lock();
    for (sim::Vaddr va = sim::PageTrunc(addr); va < addr + len; va += sim::kPageSize) {
      auto it = map.LookupEntry(va);
      if (it == map.entries().end()) {
        map.Unlock();
        return sim::kErrFault;
      }
      out->push_back(Vm::LookupPage(*it, va) != nullptr);
    }
    map.Unlock();
    return sim::kOk;
  }

  // mlock(2): the one wiring case that must live in the map in both
  // systems (§3.2).
  int Wire(AddressSpace& as_, sim::Vaddr addr, std::uint64_t len) override {
    auto& as = static_cast<As&>(as_);
    sim::Vaddr end = sim::PageRound(addr + len);
    addr = sim::PageTrunc(addr);
    auto& map = as.map_;
    map.Lock();
    // Unlike the other range ops, a range whose start is unmapped fails
    // (EFAULT) before anything changes.
    bool mapped = false;
    auto first = [&] {
      auto it = map.LookupEntry(addr);
      mapped = it != map.entries().end();
      return it;
    };
    int err = map.WalkRangeLocked(addr, end, first, Dup(), [&](auto it) {
      if (++it->wired_count > 1) {
        return sim::kOk;
      }
      sim::Vaddr estart = it->start;
      sim::Access acc = sim::CanWrite(it->prot) ? sim::Access::kWrite : sim::Access::kRead;
      for (sim::Vaddr va = estart; va < it->end; va += sim::kPageSize) {
        auto pte = as.pmap_.Extract(va);
        if (!pte.has_value()) {
          // The entry is already marked wired, so the fault wires the page.
          if (int ferr = FaultEntry(as, va, acc, /*map_locked=*/true); ferr != sim::kOk) {
            return ferr;
          }
          pte = as.pmap_.Extract(va);
          SIM_ASSERT(pte.has_value() && pte->wired);
        } else if (!pte->wired) {
          pm_.Wire(pm_.PageAt(pte->pfn));
          as.pmap_.ChangeWiring(va, true);
        }
      }
      // Re-find the entry after faulting (charged): a fault may sleep, and a
      // real map can change underneath it.
      auto again = map.LookupEntry(estart);
      SIM_ASSERT(again == it);
      return sim::kOk;
    });
    map.Unlock();
    return err == sim::kOk && !mapped ? sim::kErrFault : err;
  }

  int Unwire(AddressSpace& as_, sim::Vaddr addr, std::uint64_t len) override {
    auto& as = static_cast<As&>(as_);
    sim::Vaddr end = sim::PageRound(addr + len);
    return as.map_.WalkRange(sim::PageTrunc(addr), end, Dup(), [&](auto it) {
      if (it->wired_count > 0 && --it->wired_count == 0) {
        as.pmap_.UnwireRange(it->start, it->end);
      }
      return sim::kOk;
    });
  }

  int Fault(AddressSpace& as, sim::Vaddr va, sim::Access access) override {
    return FaultEntry(static_cast<As&>(as), va, access, /*map_locked=*/false);
  }

  std::size_t ResidentPages(AddressSpace& as) const override {
    return static_cast<As&>(as).pmap_.resident_count();
  }

  void CheckInvariants() override { machine_.auditor().Enforce(audit_token_); }

  sim::Machine& machine() { return machine_; }

 protected:
  MapVm(sim::Machine& machine, phys::PhysMem& pm) : machine_(machine), pm_(pm) {}

  sim::Machine& machine_;
  phys::PhysMem& pm_;
  // The VM's sim::Auditor registration (its AuditState check).
  int audit_token_ = 0;

 private:
  Vm& self() { return static_cast<Vm&>(*this); }
  auto Dup() { return typename Vm::DupRefs{&self()}; }

  // The one fault entry. Its charge order is part of the cost model: the
  // kFault scope opens, then fault_entry_ns, then the fault count, then the
  // map lock, whose charge therefore lands inside the kFault scope. The
  // wire path faults while it already holds the map lock (SimLock is not
  // recursive), so `map_locked` skips the lock round-trip.
  int FaultEntry(As& as, sim::Vaddr va, sim::Access access, bool map_locked) {
    sim::ChargeScope scope(machine_, sim::CostCat::kFault, Vm::kFaultLabel);
    machine_.Charge(machine_.cost().fault_entry_ns);
    ++machine_.stats().faults;
    va = sim::PageTrunc(va);
    if (map_locked) {
      SIM_ASSERT(as.map_.IsLocked());
      return self().FaultBody(as, va, access);
    }
    as.map_.Lock();
    int err = self().FaultBody(as, va, access);
    as.map_.Unlock();
    return err;
  }
};

}  // namespace kern

#endif  // SRC_VM_MAP_VM_H_
