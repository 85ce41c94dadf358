#include "src/harness/dump.h"

#include <cstring>
#include <iomanip>
#include <string>

#include "src/bsdvm/bsd_vm.h"
#include "src/core/uvm.h"

namespace kern {

namespace {

// "rwx", with '-' for each bit the protection lacks.
std::string ProtName(sim::Prot p) {
  return {sim::CanRead(p) ? 'r' : '-', sim::CanWrite(p) ? 'w' : '-',
          sim::ProtIncludes(p, sim::Prot::kExec) ? 'x' : '-'};
}

const char* InheritName(sim::Inherit i) {
  constexpr const char* kNames[] = {"none", "share", "copy"};  // sim::Inherit order
  return kNames[static_cast<std::size_t>(i)];
}

}  // namespace

void DumpBsdMap(std::ostream& os, bsdvm::BsdVm& vm, AddressSpace& as_) {
  (void)vm;
  auto& as = static_cast<bsdvm::BsdAddressSpace&>(as_);
  os << "bsdvm map: " << as.map().entry_count() << " entries, resident "
     << as.pmap().resident_count() << " pages, wired " << as.pmap().wired_count() << "\n";
  for (const bsdvm::MapEntry& e : as.map().entries()) {
    os << "  [" << std::hex << std::setw(10) << e.start << "," << std::setw(10) << e.end << ")"
       << std::dec << " " << ProtName(e.prot) << " inh=" << InheritName(e.inherit)
       << (e.copy_on_write ? " cow" : "") << (e.needs_copy ? " needs-copy" : "")
       << (e.wired_count > 0 ? " wired" : "");
    std::size_t depth = 0;
    std::size_t resident = 0;
    for (bsdvm::VmObject* o = e.object; o != nullptr; o = o->shadow) {
      ++depth;
      resident += o->pages.size();
    }
    os << " chain-depth=" << depth << " chain-resident=" << resident << "\n";
  }
}

void DumpUvmMap(std::ostream& os, uvm::Uvm& vm, AddressSpace& as_) {
  (void)vm;
  auto& as = static_cast<uvm::UvmAddressSpace&>(as_);
  os << "uvm map: " << as.map().entry_count() << " entries, resident "
     << as.pmap().resident_count() << " pages, wired " << as.pmap().wired_count() << "\n";
  for (const uvm::UvmMapEntry& e : as.map().entries()) {
    os << "  [" << std::hex << std::setw(10) << e.start << "," << std::setw(10) << e.end << ")"
       << std::dec << " " << ProtName(e.prot) << " inh=" << InheritName(e.inherit)
       << (e.copy_on_write ? " cow" : "") << (e.needs_copy ? " needs-copy" : "")
       << (e.wired_count > 0 ? " wired" : "");
    if (e.amap != nullptr) {
      std::size_t anons = 0;
      std::size_t resident = 0;
      for (std::uint64_t i = 0; i < e.npages(); ++i) {
        uvm::Anon* a = e.amap->Get(e.amap_slotoff + i);
        if (a != nullptr) {
          ++anons;
          resident += a->page != nullptr ? 1 : 0;
        }
      }
      os << " amap[" << e.amap->impl->kind() << " ref=" << e.amap->ref_count
         << " anons=" << anons << " resident=" << resident << "]";
    }
    if (e.uobj != nullptr) {
      os << " uobj[ref=" << e.uobj->ref_count << " pages=" << e.uobj->pages.size() << "]";
    }
    os << "\n";
  }
}

void DumpMap(std::ostream& os, VmSystem& vm, AddressSpace& as) {
  if (std::strcmp(vm.name(), "uvm") == 0) {
    DumpUvmMap(os, static_cast<uvm::Uvm&>(vm), as);
  } else {
    DumpBsdMap(os, static_cast<bsdvm::BsdVm&>(vm), as);
  }
}

}  // namespace kern
