// Debug dumps of address-space structure — the simulator's counterpart to
// NetBSD's ddb "show map" / pmap dump commands. Works on either VM system
// through the common interface plus per-system detail printers.
#ifndef SRC_HARNESS_DUMP_H_
#define SRC_HARNESS_DUMP_H_

#include <ostream>

#include "src/vm/vm_iface.h"

namespace bsdvm {
class BsdVm;
}
namespace uvm {
class Uvm;
}

namespace kern {

// Per-entry detail of a BSD VM address space, including the shadow chain
// under each entry.
void DumpBsdMap(std::ostream& os, bsdvm::BsdVm& vm, AddressSpace& as);

// Per-entry detail of a UVM address space, including amap occupancy and
// backing-object residency.
void DumpUvmMap(std::ostream& os, uvm::Uvm& vm, AddressSpace& as);

// Dispatches on the concrete system.
void DumpMap(std::ostream& os, VmSystem& vm, AddressSpace& as);

}  // namespace kern

#endif  // SRC_HARNESS_DUMP_H_
