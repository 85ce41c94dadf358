// Trace replay example: run a scripted VM workload (from a file, or a
// built-in demo script) against both VM systems, then print each system's
// address-space dump and statistics.
//
//   ./build/examples/trace_replay [trace-file] [--swap-faults=NUM/DEN[,perm=NUM/DEN]]
//
// The --swap-faults knob installs a probabilistic fault plan on the swap
// disk (each write fails with probability NUM/DEN; an injected fault is
// permanent with probability perm NUM/DEN), so recovery behaviour — retries,
// bad-slot remapping — shows up in the replayed stats.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/harness/dump.h"
#include "src/harness/world.h"
#include "src/kern/trace_replay.h"
#include "src/sim/report.h"

using harness::VmKind;
using harness::World;

namespace {

constexpr const char* kDemoTrace = R"(# demo: COW fork over a mapped file plus anonymous scratch memory
file /bin/tool 16
proc main
mmap main $text 8 ro private /bin/tool 0
mmap main $data 4 rw private /bin/tool 8
mmap main $heap 16 rw private
readf main $text 0 /bin/tool 0
write main $data 1 0x42
write main $heap 0 0x10
fork main worker
write worker $heap 0 0x20
read  main   $heap 0 0x10
read  worker $heap 0 0x20
read  worker $data 1 0x42
exit worker
mlock main $heap 4
sysctl main $heap
munlock main $heap 4
)";

// Parses "NUM/DEN[,perm=NUM/DEN]" into a swap-write fault plan. Returns
// false on malformed input.
bool ParseFaultPlan(const std::string& arg, sim::FaultPlan* plan) {
  unsigned num = 0;
  unsigned den = 0;
  unsigned pnum = 0;
  unsigned pden = 0;
  if (std::sscanf(arg.c_str(), "%u/%u,perm=%u/%u", &num, &den, &pnum, &pden) == 4) {
    if (den == 0 || pden == 0) {
      return false;
    }
    plan->permanent_num = pnum;
    plan->permanent_den = pden;
  } else if (std::sscanf(arg.c_str(), "%u/%u", &num, &den) != 2 || den == 0) {
    return false;
  }
  plan->write_num = num;
  plan->write_den = den;
  return true;
}

int RunOn(VmKind kind, const std::string& trace, const sim::FaultPlan* plan) {
  std::printf("\n=== %s ===\n", harness::VmKindName(kind));
  World w(kind);
  if (plan != nullptr) {
    w.machine.faults().SetPlan(sim::IoDevice::kSwapDisk, *plan);
  }
  kern::ReplayResult res = kern::ReplayTrace(*w.kernel, trace);
  if (res.err != sim::kOk) {
    std::printf("FAILED at line %d: %s (%s)\n", res.line, res.message.c_str(),
                sim::ErrName(res.err));
    return 1;
  }
  std::printf("%zu operations replayed successfully.\n\n", res.ops_executed);
  w.kernel->ForEachProc([&](kern::Proc& p) {
    std::printf("-- pid %d --\n", p.pid);
    kern::DumpMap(std::cout, *w.vm, *p.as);
  });
  std::printf("\n");
  sim::ReportStats(std::cout, w.machine);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace = kDemoTrace;
  sim::FaultPlan plan;
  bool have_plan = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--swap-faults=", 0) == 0) {
      if (!ParseFaultPlan(arg.substr(14), &plan)) {
        std::fprintf(stderr, "bad fault plan %s (want NUM/DEN[,perm=NUM/DEN])\n", arg.c_str());
        return 1;
      }
      have_plan = true;
      continue;
    }
    std::ifstream in(arg);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", arg.c_str());
      return 1;
    }
    std::ostringstream os;
    os << in.rdbuf();
    trace = os.str();
  }
  const sim::FaultPlan* p = have_plan ? &plan : nullptr;
  int rc = RunOn(VmKind::kBsd, trace, p);
  rc |= RunOn(VmKind::kUvm, trace, p);
  return rc;
}
