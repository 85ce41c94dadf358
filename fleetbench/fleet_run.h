// The fleet benchmark's workloads and its unit of measurement: one
// repetition builds a harness::World and a kern::FleetWorkload for one VM
// system, runs the workload to its op budget, and returns host times plus
// a fingerprint of every deterministic result. Shared by the benchmark
// program (fleet_bench.cpp) and its tests.
#ifndef FLEETBENCH_FLEET_RUN_H_
#define FLEETBENCH_FLEET_RUN_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fleetbench/traced_vm.h"
#include "src/harness/world.h"
#include "src/kern/fleet.h"
#include "src/sim/trace.h"

namespace fleetbench {

// The shrink step of CI's fleet pressure plan, without its later regrow:
// leaves 592 of the 8192 frames after 1 ms.
inline constexpr const char* kPressurePlan = "@1ms phys-=7600";

struct Workload {
  harness::WorldConfig world;
  kern::FleetConfig fleet;
};

// The three traffic mixes (README.md says why each exists); nullopt for an
// unknown name.
inline std::optional<Workload> MakeWorkload(std::string_view name, std::uint64_t seed,
                                            std::uint64_t ops) {
  Workload w;
  w.fleet.seed = seed;
  w.fleet.target_ops = ops;
  if (name == "fleet_pressure") {
    w.world.pressure_plan = kPressurePlan;
  } else if (name == "fleet_smp_shared") {
    w.fleet.cpus = 4;
    w.fleet.shared_storm = true;
  } else if (name != "fleet") {
    return std::nullopt;
  }
  return w;
}

// Named deterministic results of one run: virtual time (total and per
// CostCat), every FleetCounters field, and the layer counts the benchmark
// reports. Two runs of one program on one seed must produce equal ones.
using Fingerprint = std::vector<std::pair<std::string, std::uint64_t>>;

inline Fingerprint TakeFingerprint(const harness::World& w, const kern::FleetCounters& c) {
  const sim::Stats& s = w.machine.stats();
  const sim::PoolStats pools = w.machine.pools().Aggregate();
  Fingerprint fp = {
      {"fleet.ops", c.ops},
      {"fleet.requests", c.requests},
      {"fleet.churns", c.churns},
      {"fleet.builds", c.builds},
      {"fleet.forks", c.forks},
      {"fleet.execs", c.execs},
      {"fleet.soft_errors", c.soft_errors},
      {"fleet.workers_respawned", c.workers_respawned},
      {"fleet.shared_storms", c.shared_storms},
      {"phys.pages_zeroed", s.pages_zeroed},
      {"phys.pages_copied", s.pages_copied},
      {"mmu.pte_cache_hits", s.pte_cache_hits},
      {"sim.map_lookup_probes", s.map_lookup_probes},
      {"sim.map_hint_hits", s.map_hint_hits},
      {"sim.lock_acquisitions", s.lock_acquisitions},
      {"sim.lock_contended", s.lock_contended_acquires},
      {"sim.pool_allocs", pools.allocs},
      {"sim.pool_high_water", pools.high_water},
      {"vm.faults", s.faults},
      {"vm.fault_neighbor_maps", s.fault_neighbor_maps},
      {"vm.anons_allocated", s.anons_allocated},
      {"vm.shadows_created", s.shadows_created},
      {"vfs.disk_pages_read", s.disk_pages_read},
      {"vfs.vnode_recycles", s.vnode_recycles},
      {"swap.pages_out", s.swap_pages_out},
      {"swap.pages_in", s.swap_pages_in},
      {"vtime.now_ns", static_cast<std::uint64_t>(w.machine.clock().now())},
  };
  for (std::size_t i = 0; i < sim::kNumCostCats; ++i) {
    const auto cat = static_cast<sim::CostCat>(i);
    fp.emplace_back(std::string("vtime.") + sim::CostCatName(cat) + "_ns",
                    w.machine.breakdown().ns_of(cat));
  }
  return fp;
}

using CallHistograms = std::array<LatencyHistogram, kNumCallClasses>;

struct Rep {
  double setup_s = 0;  // World + FleetWorkload construction
  double run_s = 0;    // FleetWorkload::Run()
  Fingerprint fp;
  std::optional<CallHistograms> calls;  // traced repetitions only
};

// One repetition on `kind`. With `traced`, the kernel runs over a TracedVm
// and the per-call histograms come back in Rep::calls. World teardown (and
// its shutdown audit) happens after the timed section.
inline Rep RunRep(harness::VmKind kind, const Workload& wl, bool traced) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::duration d) { return std::chrono::duration<double>(d).count(); };
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  harness::World w(kind, wl.world);
  TracedVm* tvm = traced ? &InstallTracedVm(w) : nullptr;
  kern::FleetWorkload fleet(*w.kernel, wl.fleet);
  const Clock::time_point t1 = Clock::now();
  const kern::FleetCounters& c = fleet.Run();
  const Clock::time_point t2 = Clock::now();
  rep.setup_s = seconds(t1 - t0);
  rep.run_s = seconds(t2 - t1);
  rep.fp = TakeFingerprint(w, c);
  if (tvm != nullptr) {
    rep.calls.emplace();
    for (std::size_t i = 0; i < kNumCallClasses; ++i) {
      (*rep.calls)[i] = tvm->histogram(static_cast<CallClass>(i));
    }
  }
  return rep;
}

}  // namespace fleetbench

#endif  // FLEETBENCH_FLEET_RUN_H_
