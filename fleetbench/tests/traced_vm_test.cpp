// Fidelity of the benchmark's tracing decorator: a kernel running over a
// TracedVm must behave exactly like one running over the bare VM system.
// Small op budgets keep the whole suite to a few seconds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fleetbench/fleet_run.h"
#include "fleetbench/traced_vm.h"

namespace {

using fleetbench::CallClass;
using fleetbench::InstallTracedVm;
using fleetbench::TracedVm;
using harness::VmKind;
using harness::World;

// §7 data movement lives in VmSystem's non-pure virtuals; a decorator that
// forgot one would fall back to the base class's kErrNotSup.
TEST(TracedVmTest, ForwardsLoanTransferAndExtractOnUvm) {
  World w(VmKind::kUvm);
  TracedVm& tvm = InstallTracedVm(w);
  kern::Proc* p = w.kernel->Spawn();
  kern::Proc* q = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 4 * sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 4 * sim::kPageSize, std::byte{0x5a}));

  const std::uint64_t before = tvm.histogram(CallClass::kOther).count();
  EXPECT_EQ(sim::kOk, w.kernel->SocketSendLoan(p, a, 4 * sim::kPageSize));
  sim::Vaddr moved = 0;
  EXPECT_EQ(sim::kOk, w.kernel->PageTransfer(p, a, 2 * sim::kPageSize, q, &moved));
  sim::Vaddr shared = 0;
  EXPECT_EQ(sim::kOk, w.kernel->ExtractRange(p, a, sim::kPageSize, q, &shared,
                                             kern::ExtractMode::kShare));
  EXPECT_GT(tvm.histogram(CallClass::kOther).count(), before);
  w.vm->CheckInvariants();
}

TEST(TracedVmTest, BsdStillReportsDataMovementUnsupported) {
  World w(VmKind::kBsd);
  InstallTracedVm(w);
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
  ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, a, 1, std::byte{1}));
  EXPECT_EQ(sim::kErrNotSup, w.kernel->SocketSendLoan(p, a, sim::kPageSize));
}

// World::ArmPressureDefaults turns the out-of-swap killer on in the Kernel
// it built; rebuilding the Kernel must not silently turn it off.
TEST(TracedVmTest, RebuiltKernelKeepsOomKillerSetting) {
  for (const bool pressure : {false, true}) {
    harness::WorldConfig config;
    if (pressure) {
      config.pressure_plan = fleetbench::kPressurePlan;
    }
    World w(VmKind::kUvm, config);
    ASSERT_EQ(pressure, w.kernel->oom_killer());
    InstallTracedVm(w);
    EXPECT_EQ(pressure, w.kernel->oom_killer());
  }
}

// The Kernel exits its remaining processes as it dies; those calls must
// reach a decorator (and VM) that is still alive.
TEST(TracedVmTest, KernelIsDestroyedBeforeDecorator) {
  std::uint64_t exits_seen_at_destroy = 0;
  {
    World w(VmKind::kUvm);
    TracedVm& tvm = InstallTracedVm(w);
    tvm.set_on_destroy([&](const TracedVm& dying) {
      exits_seen_at_destroy = dying.histogram(CallClass::kExit).count();
    });
    kern::Proc* p = w.kernel->Spawn();
    sim::Vaddr a = 0;
    ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, sim::kPageSize, kern::MapAttrs{}));
    EXPECT_EQ(0u, tvm.histogram(CallClass::kExit).count());
  }
  EXPECT_EQ(1u, exits_seen_at_destroy);
}

TEST(TracedVmTest, TracedAndUntracedFingerprintsMatch) {
  for (const char* name : {"fleet", "fleet_pressure", "fleet_smp_shared"}) {
    const fleetbench::Workload wl = *fleetbench::MakeWorkload(name, 1, 20'000);
    for (VmKind kind : {VmKind::kUvm, VmKind::kBsd}) {
      SCOPED_TRACE(std::string(name) + "/" + harness::VmKindName(kind));
      const fleetbench::Rep plain = fleetbench::RunRep(kind, wl, false);
      const fleetbench::Rep traced = fleetbench::RunRep(kind, wl, true);
      EXPECT_EQ(plain.fp, traced.fp);
      EXPECT_FALSE(plain.calls.has_value());
      ASSERT_TRUE(traced.calls.has_value());
      EXPECT_GT((*traced.calls)[static_cast<std::size_t>(CallClass::kFaultWrite)].count(), 0u);
    }
  }
}

TEST(TracedVmTest, FingerprintDependsOnSeed) {
  const fleetbench::Rep a =
      fleetbench::RunRep(VmKind::kUvm, *fleetbench::MakeWorkload("fleet", 1, 5'000), false);
  const fleetbench::Rep b =
      fleetbench::RunRep(VmKind::kUvm, *fleetbench::MakeWorkload("fleet", 2, 5'000), false);
  EXPECT_NE(a.fp, b.fp);
}

TEST(LatencyHistogramTest, QuantilesWithinOneBucket) {
  fleetbench::LatencyHistogram h;
  EXPECT_EQ(0.0, h.Quantile(0.5));
  for (std::uint64_t ns = 1; ns <= 10'000; ++ns) {
    h.Add(ns);
  }
  EXPECT_EQ(10'000u, h.count());
  EXPECT_EQ(10'000u * 10'001u / 2, h.total_ns());
  EXPECT_NEAR(5'000.0, h.Quantile(0.50), 5'000.0 * 0.125);
  EXPECT_NEAR(9'900.0, h.Quantile(0.99), 9'900.0 * 0.125);
  EXPECT_LE(h.Quantile(1.0), 10'000.0 * 1.125);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  fleetbench::LatencyHistogram h;
  for (int i = 0; i < 4; ++i) {
    h.Add(3);
  }
  EXPECT_DOUBLE_EQ(4.0, h.Quantile(1.0));  // upper edge of the 1 ns bucket
  EXPECT_GE(h.Quantile(0.5), 3.0);
  EXPECT_LT(h.Quantile(0.5), 4.0);
}

}  // namespace
