// Host-time tracing for the fleet benchmark: a forwarding kern::VmSystem
// decorator that sits between kern::Kernel and the real VM system and times
// every call from outside. Nothing inside src/ is instrumented; the
// decorator never charges virtual time, so a traced run's deterministic
// results are those of an untraced one (fleet_run.h checks this).
#ifndef FLEETBENCH_TRACED_VM_H_
#define FLEETBENCH_TRACED_VM_H_

#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/harness/world.h"
#include "src/kern/kernel.h"
#include "src/sim/assert.h"
#include "src/vm/vm_iface.h"

namespace fleetbench {

// The call classes the benchmark reports. kOther takes every remaining
// VmSystem call, so the classes together cover all time spent in the VM.
enum class CallClass : std::uint8_t {
  kFaultWrite,
  kFaultRead,
  kFork,
  kUnmap,
  kExit,       // DestroyAddressSpace
  kMap,
  kMsync,
  kProcAlloc,  // AllocProcResources
  kOther,
};
inline constexpr std::size_t kNumCallClasses = 9;
inline constexpr std::array<const char*, kNumCallClasses> kCallClassNames = {
    "fault_write", "fault_read", "fork", "unmap", "exit", "map", "msync", "proc_alloc", "other"};

// Log2 latency histogram with 8 linear sub-buckets per octave (values
// below 8 ns are exact), about 12% bucket width. Quantiles interpolate
// linearly inside the bucket that holds them.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 3;
  static constexpr std::size_t kBuckets = std::size_t{64} << kSubBits;

  void Add(std::uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
    total_ns_ += ns;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t total_ns() const { return total_ns_; }

  // The q-quantile (0 <= q <= 1) in ns; 0 for an empty histogram.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(count_);
    double below = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c > 0 && below + c >= rank) {
        const double frac = (rank - below) / c;
        return static_cast<double>(Lower(i)) + frac * static_cast<double>(Width(i));
      }
      below += c;
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  static constexpr std::uint64_t kExact = std::uint64_t{1} << kSubBits;

  static std::size_t Index(std::uint64_t ns) {
    if (ns < kExact) {
      return static_cast<std::size_t>(ns);
    }
    const unsigned shift = static_cast<unsigned>(std::bit_width(ns)) - 1 - kSubBits;
    const std::uint64_t sub = (ns >> shift) & (kExact - 1);
    return static_cast<std::size_t>(((shift + 1) << kSubBits) | sub);
  }
  static std::uint64_t Lower(std::size_t i) {
    if (i < kExact) {
      return i;
    }
    const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
    return (kExact | (i & (kExact - 1))) << shift;
  }
  static std::uint64_t Width(std::size_t i) {
    return i < kExact ? 1 : std::uint64_t{1} << ((i >> kSubBits) - 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
};

// Forwards every VmSystem virtual — the non-pure Loan/Unloan/Transfer/
// Extract defaults included, so a decorated UVM keeps its §7 facilities —
// to the wrapped system, timing each operation with a steady clock (plain
// accessors such as name() and tuning() pass through untimed). Owns the
// wrapped system, so it must outlive every Kernel built over it;
// InstallTracedVm arranges that.
class TracedVm final : public kern::VmSystem {
 public:
  using DestroyHook = std::function<void(const TracedVm&)>;

  explicit TracedVm(std::unique_ptr<kern::VmSystem> inner) : inner_(std::move(inner)) {}
  ~TracedVm() override {
    if (on_destroy_) {
      on_destroy_(*this);
    }
  }
  TracedVm(const TracedVm&) = delete;
  TracedVm& operator=(const TracedVm&) = delete;

  const LatencyHistogram& histogram(CallClass c) const {
    return hist_[static_cast<std::size_t>(c)];
  }
  // Called with the final counts as the decorator dies (tests use it to
  // observe destruction order).
  void set_on_destroy(DestroyHook hook) { on_destroy_ = std::move(hook); }

  const char* name() const override { return inner_->name(); }

  kern::AddressSpace* CreateAddressSpace() override {
    Span s(*this, CallClass::kOther);
    return inner_->CreateAddressSpace();
  }
  void DestroyAddressSpace(kern::AddressSpace* as) override {
    Span s(*this, CallClass::kExit);
    inner_->DestroyAddressSpace(as);
  }
  kern::AddressSpace* Fork(kern::AddressSpace& parent) override {
    Span s(*this, CallClass::kFork);
    return inner_->Fork(parent);
  }
  kern::AddressSpace& kernel_as() override { return inner_->kernel_as(); }

  int Map(kern::AddressSpace& as, sim::Vaddr* addr, std::uint64_t len, vfs::Vnode* vn,
          sim::ObjOffset off, const kern::MapAttrs& attrs) override {
    Span s(*this, CallClass::kMap);
    return inner_->Map(as, addr, len, vn, off, attrs);
  }
  int MapDevice(kern::AddressSpace& as, sim::Vaddr* addr, kern::DeviceMem& dev,
                const kern::MapAttrs& attrs) override {
    Span s(*this, CallClass::kMap);
    return inner_->MapDevice(as, addr, dev, attrs);
  }
  int Unmap(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override {
    Span s(*this, CallClass::kUnmap);
    return inner_->Unmap(as, addr, len);
  }
  int Protect(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
              sim::Prot prot) override {
    Span s(*this, CallClass::kOther);
    return inner_->Protect(as, addr, len, prot);
  }
  int SetInherit(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                 sim::Inherit inherit) override {
    Span s(*this, CallClass::kOther);
    return inner_->SetInherit(as, addr, len, inherit);
  }
  int SetAdvice(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                sim::Advice advice) override {
    Span s(*this, CallClass::kOther);
    return inner_->SetAdvice(as, addr, len, advice);
  }
  int Msync(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override {
    Span s(*this, CallClass::kMsync);
    return inner_->Msync(as, addr, len);
  }
  int MadvFree(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override {
    Span s(*this, CallClass::kOther);
    return inner_->MadvFree(as, addr, len);
  }
  int Mincore(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
              std::vector<bool>* out) override {
    Span s(*this, CallClass::kOther);
    return inner_->Mincore(as, addr, len, out);
  }

  int Wire(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override {
    Span s(*this, CallClass::kOther);
    return inner_->Wire(as, addr, len);
  }
  int Unwire(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len) override {
    Span s(*this, CallClass::kOther);
    return inner_->Unwire(as, addr, len);
  }
  int WireTransient(kern::AddressSpace& as, sim::Vaddr addr, std::uint64_t len,
                    kern::TransientWiring* out) override {
    Span s(*this, CallClass::kOther);
    return inner_->WireTransient(as, addr, len, out);
  }
  void UnwireTransient(kern::AddressSpace& as, kern::TransientWiring& tw) override {
    Span s(*this, CallClass::kOther);
    inner_->UnwireTransient(as, tw);
  }

  int AllocProcResources(kern::ProcKernelResources* out) override {
    Span s(*this, CallClass::kProcAlloc);
    return inner_->AllocProcResources(out);
  }
  void FreeProcResources(kern::ProcKernelResources& res) override {
    Span s(*this, CallClass::kOther);
    inner_->FreeProcResources(res);
  }
  void SwapOutProcResources(kern::ProcKernelResources& res) override {
    Span s(*this, CallClass::kOther);
    inner_->SwapOutProcResources(res);
  }
  void SwapInProcResources(kern::ProcKernelResources& res) override {
    Span s(*this, CallClass::kOther);
    inner_->SwapInProcResources(res);
  }

  int Fault(kern::AddressSpace& as, sim::Vaddr addr, sim::Access access) override {
    Span s(*this, access == sim::Access::kWrite ? CallClass::kFaultWrite : CallClass::kFaultRead);
    return inner_->Fault(as, addr, access);
  }

  std::size_t PageDaemon(std::size_t target_free) override {
    Span s(*this, CallClass::kOther);
    return inner_->PageDaemon(target_free);
  }

  int Loan(kern::AddressSpace& as, sim::Vaddr va, std::size_t npages,
           std::vector<phys::Page*>* out) override {
    Span s(*this, CallClass::kOther);
    return inner_->Loan(as, va, npages, out);
  }
  void Unloan(std::span<phys::Page*> pages) override {
    Span s(*this, CallClass::kOther);
    inner_->Unloan(pages);
  }
  int Transfer(kern::AddressSpace& dst, sim::Vaddr* addr,
               std::span<phys::Page*> pages) override {
    Span s(*this, CallClass::kOther);
    return inner_->Transfer(dst, addr, pages);
  }
  int Extract(kern::AddressSpace& src, sim::Vaddr src_va, std::uint64_t len,
              kern::AddressSpace& dst, sim::Vaddr* dst_va, kern::ExtractMode mode) override {
    Span s(*this, CallClass::kOther);
    return inner_->Extract(src, src_va, len, dst, dst_va, mode);
  }

  std::size_t KernelMapEntries() const override { return inner_->KernelMapEntries(); }
  std::size_t ResidentPages(kern::AddressSpace& as) const override {
    return inner_->ResidentPages(as);
  }
  std::size_t AnonResidentPages(kern::AddressSpace& as) const override {
    return inner_->AnonResidentPages(as);
  }
  const kern::VmTuning& tuning() const override { return inner_->tuning(); }
  void CheckInvariants() override { inner_->CheckInvariants(); }

 private:
  using Clock = std::chrono::steady_clock;

  // Times one forwarded call into its class's histogram.
  class Span {
   public:
    Span(TracedVm& vm, CallClass c) : vm_(vm), c_(c), t0_(Clock::now()) {}
    ~Span() {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_);
      vm_.hist_[static_cast<std::size_t>(c_)].Add(static_cast<std::uint64_t>(ns.count()));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TracedVm& vm_;
    CallClass c_;
    Clock::time_point t0_;
  };

  std::unique_ptr<kern::VmSystem> inner_;
  std::array<LatencyHistogram, kNumCallClasses> hist_{};
  DestroyHook on_destroy_;
};

// Route `w`'s kernel through a TracedVm. The decorator takes ownership of
// the real VM and replaces it in World::vm, so World's member order still
// destroys the Kernel (which exits its processes through the decorator)
// before the decorator and the VM behind it. The rebuilt Kernel inherits
// the old one's out-of-swap killer setting, which a pressure plan arms.
// Call before any process exists or any workload holds the old Kernel.
inline TracedVm& InstallTracedVm(harness::World& w) {
  SIM_ASSERT_MSG(w.kernel->live_procs() == 0, "InstallTracedVm on a kernel with processes");
  const bool oom_killer = w.kernel->oom_killer();
  w.kernel.reset();
  auto traced = std::make_unique<TracedVm>(std::move(w.vm));
  TracedVm& ref = *traced;
  w.vm = std::move(traced);
  w.kernel = std::make_unique<kern::Kernel>(w.machine, w.pm, w.fs, w.swap, *w.vm);
  w.kernel->set_oom_killer(oom_killer);
  return ref;
}

}  // namespace fleetbench

#endif  // FLEETBENCH_TRACED_VM_H_
