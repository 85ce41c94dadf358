// Deterministic I/O fault injection. A FaultInjector hangs off the Machine
// and is consulted by vfs::Disk before every simulated I/O operation. Fault
// plans are per device kind (filesystem disk vs. swap disk) and per
// direction (read vs. write), and come in two flavours:
//
//   - scheduled: "fail the Nth read/write op on this device" (1-based),
//     optionally permanent;
//   - probabilistic: Bernoulli num/den per op, drawn from the injector's
//     own seeded splitmix64 stream.
//
// A *transient* fault fails one operation; retrying the same blocks later
// can succeed. A *permanent* fault additionally marks the first block of
// the failed operation bad: every later operation touching a bad block
// fails too, until the storage layer (SwapDevice) remaps around it. All
// randomness comes from the injector's own Rng, so a given seed + plan
// yields the same fault sequence on every run — and a run with no plan
// never draws random numbers at all.
//
// The injector also replays *memory-fault plans* (DESIGN.md §13): scripted
// virtual-time points at which physical frames suffer an uncorrectable
// memory error and are poisoned, hwpoison-style. Like the pressure engine,
// the plan is replayed by a sim::Timeline (event_plan.h); the frame owner
// (phys::PhysMem) registers an actuator at construction and the hot paths
// poll via Machine::PollPressure(); with no plan installed PollMem() is a
// single branch and no randomness is drawn. The per-device I/O plans above
// count operations, not virtual time, and sit outside the timeline.
#ifndef SRC_SIM_FAULT_H_
#define SRC_SIM_FAULT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/sim/event_plan.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/sim/types.h"

namespace sim {

// Which simulated device an I/O operation targets.
enum class IoDevice : std::uint8_t { kFilesystemDisk, kSwapDisk };
enum class IoDir : std::uint8_t { kRead, kWrite };

inline constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};

// One scheduled fault: fail the `nth` operation (1-based, counted per
// device and direction since the plan was installed).
struct FaultSpec {
  std::uint64_t nth = 0;
  bool permanent = false;
};

// Fault plan for one device.
struct FaultPlan {
  std::vector<FaultSpec> fail_reads;
  std::vector<FaultSpec> fail_writes;
  // Bernoulli per-op failure probability num/den (0/1 = never).
  std::uint64_t read_num = 0, read_den = 1;
  std::uint64_t write_num = 0, write_den = 1;
  // Probability that a probabilistic fault is permanent rather than
  // transient (0/1 = always transient).
  std::uint64_t permanent_num = 0, permanent_den = 1;
};

// What the injector decided about one operation.
struct InjectedFault {
  int err = kErrIO;
  bool permanent = false;
  std::uint64_t bad_block = kNoBlock;  // block marked bad, if permanent
};

// One scripted memory-fault event: at virtual time `at`, poison either one
// named physical frame or `count` pseudo-randomly chosen eligible frames
// (the actuator draws them from the injector's seeded stream).
struct MemFaultEvent {
  Nanoseconds at = 0;
  bool random = false;
  std::uint64_t pfn = 0;    // target frame (random == false)
  std::uint64_t count = 0;  // frames to poison (random == true)
};

struct MemFaultPlan {
  std::vector<MemFaultEvent> events;

  bool empty() const { return events.empty(); }
};

// Parse a memory-fault plan spec of ';'-separated events:
//
//   @TIME poison PFN          e.g.  "@10ms poison 42"
//   @TIME poison random:N     e.g.  "@10ms poison 42; @20ms poison random:3"
//
// TIME takes an optional unit suffix (ns, us, ms, s; default ns).
// Whitespace around tokens is ignored. Returns false and fills *error on
// malformed input, including a TIME, PFN or N that does not fit in 64 bits.
bool ParseMemFaultPlan(const std::string& spec, MemFaultPlan* out, std::string* error);

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0) : rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Install a plan for one device; resets that device's op counters and
  // bad-block set so scheduled "Nth op" specs count from here.
  void SetPlan(IoDevice dev, const FaultPlan& plan) {
    State& st = state_[Index(dev)];
    st = State{};
    st.plan = plan;
  }
  void Reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  // Called by vfs::Disk for every operation. `blkno` is the device block
  // (page-sized) the operation starts at, kNoBlock if the caller has no
  // meaningful address; `nblks` is the transfer length in blocks. Returns
  // the fault to deliver, or nullopt for success. Bumps
  // stats.io_errors_injected on every delivered fault.
  std::optional<InjectedFault> OnOp(IoDevice dev, IoDir dir, std::uint64_t blkno,
                                    std::uint64_t nblks, Stats& stats);

  // True if `blk` has been marked bad on `dev` (by a permanent fault).
  bool IsBadBlock(IoDevice dev, std::uint64_t blk) const {
    return state_[Index(dev)].bad_blocks.count(blk) != 0;
  }

  std::uint64_t read_ops(IoDevice dev) const { return state_[Index(dev)].read_ops; }
  std::uint64_t write_ops(IoDevice dev) const { return state_[Index(dev)].write_ops; }

  // --- Memory-fault (hwpoison) plan ---

  // The actuator poisons frames; for random events it draws targets from
  // the supplied Rng (the injector's own seeded stream). Registered once by
  // phys::PhysMem at construction.
  using MemActuator = std::function<void(const MemFaultEvent&, Rng&)>;

  // Install a plan; events are applied in (time, spec order). Replaces any
  // previous plan and restarts from the first event.
  void SetMemPlan(const MemFaultPlan& plan) { mem_timeline_.Set(plan.events); }
  void RegisterMemActuator(MemActuator fn) { mem_actuator_ = std::move(fn); }

  // Apply every memory-fault event due at or before `now`. Charges nothing;
  // counts stats.memfault_events and emits one trace instant per event.
  void PollMem(Nanoseconds now, Stats& stats, Tracer& tracer) {
    if (mem_timeline_.Due(now)) {
      ApplyDueMem(now, stats, tracer);
    }
  }

 private:
  struct State {
    FaultPlan plan;
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;
    std::set<std::uint64_t> bad_blocks;
  };

  static std::size_t Index(IoDevice dev) { return static_cast<std::size_t>(dev); }

  void ApplyDueMem(Nanoseconds now, Stats& stats, Tracer& tracer);

  Rng rng_;
  State state_[2];
  Timeline<MemFaultEvent> mem_timeline_;
  MemActuator mem_actuator_;
};

}  // namespace sim

#endif  // SRC_SIM_FAULT_H_
