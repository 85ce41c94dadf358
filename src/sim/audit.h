// Cross-layer VM invariant auditor (DESIGN.md §13). The structures the
// paper's two VM systems juggle — amap and object reference counts, object
// page lists, pmap pv chains, swap-slot ownership, the physical page pools —
// are mutually redundant, and a bug in any layer shows up as disagreement
// between two of them long before it corrupts a result. The Auditor is an
// independent checker of that agreement: each layer registers its checks at
// construction (the auditor itself, living at the bottom of the include DAG,
// knows nothing about the layers above), and a run executes every check in
// registration order.
//
// Runs happen at three kinds of moment:
//   - every N virtual ms when armed via --audit=N (Poll(), called from the
//     kernel's operation boundaries — quiescent points by construction);
//   - at shutdown of every harness::World (so every test binary and bench
//     ends with a full audit);
//   - on demand from soaks and the corruption-fixture tests (Run()), and
//     from a VM's CheckInvariants (Enforce(), that VM's check only).
//
// Audit runs are observer-effect-free: no virtual time is charged, no Stats
// counter moves, and checks only read simulation state — an armed auditor
// changes nothing an unarmed run could observe except its own verdict (and
// opt-in trace instants). Periodic runs panic on a violation (the soak
// stops at the first incoherent state); explicit Run() callers inspect the
// violation list instead, which is how the corruption fixtures prove each
// invariant class is actually caught.
#ifndef SRC_SIM_AUDIT_H_
#define SRC_SIM_AUDIT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/trace.h"
#include "src/sim/types.h"

namespace sim {

class Auditor {
 public:
  // A check inspects its layer and calls auditor.Fail(...) per violation.
  using Check = std::function<void(Auditor&)>;

  Auditor() = default;
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // Register a named check; checks run in registration order (construction
  // order of the layers, bottom-up). Returns a token for Unregister, which
  // subsystems destroyed before the machine must call.
  int Register(std::string name, Check fn);
  void Unregister(int token);

  // Arm periodic runs every `every` virtual nanoseconds (0 disarms). The
  // first run is due at t = every.
  void set_interval(Nanoseconds every) {
    interval_ = every;
    next_due_ = every;
  }
  Nanoseconds interval() const { return interval_; }
  bool armed() const { return interval_ != 0; }

  // Run every registered check once. Returns the number of violations this
  // run recorded (also kept in violations() / last_violations()).
  std::size_t Run();

  // Run the one check registered under `token` now and panic on its first
  // violation; the VMs' CheckInvariants. Not counted in runs().
  void Enforce(int token);

  // Periodic entry point: run when armed and due, then panic on any
  // violation — an incoherent state must stop the run at the moment it is
  // first observable, not thousands of events later. Inert (one branch)
  // when disarmed.
  void Poll(Nanoseconds now, Tracer& tracer);

  // Called by checks to report one violation.
  void Fail(std::string detail);

  std::uint64_t runs() const { return runs_; }
  std::uint64_t total_violations() const { return total_violations_; }
  std::size_t check_count() const { return checks_.size(); }
  // Violations recorded by the most recent Run().
  const std::vector<std::string>& last_violations() const { return last_violations_; }

 private:
  struct Entry {
    int token;
    std::string name;
    Check fn;
  };

  // Run `checks` in order, leaving their violations in last_violations_.
  void RunChecks(std::span<const Entry> checks);

  std::vector<Entry> checks_;
  int next_token_ = 1;
  Nanoseconds interval_ = 0;
  Nanoseconds next_due_ = 0;
  std::uint64_t runs_ = 0;
  std::uint64_t total_violations_ = 0;
  std::vector<std::string> last_violations_;
  const char* current_check_ = nullptr;
  bool running_ = false;
};

}  // namespace sim

#endif  // SRC_SIM_AUDIT_H_
