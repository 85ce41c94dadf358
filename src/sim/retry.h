// Shared bounded retry-with-backoff (DESIGN.md §12/§13), the single copy:
// count a Stats retry counter, charge a doubling virtual-time backoff, run
// a recovery action (usually a pagedaemon pass) and re-attempt. Used by
// phys::Pagedaemon::AllocPage, the kernel's fault recovery, poison
// re-fetch, and every pageout and flush write through RetryPageoutIo.
#ifndef SRC_SIM_RETRY_H_
#define SRC_SIM_RETRY_H_

#include <cstdint>

#include "src/sim/machine.h"
#include "src/sim/types.h"

namespace sim {

// One retry schedule: up to `max_retries` metered re-attempts, the i-th
// preceded by a charge of backoff_ns << i. `counter` (usually a Stats
// field) is bumped once per metered attempt; nullptr counts nothing.
struct RetryPolicy {
  int max_retries = 0;
  Nanoseconds backoff_ns = 0;
  std::uint64_t* counter = nullptr;
};

// Run the metered retry schedule: for each attempt i in [0, max_retries),
// bump the counter, charge backoff_ns << i, run recover(i) (the caller's
// recovery action — a pagedaemon pass, a re-fetch setup, or nothing), then
// re-attempt op(). Returns true as soon as op() succeeds; false when the
// schedule is exhausted. The caller performs the initial (free) attempts
// itself, so the charge sequence of the pre-existing loops is preserved
// exactly.
template <typename Op, typename Recover>
bool RetryWithBackoff(Machine& machine, const RetryPolicy& policy, Op&& op, Recover&& recover) {
  for (int attempt = 0; attempt < policy.max_retries; ++attempt) {
    if (policy.counter != nullptr) {
      ++*policy.counter;
    }
    machine.Charge(policy.backoff_ns << attempt);
    recover(attempt);
    if (op()) {
      return true;
    }
  }
  return false;
}

// Run a pageout or flush `write` once and, while it fails with kErrIO,
// re-run it on the (max_retries, io_retry_backoff_ns, pageout_retries)
// schedule. Returns the last attempt's error.
template <typename Write>
int RetryPageoutIo(Machine& machine, int max_retries, Write&& write) {
  int err = write();
  if (err == kErrIO) {
    RetryWithBackoff(
        machine,
        {max_retries, machine.cost().io_retry_backoff_ns, &machine.stats().pageout_retries},
        [&] { return (err = write()) != kErrIO; }, [](int) {});
  }
  return err;
}

}  // namespace sim

#endif  // SRC_SIM_RETRY_H_
