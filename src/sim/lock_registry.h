// Registry of every live sim::SimLock plus the stack of currently-held
// locks (DESIGN.md §15). Machine owns one LockRegistry; SimLock registers
// itself on construction and folds its counters into the per-class retired
// totals on destruction, so per-lock-class attribution survives the locks
// themselves (per-address-space map locks die with their process).
//
// This header is deliberately free of any Machine dependency so machine.h
// can hold a LockRegistry by value; all rank/charge logic lives in
// src/sim/lock.h.
#ifndef SRC_SIM_LOCK_REGISTRY_H_
#define SRC_SIM_LOCK_REGISTRY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/sim/assert.h"

namespace sim {

class SimLock;

// Global lock rank table (paper §3: the map lock is the outermost lock in
// every VM operation; each layer below has its own finer lock). A lock may
// only be acquired while every held lock has an equal or *lower* rank —
// equal rank covers the legal same-layer pairs (two maps during extract /
// fork, the BSD kernel map under a locked process map for PT-page mirroring).
// kPv and kSwap extend the paper's five-entry table downward: pv-chain and
// swap-slot locks are leaves acquired under everything else.
// X(enumerator, name), outermost rank first.
#define SIM_LOCK_RANKS(X)     \
  X(kMap, "map")              \
  X(kObject, "object")        \
  X(kAmap, "amap")            \
  X(kPageQueue, "page-queue") \
  X(kPmap, "pmap")            \
  X(kPv, "pv")                \
  X(kSwap, "swap")

enum class LockRank : std::uint8_t {
#define SIM_LOCK_RANK_ENUM(rank, name) rank,
  SIM_LOCK_RANKS(SIM_LOCK_RANK_ENUM)
#undef SIM_LOCK_RANK_ENUM
};

inline constexpr const char* kLockRankNames[] = {
#define SIM_LOCK_RANK_NAME(rank, name) name,
    SIM_LOCK_RANKS(SIM_LOCK_RANK_NAME)
#undef SIM_LOCK_RANK_NAME
};

constexpr const char* LockRankName(LockRank r) {
  return kLockRankNames[static_cast<std::size_t>(r)];
}

// Per-lock-class counter totals, aggregated by lock name. For live locks
// the numbers come straight from the lock; destroyed locks contribute via
// the retired table. The contention pair counts SMP queueing (DESIGN.md
// §16): acquires that found the class's last release ahead of the acquiring
// CPU's local clock, and the total delay charged for them. Both stay zero
// in single-CPU worlds.
struct LockClassTotals {
  const char* name;
  LockRank rank;
  std::uint64_t locks = 0;  // distinct SimLock instances ever registered
  std::uint64_t acquisitions = 0;
  std::uint64_t hold_ns = 0;
  std::uint64_t contended_acquires = 0;
  std::uint64_t wait_ns = 0;
};

class LockRegistry {
 public:
  LockRegistry() = default;
  LockRegistry(const LockRegistry&) = delete;
  LockRegistry& operator=(const LockRegistry&) = delete;

  void Register(SimLock* l, const char* name, LockRank rank) {
    locks_.push_back(l);
    RetiredSlot(name, rank).locks += 1;
  }

  // Called from ~SimLock with the lock's final counters; the per-name
  // totals outlive the lock object itself.
  void Unregister(SimLock* l, const char* name, LockRank rank, std::uint64_t acquisitions,
                  std::uint64_t hold_ns, std::uint64_t contended_acquires,
                  std::uint64_t wait_ns) {
    auto it = std::find(locks_.begin(), locks_.end(), l);
    SIM_ASSERT_MSG(it != locks_.end(), "unregistering a lock that was never registered");
    locks_.erase(it);
    LockClassTotals& t = RetiredSlot(name, rank);
    t.acquisitions += acquisitions;
    t.hold_ns += hold_ns;
    t.contended_acquires += contended_acquires;
    t.wait_ns += wait_ns;
  }

  // The held stack is per virtual CPU: each CPU tracks the locks it holds
  // and validates rank order against its own stack only (cross-CPU conflict
  // is the contention model's job, not the rank validator's). The scheduler
  // flips the current CPU at context switches; single-CPU worlds never
  // leave cpu 0.
  void SetCurrentCpu(std::size_t cpu, std::size_t ncpus) {
    SIM_ASSERT(cpu < ncpus);
    if (held_.size() < ncpus) {
      held_.resize(ncpus);
    }
    cpu_ = cpu;
  }
  std::size_t current_cpu() const { return cpu_; }

  void PushHeld(SimLock* l) { held_[cpu_].push_back(l); }

  // Release order need not be LIFO (a fault may unlock the map before the
  // object lock on an error path), so erase wherever the lock sits.
  void PopHeld(SimLock* l) {
    std::vector<SimLock*>& held = held_[cpu_];
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      if (*it == l) {
        held.erase(std::next(it).base());
        return;
      }
    }
    SIM_PANIC("releasing a lock that is not on the current cpu's held stack");
  }

  const std::vector<SimLock*>& held() const { return held_[cpu_]; }
  const std::vector<SimLock*>& held(std::size_t cpu) const {
    SIM_ASSERT(cpu < held_.size());
    return held_[cpu];
  }
  bool NoLocksHeldAnywhere() const {
    for (const std::vector<SimLock*>& h : held_) {
      if (!h.empty()) {
        return false;
      }
    }
    return true;
  }
  const std::vector<SimLock*>& locks() const { return locks_; }

  // Retired (and partially live: `locks` counts registrations) per-class
  // totals in first-registration order — deterministic. sim::LockTable()
  // in lock.h merges in the live locks' current counters.
  const std::vector<LockClassTotals>& retired() const { return retired_; }

 private:
  LockClassTotals& RetiredSlot(const char* name, LockRank rank) {
    for (LockClassTotals& t : retired_) {
      if (std::strcmp(t.name, name) == 0) {
        return t;
      }
    }
    retired_.push_back(LockClassTotals{name, rank, 0, 0, 0, 0, 0});
    return retired_.back();
  }

  std::vector<SimLock*> locks_;  // live locks, registration order
  // Per-CPU acquisition-ordered held stacks; cpu_ indexes the running CPU's.
  std::vector<std::vector<SimLock*>> held_{1};
  std::size_t cpu_ = 0;
  std::vector<LockClassTotals> retired_;
};

}  // namespace sim

#endif  // SRC_SIM_LOCK_REGISTRY_H_
