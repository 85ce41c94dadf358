// Global event counters. Benches and tests read these (diffing snapshots
// around an experiment) to report the paper's tables (fault counts,
// map-entry counts, I/O operation counts). Each counter is declared once, in SIM_STATS; the
// fields, the name table and sim::ReportStats all come from that list.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace sim {

// X(name) per counter, in report order.
#define SIM_STATS(X)                                                                       \
  /* Fault path */                                                                         \
  X(faults)                   /* page faults taken */                                      \
  X(fault_neighbor_maps)      /* pages mapped by UVM fault lookahead */                    \
  /* I/O */                                                                                \
  X(disk_ops)                 /* distinct I/O operations (seeks) */                        \
  X(disk_pages_read)                                                                       \
  X(disk_pages_written)                                                                    \
  X(swap_ops)                                                                              \
  X(swap_pages_in)                                                                         \
  X(swap_pages_out)                                                                        \
  /* I/O error injection and recovery */                                                   \
  X(io_errors_injected)       /* faults delivered by the injector */                       \
  X(pagein_errors)            /* faults surfaced to a process as kErrIO */                 \
  X(pageout_retries)          /* pageout retry passes after EIO */                         \
  X(bad_slots_remapped)       /* swap slots marked bad and replaced */                     \
  /* Dirty pages dropped because a terminate-time flush exhausted its */                   \
  /* retries (object/vnode teardown cannot report failure; a permanently */                \
  /* dead disk loses the write, and this counter is the only evidence). */                 \
  X(pageout_drops)                                                                         \
  /* Memory traffic */                                                                     \
  X(pages_copied)                                                                          \
  X(pages_zeroed)                                                                          \
  /* Map bookkeeping */                                                                    \
  X(map_entries_allocated)    /* cumulative allocations */                                 \
  X(map_entry_fragmentations)                                                              \
  X(map_entries_merged)       /* UVM optional coalescing */                                \
  /* Hot-path lookup observability. Probes are *modeled* (the virtual-time */              \
  /* linear-scan position), independent of the host data structure; hint */                \
  /* hits are lookups satisfied by the per-map last-lookup hint. */                        \
  X(map_lookup_probes)                                                                     \
  X(map_hint_hits)                                                                         \
  X(pagestore_lookups)        /* object page-store probes */                               \
  X(pte_cache_hits)           /* pmap single-entry PTE cache hits */                       \
  /* Object layer */                                                                       \
  X(objects_allocated)        /* BSD vm_objects (incl. shadows) */                         \
  X(shadows_created)                                                                       \
  X(collapse_attempts)                                                                     \
  X(collapses_done)                                                                        \
  X(bypasses_done)                                                                         \
  X(amaps_allocated)                                                                       \
  X(anons_allocated)                                                                       \
  /* Cache behaviour */                                                                    \
  X(object_cache_hits)                                                                     \
  X(object_cache_evictions)                                                                \
  X(vnode_cache_hits)                                                                      \
  X(vnode_recycles)                                                                        \
  /* Lock metering (§3.1: BSD holds the map lock across object teardown) */                \
  X(map_lock_acquisitions)                                                                 \
  X(map_lock_hold_ns)                                                                      \
  /* All sim::SimLock instances combined (map locks included); per-lock-class */           \
  /* attribution lives in the machine's LockRegistry (DESIGN.md §15). */                   \
  X(lock_acquisitions)                                                                     \
  X(lock_hold_ns)                                                                          \
  /* SMP contention (DESIGN.md §16): acquires that paid queueing delay and */              \
  /* the total delay charged. Always zero in single-CPU worlds. */                         \
  X(lock_contended_acquires)                                                               \
  X(lock_wait_ns)                                                                          \
  /* Resource pressure / pool exhaustion (DESIGN.md §12) */                                \
  X(pressure_events)          /* scripted pressure-plan events applied */                  \
  X(page_alloc_failures)      /* AllocPage denied (empty or reserve-protected) */          \
  X(emergency_page_allocs)    /* pageout/PT-page allocs that dipped into reserve */        \
  X(alloc_retries)            /* extra daemon-and-retry passes on the alloc path */        \
  X(fault_retries)            /* kernel-level fault retries under pressure */              \
  /* Fault paths that found their captured Page* freed (generation bumped) */              \
  /* by a pagedaemon run inside a blocking allocation, and backed out or */                \
  /* re-looked-up instead of touching the recycled frame. */                               \
  X(fault_stale_page_retries)                                                              \
  X(swap_full_events)         /* pageout wanted a swap slot and none was free */           \
  X(swap_reserve_allocs)      /* slot allocs that dipped into the pageout reserve */       \
  X(vnode_table_full)         /* vnode table exhausted with nothing recyclable */          \
  X(map_entry_pool_denials)   /* range ops refused for lack of clip headroom */            \
  X(oom_kills)                /* out-of-swap killer victims */                             \
  X(oom_pages_reclaimed)      /* frames freed by those kills */                            \
  /* Memory-error injection and containment (DESIGN.md §13) */                             \
  X(memfault_events)          /* scripted memfault-plan events applied */                  \
  X(frames_poisoned)          /* frames marked poisoned by the injector */                 \
  X(poison_discards)          /* clean poisoned pages unmapped and discarded */            \
  X(poison_refetches)         /* refaults that re-fetched discarded contents */            \
  X(poison_kills)             /* processes killed over dirty poisoned anon pages */        \
  X(poison_pages_reclaimed)   /* frames freed by those kills */                            \
  X(poison_loans_broken)      /* loaned poisoned pages revoked from borrowers */

struct Stats {
#define SIM_STATS_FIELD(name) std::uint64_t name = 0;
  SIM_STATS(SIM_STATS_FIELD)
#undef SIM_STATS_FIELD
};

// Name and field of every counter, in list order.
inline constexpr const char* kStatNames[] = {
#define SIM_STATS_NAME(name) #name,
    SIM_STATS(SIM_STATS_NAME)
#undef SIM_STATS_NAME
};
inline constexpr std::uint64_t Stats::*kStatFields[] = {
#define SIM_STATS_MEMBER(name) &Stats::name,
    SIM_STATS(SIM_STATS_MEMBER)
#undef SIM_STATS_MEMBER
};
inline constexpr std::size_t kNumStats = std::size(kStatNames);

// A field declared outside SIM_STATS would be neither named nor reported.
static_assert(sizeof(Stats) == kNumStats * sizeof(std::uint64_t),
              "every sim::Stats counter must be declared in SIM_STATS");

}  // namespace sim

#endif  // SRC_SIM_STATS_H_
