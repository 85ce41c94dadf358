// Shared hot-path core of the two VM maps (uvm::UvmMap and bsdvm::VmMap).
//
// Host-time data structure and virtual-time cost model are deliberately
// decoupled (see DESIGN.md "The lookup layer"). Entries live in a std::list
// (stable iterators, the property every caller relies on); on the side the
// map keeps a flat sorted index of entry start addresses, so LookupEntry /
// RangeFree / FindSpace / InsertEntry run in O(log n) host time instead of
// the seed's O(n) list walks. A per-map last-lookup hint (the optimization
// real UVM later adopted) short-circuits repeated lookups into the same
// entry, and a free-space hint lets FindSpace resume from the previous
// allocation instead of rescanning from the bottom of the map.
//
// The *virtual-time* charge for a lookup is unchanged: it models a linear
// scan of a sorted entry list, `map_entry_scan_ns * modeled_probes`, where
// modeled_probes is derived from the entry's position (1-based rank) — NOT
// from the number of host operations actually performed. A hint hit charges
// exactly what the modeled scan would have charged. This keeps every
// table/figure reproduction bit-identical while the host structures change
// underneath.
//
// Hint invalidation rules:
//  - last-lookup hint and the hint cache: invalidated on EVERY mutation
//    (insert, erase, clip); ranks and extents may shift, so every cached
//    (iterator, rank) pair is dropped wholesale. The cache drops them in
//    O(1) by bumping a generation stamp rather than clearing slots.
//  - free-space hint: a completed FindSpace(from, len) -> result proves "no
//    hole of size >= len exists in [from, result)". Inserts only shrink
//    holes and clips do not change the hole structure at all, so both keep
//    the hint; EraseEntry frees address space and invalidates it.
//
// Beyond the single last-lookup entry, a small direct-mapped hint cache
// keyed by 32 KB address granule catches the other dominant probe pattern:
// lookups that bounce between a working set of entries (fault storms over
// many regions), where consecutive lookups almost never land in the same
// entry and the single-entry hint goes cold. A cache hit charges exactly
// the rank recorded when the entry was last found — no mutation happened
// since (same generation), so that rank is still the modeled scan cost.
//
// Entry nodes are slab-allocated: the std::list runs on sim::PoolAllocator,
// backed either by a shared per-VM PoolResource (passed by Uvm/BsdVm so
// fork/exit churn recycles entry nodes across all maps) or by a private
// per-map resource when none is supplied.
#ifndef SRC_SIM_ADDR_MAP_H_
#define SRC_SIM_ADDR_MAP_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <vector>

#include "src/sim/annotations.h"
#include "src/sim/assert.h"
#include "src/sim/lock.h"
#include "src/sim/machine.h"
#include "src/sim/pool.h"
#include "src/sim/types.h"

namespace sim {

// Entry requirements: page-aligned `Vaddr start, end` members and
// `void AdvanceOffsets(std::uint64_t pages)` shifting its layer offsets
// when the entry is clipped (amap slot / object page offsets).
template <typename Entry>
class AddrMap {
 public:
  using EntryList = std::list<Entry, PoolAllocator<Entry>>;
  using iterator = typename EntryList::iterator;

  // max_entries == 0 means unlimited (user maps); the kernel map has a
  // fixed entry pool and exhausting it is fatal in a real kernel (§3.2).
  // `entry_pool`, when given, supplies the slab storage for entry nodes
  // (shared across a VM's maps); otherwise the map carries its own.
  // `lock_name` names the map's SimLock in the registry's per-class
  // attribution table ("uvm.map", "bsd.kmap", ...).
  AddrMap(Machine& machine, Vaddr min_addr, Vaddr max_addr, std::size_t max_entries,
          PoolResource* entry_pool = nullptr, const char* lock_name = "map")
      : machine_(machine),
        min_addr_(min_addr),
        max_addr_(max_addr),
        max_entries_(max_entries),
        own_pool_("map.entries", &machine.pools()),
        entries_(PoolAllocator<Entry>(entry_pool != nullptr ? entry_pool : &own_pool_)),
        lock_(machine, lock_name, LockRank::kMap, &machine.cost().map_lock_ns) {}

  AddrMap(const AddrMap&) = delete;
  AddrMap& operator=(const AddrMap&) = delete;

  // Lock metering. The "lock" is advisory (the simulator is single
  // threaded) but it is a real sim::SimLock: acquisitions and virtual hold
  // time are recorded per lock, the global rank order is validated, and
  // re-entrant acquisition panics (the paper's map lock is not recursive).
  void Lock() SIM_ACQUIRE(lock_) { lock_.Acquire(); }

  void Unlock() SIM_RELEASE(lock_) { lock_.Release(); }

  bool IsLocked() const { return lock_.IsHeld(); }

  SimLock& lock() SIM_RETURN_CAPABILITY(lock_) { return lock_; }

  // Find the entry containing `va`; entries().end() if unmapped. Charges
  // the modeled linear-scan cost (rank of the entry), not the host cost.
  iterator LookupEntry(Vaddr va) {
    if (hint_valid_ && va >= hint_it_->start && va < hint_it_->end) {
      ++machine_.stats().map_hint_hits;
      ChargeProbes(hint_rank_);
      RememberHint(va, hint_it_, hint_rank_);
      return hint_it_;
    }
    const std::uint64_t key = va >> kHintGranuleShift;
    const HintSlot& slot = hint_cache_[key & (kHintWays - 1)];
    if (slot.gen == hint_gen_ && slot.key == key && va >= slot.it->start && va < slot.it->end) {
      // No mutation since the slot was written (generation match), so the
      // recorded rank is still the entry's rank — charge what the modeled
      // scan would have cost and promote to the single-entry hint.
      ++machine_.stats().map_hint_hits;
      ChargeProbes(slot.rank);
      hint_valid_ = true;
      hint_it_ = slot.it;
      hint_rank_ = slot.rank;
      return slot.it;
    }
    std::size_t ub = UpperBound(va);  // entries with start <= va
    if (ub > 0) {
      iterator it = iters_[ub - 1];
      if (va < it->end) {
        RememberHint(va, it, ub);
        ChargeProbes(ub);
        return it;
      }
    }
    // Miss. The modeled scan examines every entry with start <= va and
    // breaks on the first entry beyond va (if one exists).
    ChargeProbes(ub + (ub < starts_.size() ? 1 : 0));
    return entries_.end();
  }

  // True if [start, start+len) overlaps no entry.
  bool RangeFree(Vaddr start, std::uint64_t len) const {
    Vaddr end = start + len;
    if (start < min_addr_ || end > max_addr_ || end <= start) {
      return false;
    }
    // Entries are disjoint and sorted: only the entry with the greatest
    // start below `end` can overlap the range.
    std::size_t lb = LowerBound(end);
    return lb == 0 || iters_[lb - 1]->end <= start;
  }

  // First-fit search for `len` bytes of free space at or above *addr.
  // The free-space hint only accelerates the search; the result is always
  // identical to a full scan from *addr.
  int FindSpace(Vaddr* addr, std::uint64_t len) const {
    Vaddr at = *addr < min_addr_ ? min_addr_ : PageRound(*addr);
    const Vaddr from = at;
    if (free_hint_valid_ && at >= free_hint_from_ && at <= free_hint_result_ &&
        len >= free_hint_len_) {
      // The previous search proved there is no hole of size >= len below
      // free_hint_result_; resume there.
      at = free_hint_result_;
    }
    std::size_t i = UpperBound(at);
    if (i > 0 && iters_[i - 1]->end > at) {
      --i;  // the entry covering `at`
    }
    for (; i < iters_.size(); ++i) {
      const Entry& e = *iters_[i];
      if (e.end <= at) {
        continue;
      }
      if (e.start >= at + len) {
        break;
      }
      at = e.end;
    }
    if (at + len > max_addr_) {
      return kErrNoMem;
    }
    *addr = at;
    free_hint_valid_ = true;
    free_hint_from_ = from;
    free_hint_result_ = at;
    free_hint_len_ = len;
    return kOk;
  }

  // Choose where a new [*addr, *addr + len) mapping goes: exactly at *addr
  // when `fixed` (kErrExist if anything is mapped there), otherwise the
  // first fit at or above *addr. Charges nothing, like its two halves.
  int Place(Vaddr* addr, std::uint64_t len, bool fixed) const {
    if (fixed) {
      return RangeFree(*addr, len) ? kOk : kErrExist;
    }
    return FindSpace(addr, len);
  }

  // Host-side seek (no charge, no stats): the first entry that ends above
  // `va` — the entry containing it, or the next one up when `va` is in a
  // hole; entries().end() if there is none.
  iterator Seek(Vaddr va) {
    std::size_t i = UpperBound(va);  // entries with start <= va
    if (i > 0 && iters_[i - 1]->end > va) {
      --i;
    }
    return i < iters_.size() ? iters_[i] : entries_.end();
  }

  // Host-side check (no charge, no stats, no clip): does `pred` hold for
  // every entry overlapping [start, end)? Lets an all-or-nothing range op
  // refuse before its walk changes anything.
  template <typename Pred>
  bool AllInRange(Vaddr start, Vaddr end, Pred&& pred) {
    for (iterator it = Seek(start); start < end && it != entries_.end() && it->start < end;
         ++it) {
      if (!pred(*it)) {
        return false;
      }
    }
    return true;
  }

  // Host-side visitor (no charge, no stats, no clip): fn(entry, lo, hi) for
  // each entry overlapping [start, end), in address order, where [lo, hi)
  // is the overlap. For range ops that read or drop pages but leave the
  // entry layout alone (msync, MADV_FREE).
  template <typename Fn>
  void ForEachOverlap(Vaddr start, Vaddr end, Fn&& fn) {
    for (iterator it = Seek(start); start < end && it != entries_.end() && it->start < end;
         ++it) {
      fn(*it, std::max(it->start, start), std::min(it->end, end));
    }
  }

  // ---- Range operations (DESIGN.md §9 "Range operations") ----
  //
  // The one clip-and-visit loop behind every range op of both VMs. Each
  // entry overlapping [start, end) is visited once, in address order. An
  // entry that straddles `start` or `end` is first split there, and
  // `dup(entry)` runs after each split: both halves now share the entry's
  // amap/object, so the VM takes one more reference. `visit(it)` then sees
  // an entry lying wholly inside the range; it may erase that entry. The
  // first visit that returns an error stops the walk and that error is
  // returned. Holes are skipped: a range that starts in a hole begins at
  // the first entry above `start`. Clip headroom is reserved before
  // anything changes, so a fixed-pool map refuses up front with
  // kErrMapEntryPool.
  //
  // Locked form: lock, reserve, charge one LookupEntry(start) (a miss
  // falls back to the uncharged Seek), walk, unlock.
  template <typename Dup, typename Visit>
  int WalkRange(Vaddr start, Vaddr end, Dup&& dup, Visit&& visit) {
    Lock();
    int err = WalkRangeLocked(
        start, end,
        [&] {
          iterator it = LookupEntry(start);
          return it != entries_.end() ? it : Seek(start);
        },
        dup, visit);
    Unlock();
    return err;
  }

  // Caller-locked form: the caller holds the map lock, and `first()`
  // yields the first entry to visit (charging whatever the caller's
  // mechanism charges). It runs only once the reservation is granted, so
  // it may change what entries hold (UVM's amap_unadd pre-pass), though
  // not the entry layout the reservation was sized for.
  template <typename First, typename Dup, typename Visit>
  int WalkRangeLocked(Vaddr start, Vaddr end, First&& first, Dup&& dup, Visit&& visit) {
    ClipReservation clipres;
    if (int err = clipres.Acquire(*this, start, end); err != kOk) {
      return err;
    }
    iterator it = first();
    while (start < end && it != entries_.end() && it->start < end) {
      if (it->start < start) {
        it = ClipStart(it, start);
        dup(*it);
      }
      if (it->end > end) {
        ClipEnd(it, end);
        dup(*it);
      }
      iterator next = std::next(it);
      if (int err = visit(it); err != kOk) {
        return err;
      }
      it = next;
    }
    return kOk;
  }

  // Host-side peek (no charge, no stats): would a range op over
  // [start, end) have to clip an entry at either boundary? Used to decide
  // whether a clip reservation is needed before mutating anything.
  bool RangeNeedsClip(Vaddr start, Vaddr end) const {
    std::size_t us = UpperBound(start);  // entries with start <= `start`
    if (us > 0) {
      const Entry& e = *iters_[us - 1];
      if (e.start < start && e.end > start) {
        return true;
      }
    }
    std::size_t ue = LowerBound(end);  // entries with start < `end`
    if (ue > 0) {
      const Entry& e = *iters_[ue - 1];
      if (e.start < end && e.end > end) {
        return true;
      }
    }
    return false;
  }

  // RAII reservation of the worst-case clip entries (one start clip + one
  // end clip) for a range operation. Acquire() is called after Lock() and
  // before any mutation: if the pool cannot cover the worst case, the op
  // fails cleanly with kErrMapEntryPool *up front*, and the clip-path
  // asserts below become provably unreachable. The reservation does not
  // consume entries — it only makes InsertEntry leave headroom — and is
  // returned when the guard dies.
  class ClipReservation {
   public:
    ClipReservation() = default;
    ClipReservation(const ClipReservation&) = delete;
    ClipReservation& operator=(const ClipReservation&) = delete;
    ~ClipReservation() { Release(); }

    // Returns kOk (reserving nothing when no clip can occur) or
    // kErrMapEntryPool. Charges nothing: the peek is host-side only.
    int Acquire(AddrMap& map, Vaddr start, Vaddr end) {
      SIM_ASSERT(map_ == nullptr);
      if (map.max_entries_ == 0 || !map.RangeNeedsClip(start, end)) {
        return kOk;
      }
      if (map.entries_.size() + map.reserved_ + kWorstCaseClips > map.max_entries_) {
        ++map.machine_.stats().map_entry_pool_denials;
        return kErrMapEntryPool;
      }
      map.reserved_ += kWorstCaseClips;
      map_ = &map;
      return kOk;
    }

    void Release() {
      if (map_ != nullptr) {
        SIM_ASSERT(map_->reserved_ >= kWorstCaseClips);
        map_->reserved_ -= kWorstCaseClips;
        map_ = nullptr;
      }
    }

   private:
    static constexpr std::size_t kWorstCaseClips = 2;
    AddrMap* map_ = nullptr;
  };

  std::size_t reserved_entries() const { return reserved_; }

  // Insert a pre-built entry (space must be free). Fails with
  // kErrMapEntryPool if the fixed entry pool is exhausted (outstanding
  // clip reservations count against it).
  int InsertEntry(const Entry& e, iterator* out = nullptr) {
    SIM_ASSERT(e.start < e.end);
    SIM_ASSERT((e.start & kPageMask) == 0 && (e.end & kPageMask) == 0);
    if (int err = ChargeAlloc(); err != kOk) {
      return err;
    }
    std::size_t pos = LowerBound(e.start);
    iterator before = pos < iters_.size() ? iters_[pos] : entries_.end();
    if (before != entries_.end()) {
      SIM_ASSERT_MSG(e.end <= before->start, "map entry overlap on insert");
    }
    iterator ins = entries_.insert(before, e);
    IndexInsert(pos, e.start, ins);
    InvalidateHints();
    if (out != nullptr) {
      *out = ins;
    }
    return kOk;
  }

  // Split the entry at `va` so that an entry boundary exists there; `it`
  // keeps the tail. Counts a fragmentation event. Both halves share the
  // amap/object (caller handles reference bumps) with adjusted offsets.
  iterator ClipStart(iterator it, Vaddr va) {
    SIM_ASSERT(va > it->start && va < it->end);
    SIM_ASSERT((va & kPageMask) == 0);
    int err = ChargeAlloc(/*for_clip=*/true);
    SIM_POOL_FATAL_OK("unreachable: every clipping range op holds a ClipReservation");
    SIM_ASSERT_MSG(err == kOk, "map entry pool exhausted during clip");
    ++machine_.stats().map_entry_fragmentations;
    Entry front = *it;
    front.end = va;
    it->AdvanceOffsets((va - it->start) >> kPageShift);
    it->start = va;
    iterator fit = entries_.insert(it, front);
    std::size_t pos = IndexOfExact(front.start);
    iters_[pos] = fit;  // the old start slot now names the front half
    IndexInsert(pos + 1, va, it);
    InvalidateHints();
    return it;
  }

  void ClipEnd(iterator it, Vaddr va) {
    SIM_ASSERT(va > it->start && va < it->end);
    SIM_ASSERT((va & kPageMask) == 0);
    int err = ChargeAlloc(/*for_clip=*/true);
    SIM_POOL_FATAL_OK("unreachable: every clipping range op holds a ClipReservation");
    SIM_ASSERT_MSG(err == kOk, "map entry pool exhausted during clip");
    ++machine_.stats().map_entry_fragmentations;
    Entry back = *it;
    back.AdvanceOffsets((va - it->start) >> kPageShift);
    back.start = va;
    it->end = va;
    iterator bit = entries_.insert(std::next(it), back);
    IndexInsert(IndexOfExact(it->start) + 1, va, bit);
    InvalidateHints();
  }

  void EraseEntry(iterator it) {
    machine_.Charge(machine_.cost().map_entry_free_ns);
    IndexErase(IndexOfExact(it->start));
    entries_.erase(it);
    InvalidateHints();
    free_hint_valid_ = false;  // a hole opened (or widened)
  }

  EntryList& entries() { return entries_; }
  std::size_t entry_count() const { return entries_.size(); }
  Vaddr min_addr() const { return min_addr_; }
  Vaddr max_addr() const { return max_addr_; }

  // Test hook: the index must mirror the list exactly.
  bool IndexConsistent() const {
    if (starts_.size() != entries_.size() || iters_.size() != entries_.size()) {
      return false;
    }
    std::size_t i = 0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it, ++i) {
      if (starts_[i] != it->start || iters_[i] != it) {
        return false;
      }
      if (i > 0 && starts_[i - 1] >= starts_[i]) {
        return false;
      }
    }
    return true;
  }

 private:
  // Hint cache geometry: 64 direct-mapped ways keyed by 32 KB granule.
  static constexpr std::size_t kHintWays = 64;
  static constexpr std::uint64_t kHintGranuleShift = kPageShift + 3;
  struct HintSlot {
    std::uint64_t gen = 0;  // valid iff == hint_gen_
    std::uint64_t key = 0;  // va >> kHintGranuleShift
    iterator it{};
    std::size_t rank = 0;
  };

  // Record a successful lookup in both the single-entry hint and the
  // granule-keyed cache slot for `va`.
  void RememberHint(Vaddr va, iterator it, std::size_t rank) {
    hint_valid_ = true;
    hint_it_ = it;
    hint_rank_ = rank;
    const std::uint64_t key = va >> kHintGranuleShift;
    HintSlot& slot = hint_cache_[key & (kHintWays - 1)];
    slot.gen = hint_gen_;
    slot.key = key;
    slot.it = it;
    slot.rank = rank;
  }

  // Every mutation shifts ranks/extents: drop the single-entry hint and,
  // by bumping the generation, every cache slot at once.
  void InvalidateHints() {
    hint_valid_ = false;
    ++hint_gen_;
  }

  void ChargeProbes(std::size_t probes) {
    machine_.stats().map_lookup_probes += probes;
    machine_.Charge(machine_.cost().map_entry_scan_ns * static_cast<Nanoseconds>(probes));
  }

  // A clip allocation may use reserved headroom (its ClipReservation
  // guaranteed `size + 2 <= max` at grant time); a normal insert must
  // leave every outstanding reservation intact.
  int ChargeAlloc(bool for_clip = false) {
    if (max_entries_ != 0) {
      std::size_t floor = for_clip ? 0 : reserved_;
      if (entries_.size() + floor >= max_entries_) {
        return kErrMapEntryPool;
      }
    }
    machine_.Charge(machine_.cost().map_entry_alloc_ns);
    ++machine_.stats().map_entries_allocated;
    return kOk;
  }

  // First index whose start is > va.
  std::size_t UpperBound(Vaddr va) const {
    return static_cast<std::size_t>(
        std::upper_bound(starts_.begin(), starts_.end(), va) - starts_.begin());
  }
  // First index whose start is >= va.
  std::size_t LowerBound(Vaddr va) const {
    return static_cast<std::size_t>(
        std::lower_bound(starts_.begin(), starts_.end(), va) - starts_.begin());
  }
  std::size_t IndexOfExact(Vaddr start) const {
    std::size_t pos = LowerBound(start);
    SIM_ASSERT_MSG(pos < starts_.size() && starts_[pos] == start, "map index out of sync");
    return pos;
  }
  void IndexInsert(std::size_t pos, Vaddr start, iterator it) {
    starts_.insert(starts_.begin() + static_cast<std::ptrdiff_t>(pos), start);
    iters_.insert(iters_.begin() + static_cast<std::ptrdiff_t>(pos), it);
  }
  void IndexErase(std::size_t pos) {
    starts_.erase(starts_.begin() + static_cast<std::ptrdiff_t>(pos));
    iters_.erase(iters_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  Machine& machine_;
  Vaddr min_addr_;
  Vaddr max_addr_;
  std::size_t max_entries_;
  std::size_t reserved_ = 0;  // outstanding ClipReservation headroom
  // Fallback slab storage for entry nodes when no shared pool was passed.
  // Lazy (no arena chunk until the first entry), and declared before
  // entries_ so the list's nodes die first.
  PoolResource own_pool_;
  EntryList entries_;
  // Flat sorted index over the list: starts_[i] == iters_[i]->start. A
  // binary-searched array beats a pointer-chasing tree at these sizes and
  // keeps rank (the modeled probe count) a byproduct of the search.
  std::vector<Vaddr> starts_;
  std::vector<iterator> iters_;
  // The map lock (rank kMap): charges map_lock_ns per acquire, mirrors the
  // legacy stats counters, and participates in the global rank validator.
  SimLock lock_;
  // Last-lookup hint: entry + its modeled rank at the time of the hit.
  bool hint_valid_ = false;
  iterator hint_it_{};
  std::size_t hint_rank_ = 0;
  // Direct-mapped hint cache (see header comment). Slots are validated by
  // generation stamp; stale iterators are never dereferenced because any
  // mutation bumps hint_gen_ first.
  std::uint64_t hint_gen_ = 1;
  std::array<HintSlot, kHintWays> hint_cache_{};
  // Free-space hint (see invalidation rules above). FindSpace is logically
  // const — the hint is a pure accelerator, hence mutable.
  mutable bool free_hint_valid_ = false;
  mutable Vaddr free_hint_from_ = 0;
  mutable Vaddr free_hint_result_ = 0;
  mutable std::uint64_t free_hint_len_ = 0;
};

}  // namespace sim

#endif  // SRC_SIM_ADDR_MAP_H_
