// Unit tests for the shared range walker (sim::AddrMap::WalkRange and
// WalkRangeLocked) on a fake entry type, independent of both VM systems:
// when the split hook runs, which entries a visit sees and in what order,
// error and lock handling, holes, the up-front clip reservation, and which
// lookup charge each form makes.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/addr_map.h"
#include "src/sim/machine.h"

namespace {

using sim::kPageSize;
using sim::Vaddr;

// `off` stands in for the amap/object offsets a clip advances; `refs`
// counts the split hook's references so a test can see which half got one.
struct FakeEntry {
  Vaddr start = 0;
  Vaddr end = 0;
  std::uint64_t off = 0;
  int refs = 0;
  int tag = 0;

  void AdvanceOffsets(std::uint64_t pages) { off += pages; }
};

using FakeMap = sim::AddrMap<FakeEntry>;
using Range = std::pair<Vaddr, Vaddr>;

constexpr Vaddr P(std::uint64_t n) { return 0x1000'0000 + n * kPageSize; }

class RangeWalkTest : public ::testing::Test {
 protected:
  // Entries at pages [0,4), [4,8), [10,14) — a hole at [8,10).
  void SetUp() override {
    Add(map, 0, 4);
    Add(map, 4, 8);
    Add(map, 10, 14);
  }

  static void Add(FakeMap& m, std::uint64_t first, std::uint64_t last) {
    FakeEntry e;
    e.start = P(first);
    e.end = P(last);
    ASSERT_EQ(sim::kOk, m.InsertEntry(e));
  }

  // The split hook most tests use: count calls, remember the entry.
  auto Dup() {
    return [this](FakeEntry& e) {
      ++e.refs;
      dups.emplace_back(e.start, e.end);
    };
  }
  auto Record() {
    return [this](FakeMap::iterator it) {
      visits.emplace_back(it->start, it->end);
      return sim::kOk;
    };
  }

  std::vector<Range> Layout() {
    std::vector<Range> out;
    for (const FakeEntry& e : map.entries()) {
      out.emplace_back(e.start, e.end);
    }
    return out;
  }

  sim::Machine machine;
  FakeMap map{machine, P(0), P(64), 0};
  std::vector<Range> dups;
  std::vector<Range> visits;
};

TEST_F(RangeWalkTest, DupRunsOncePerClipAndNeverOnAnAlignedBoundary) {
  // Aligned on both ends: no clip, no dup.
  ASSERT_EQ(sim::kOk, map.WalkRange(P(0), P(8), Dup(), Record()));
  EXPECT_TRUE(dups.empty());
  EXPECT_EQ(3u, map.entry_count());

  // Start clip on [0,4) and end clip on [4,8): one dup each, on the half
  // inside the range.
  ASSERT_EQ(sim::kOk, map.WalkRange(P(1), P(6), Dup(), Record()));
  EXPECT_EQ((std::vector<Range>{{P(1), P(4)}, {P(4), P(6)}}), dups);
  EXPECT_EQ(5u, map.entry_count());
  EXPECT_EQ(P(0), map.entries().front().start);
  EXPECT_EQ(0, map.entries().front().refs);  // the outside half got no reference

  // Both clips inside one entry: two dups on the same (middle) entry.
  dups.clear();
  ASSERT_EQ(sim::kOk, map.WalkRange(P(11), P(12), Dup(), Record()));
  EXPECT_EQ((std::vector<Range>{{P(11), P(14)}, {P(11), P(12)}}), dups);
  auto mid = map.LookupEntry(P(11));
  EXPECT_EQ(2, mid->refs);
  // The clipped halves advanced their offsets.
  EXPECT_EQ(1u, mid->off);
  EXPECT_EQ(2u, map.LookupEntry(P(12))->off);
  EXPECT_TRUE(map.IndexConsistent());
}

TEST_F(RangeWalkTest, VisitSeesOnlyEntriesInsideTheRangeInAddressOrder) {
  ASSERT_EQ(sim::kOk, map.WalkRange(P(2), P(12), Dup(), Record()));
  EXPECT_EQ((std::vector<Range>{{P(2), P(4)}, {P(4), P(8)}, {P(10), P(12)}}), visits);
  EXPECT_EQ((std::vector<Range>{{P(0), P(2)},
                                {P(2), P(4)},
                                {P(4), P(8)},
                                {P(10), P(12)},
                                {P(12), P(14)}}),
            Layout());
}

TEST_F(RangeWalkTest, FirstVisitErrorStopsTheWalkAndUnlocks) {
  int calls = 0;
  int err = map.WalkRange(P(0), P(14), Dup(), [&](FakeMap::iterator it) {
    ++calls;
    it->tag = 1;
    return it->start == P(4) ? sim::kErrProt : sim::kOk;
  });
  EXPECT_EQ(sim::kErrProt, err);
  EXPECT_EQ(2, calls);
  EXPECT_FALSE(map.IsLocked());
  EXPECT_EQ(0, map.LookupEntry(P(10))->tag);  // never reached
}

TEST_F(RangeWalkTest, VisitMayEraseItsEntry) {
  map.Lock();
  int err = map.WalkRangeLocked(
      P(2), P(12), [&] { return map.Seek(P(2)); }, Dup(),
      [&](FakeMap::iterator it) {
        map.EraseEntry(it);
        return sim::kOk;
      });
  map.Unlock();
  EXPECT_EQ(sim::kOk, err);
  EXPECT_EQ((std::vector<Range>{{P(0), P(2)}, {P(12), P(14)}}), Layout());
  EXPECT_TRUE(map.IndexConsistent());
}

TEST_F(RangeWalkTest, RangeStartingInAHoleBeginsAtTheNextEntry) {
  ASSERT_EQ(sim::kOk, map.WalkRange(P(8), P(12), Dup(), Record()));
  EXPECT_EQ((std::vector<Range>{{P(10), P(12)}}), visits);
  EXPECT_EQ((std::vector<Range>{{P(10), P(12)}}), dups);  // end clip only
}

TEST_F(RangeWalkTest, RangeThatIsAllHoleVisitsNothing) {
  std::uint64_t frags = machine.stats().map_entry_fragmentations;
  ASSERT_EQ(sim::kOk, map.WalkRange(P(8), P(10), Dup(), Record()));
  ASSERT_EQ(sim::kOk, map.WalkRange(P(20), P(30), Dup(), Record()));
  EXPECT_TRUE(visits.empty());
  EXPECT_TRUE(dups.empty());
  EXPECT_EQ(3u, map.entry_count());
  EXPECT_EQ(frags, machine.stats().map_entry_fragmentations);
}

TEST_F(RangeWalkTest, EmptyRangeInsideAnEntryChangesNothing) {
  ASSERT_EQ(sim::kOk, map.WalkRange(P(2), P(2), Dup(), Record()));
  EXPECT_TRUE(visits.empty());
  EXPECT_TRUE(dups.empty());
  EXPECT_EQ(3u, map.entry_count());
}

TEST(RangeWalkEmptyMapTest, EmptyMapVisitsNothing) {
  sim::Machine machine;
  FakeMap map(machine, P(0), P(64), 0);
  int calls = 0;
  int err = map.WalkRange(
      P(1), P(9), [&](FakeEntry&) { ++calls; },
      [&](FakeMap::iterator) {
        ++calls;
        return sim::kOk;
      });
  EXPECT_EQ(sim::kOk, err);
  EXPECT_EQ(0, calls);
  EXPECT_FALSE(map.IsLocked());
  EXPECT_EQ(0u, map.entry_count());
}

TEST(RangeWalkReservationTest, RefusalReturnsBeforeAnyEntryChanges) {
  sim::Machine machine;
  // Room for exactly the three entries: any clip would need two more.
  FakeMap map(machine, P(0), P(64), 3);
  for (std::uint64_t i = 0; i < 3; ++i) {
    FakeEntry e;
    e.start = P(4 * i);
    e.end = P(4 * i + 4);
    ASSERT_EQ(sim::kOk, map.InsertEntry(e));
  }
  bool first_ran = false;
  int calls = 0;
  auto dup = [&](FakeEntry&) { ++calls; };
  auto visit = [&](FakeMap::iterator) {
    ++calls;
    return sim::kOk;
  };
  EXPECT_EQ(sim::kErrMapEntryPool, map.WalkRange(P(1), P(6), dup, visit));
  EXPECT_FALSE(map.IsLocked());
  map.Lock();
  EXPECT_EQ(sim::kErrMapEntryPool, map.WalkRangeLocked(
                                       P(1), P(6),
                                       [&] {
                                         first_ran = true;
                                         return map.Seek(P(1));
                                       },
                                       dup, visit));
  map.Unlock();
  EXPECT_FALSE(first_ran);  // the caller's pre-pass never runs either
  EXPECT_EQ(0, calls);
  EXPECT_EQ(3u, map.entry_count());
  EXPECT_EQ(2u, machine.stats().map_entry_pool_denials);
  EXPECT_EQ(0u, map.reserved_entries());
  // A walk on entry boundaries needs no headroom and goes through.
  EXPECT_EQ(sim::kOk, map.WalkRange(P(4), P(8), dup, visit));
  EXPECT_EQ(1, calls);
}

TEST_F(RangeWalkTest, LockedFormChargesOneLookupOfTheStart) {
  const sim::CostModel& cost = machine.cost();
  // Hit: [10,14) is the third entry, so the modeled scan examines 3.
  std::uint64_t probes = machine.stats().map_lookup_probes;
  sim::Nanoseconds t = machine.clock().now();
  ASSERT_EQ(sim::kOk, map.WalkRange(P(10), P(14), Dup(), Record()));
  EXPECT_EQ(probes + 3, machine.stats().map_lookup_probes);
  EXPECT_EQ(t + cost.map_lock_ns + 3 * cost.map_entry_scan_ns, machine.clock().now());

  // Miss in the hole at page 8: two entries start below it and the scan
  // breaks on the third. The seek that follows is free.
  probes = machine.stats().map_lookup_probes;
  t = machine.clock().now();
  ASSERT_EQ(sim::kOk, map.WalkRange(P(8), P(14), Dup(), Record()));
  EXPECT_EQ(probes + 3, machine.stats().map_lookup_probes);
  EXPECT_EQ(t + cost.map_lock_ns + 3 * cost.map_entry_scan_ns, machine.clock().now());
}

TEST_F(RangeWalkTest, CallerLockedFormChargesNoLookup) {
  map.Lock();
  std::uint64_t probes = machine.stats().map_lookup_probes;
  sim::Nanoseconds t = machine.clock().now();
  ASSERT_EQ(sim::kOk,
            map.WalkRangeLocked(P(0), P(14), [&] { return map.Seek(P(0)); }, Dup(), Record()));
  EXPECT_EQ(probes, machine.stats().map_lookup_probes);
  EXPECT_EQ(t, machine.clock().now());
  EXPECT_TRUE(map.IsLocked());  // the caller's lock is the caller's to drop
  map.Unlock();
  EXPECT_EQ(3u, visits.size());
}

TEST_F(RangeWalkTest, PlaceHonoursFixedAndFindsSpaceOtherwise) {
  Vaddr at = P(8);
  EXPECT_EQ(sim::kOk, map.Place(&at, 2 * kPageSize, /*fixed=*/true));
  EXPECT_EQ(P(8), at);
  at = P(6);
  EXPECT_EQ(sim::kErrExist, map.Place(&at, 2 * kPageSize, /*fixed=*/true));
  EXPECT_EQ(sim::kOk, map.Place(&at, 3 * kPageSize, /*fixed=*/false));
  EXPECT_EQ(P(14), at);  // the 2-page hole at [8,10) is too small
}

}  // namespace
