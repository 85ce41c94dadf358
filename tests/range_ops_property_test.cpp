// Property test for the range operations on both VM systems: random
// mmap(MAP_FIXED)/munmap/mprotect/minherit/mlock/munlock sequences over
// ranges that cross entry boundaries and start, end or lie in holes, some
// of them mapped with a read-only max_prot that refuses mprotect rw, run
// against a flat per-page reference model. After every operation each page
// of the region is checked for accessibility (read and write), the pmap
// wired bit, the frame's wire count and mincore's answer; at the end a fork
// checks what the child inherited, and parent writes after the fork check
// that mincore still sees pages left one layer down (BSD's backing object).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/harness/world.h"
#include "src/sim/rng.h"

namespace {

using harness::VmKind;
using harness::World;

constexpr std::uint64_t kPages = 24;
constexpr sim::Vaddr kBase = 0x1000'0000;

constexpr sim::Vaddr PageVa(std::uint64_t i) { return kBase + i * sim::kPageSize; }

struct PageModel {
  bool mapped = false;
  bool writable = true;
  bool inherit_none = false;
  bool max_read = false;  // mapped with max_prot r: mprotect rw is refused
  int wired = 0;  // mlock nesting depth, as the entry's wired_count counts it
};

using Model = std::array<PageModel, kPages>;

class RangeOpsPropertyTest : public ::testing::TestWithParam<std::tuple<VmKind, std::uint64_t>> {
 protected:
  // Compare every page of the region against the model.
  void CheckPages(const Model& model, const std::string& where) {
    std::vector<std::byte> b(1);
    for (std::uint64_t i = 0; i < kPages; ++i) {
      const PageModel& m = model[i];
      sim::Vaddr va = PageVa(i);
      SCOPED_TRACE(where + " page " + std::to_string(i));
      EXPECT_EQ(m.mapped ? sim::kOk : sim::kErrFault, w.kernel->ReadMem(p, va, b));
      int want_write = !m.mapped ? sim::kErrFault : m.writable ? sim::kOk : sim::kErrProt;
      EXPECT_EQ(want_write, w.kernel->TouchWrite(p, va, 1, std::byte{0x5a}));
      // Both touches faulted a mapped page in.
      std::vector<bool> resident;
      EXPECT_EQ(m.mapped ? sim::kOk : sim::kErrFault,
                w.kernel->Mincore(p, va, sim::kPageSize, &resident));
      if (m.mapped) {
        EXPECT_EQ(std::vector<bool>{true}, resident);
      }
      auto pte = p->as->pmap().Extract(va);
      if (m.wired > 0) {
        ASSERT_TRUE(pte.has_value());
        EXPECT_TRUE(pte->wired);
        EXPECT_EQ(1, w.pm.PageAt(pte->pfn)->wire_count);
      } else if (pte.has_value()) {
        EXPECT_FALSE(pte->wired);
        EXPECT_EQ(0, w.pm.PageAt(pte->pfn)->wire_count);
      }
    }
  }

  World w{std::get<0>(GetParam())};
  kern::Proc* p = w.kernel->Spawn();
};

TEST_P(RangeOpsPropertyTest, RandomRangeOpsMatchThePerPageModel) {
  sim::Rng rng(std::get<1>(GetParam()));
  Model model{};
  kern::MapAttrs fixed;
  fixed.fixed = true;
  // The top third starts out as one max_prot r mapping.
  constexpr std::uint64_t kMaxReadFrom = kPages * 2 / 3;
  kern::MapAttrs max_read = fixed;
  max_read.prot = sim::Prot::kRead;
  max_read.max_prot = sim::Prot::kRead;
  sim::Vaddr a = kBase;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, kMaxReadFrom * sim::kPageSize, fixed));
  a = PageVa(kMaxReadFrom);
  ASSERT_EQ(sim::kOk,
            w.kernel->MmapAnon(p, &a, (kPages - kMaxReadFrom) * sim::kPageSize, max_read));
  for (std::uint64_t i = 0; i < kPages; ++i) {
    bool capped = i >= kMaxReadFrom;
    model[i] = PageModel{.mapped = true, .writable = !capped, .max_read = capped};
  }

  constexpr int kOps = 160;
  for (int op = 0; op < kOps; ++op) {
    std::uint64_t lo = rng.Below(kPages);
    std::uint64_t n = 1 + rng.Below(std::min<std::uint64_t>(8, kPages - lo));
    sim::Vaddr va = PageVa(lo);
    std::uint64_t len = n * sim::kPageSize;
    auto range = [&](auto fn) {
      for (std::uint64_t i = lo; i < lo + n; ++i) {
        if (model[i].mapped) {
          fn(model[i]);
        }
      }
    };
    std::string what;
    switch (rng.Below(6)) {
      case 0: {
        bool capped = rng.Below(4) == 0;
        what = capped ? "mmap max r" : "mmap";
        bool any = std::any_of(model.begin() + lo, model.begin() + lo + n,
                               [](const PageModel& m) { return m.mapped; });
        sim::Vaddr at = va;
        ASSERT_EQ(any ? sim::kErrExist : sim::kOk,
                  w.kernel->MmapAnon(p, &at, len, capped ? max_read : fixed));
        if (!any) {
          std::fill(model.begin() + lo, model.begin() + lo + n,
                    PageModel{.mapped = true, .writable = !capped, .max_read = capped});
        }
        break;
      }
      case 1:
        what = "munmap";
        ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, va, len));
        std::fill(model.begin() + lo, model.begin() + lo + n, PageModel{});
        break;
      case 2: {
        bool rw = rng.Below(2) == 0;
        what = rw ? "mprotect rw" : "mprotect r";
        // All or nothing: one refusing page leaves the whole range as it was.
        bool refused = rw && std::any_of(model.begin() + lo, model.begin() + lo + n,
                                         [](const PageModel& m) { return m.max_read; });
        ASSERT_EQ(refused ? sim::kErrProt : sim::kOk,
                  w.kernel->Mprotect(p, va, len, rw ? sim::Prot::kReadWrite : sim::Prot::kRead));
        if (!refused) {
          range([&](PageModel& m) { m.writable = rw; });
        }
        break;
      }
      case 3: {
        bool none = rng.Below(2) == 0;
        what = none ? "minherit none" : "minherit copy";
        ASSERT_EQ(sim::kOk, w.kernel->Minherit(p, va, len,
                                               none ? sim::Inherit::kNone : sim::Inherit::kCopy));
        range([&](PageModel& m) { m.inherit_none = none; });
        break;
      }
      case 4:
        what = "mlock";
        if (!model[lo].mapped) {
          ASSERT_EQ(sim::kErrFault, w.kernel->Mlock(p, va, len));
        } else {
          ASSERT_EQ(sim::kOk, w.kernel->Mlock(p, va, len));
          range([](PageModel& m) { ++m.wired; });
        }
        break;
      default:
        what = "munlock";
        ASSERT_EQ(sim::kOk, w.kernel->Munlock(p, va, len));
        range([](PageModel& m) { m.wired = std::max(0, m.wired - 1); });
        break;
    }
    CheckPages(model, "op " + std::to_string(op) + " " + what + " [" + std::to_string(lo) +
                          "," + std::to_string(lo + n) + ")");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
    if (op % 16 == 0) {
      w.vm->CheckInvariants();
    }
  }

  // What the child inherits: every mapped page except those marked none,
  // each still resident.
  kern::Proc* c = w.kernel->Fork(p);
  std::vector<std::byte> b(1);
  std::vector<bool> resident;
  for (std::uint64_t i = 0; i < kPages; ++i) {
    bool inherited = model[i].mapped && !model[i].inherit_none;
    EXPECT_EQ(inherited ? sim::kOk : sim::kErrFault, w.kernel->ReadMem(c, PageVa(i), b))
        << "page " << i;
    if (inherited) {
      ASSERT_EQ(sim::kOk, w.kernel->Mincore(c, PageVa(i), sim::kPageSize, &resident));
      EXPECT_EQ(std::vector<bool>{true}, resident) << "child page " << i;
    }
  }
  // The parent writes every other writable page: the copy lands on top, and
  // the pages between the writes stay one layer down (in BSD, the backing
  // object below the new shadow). Mincore must see every one of them.
  bool write = true;
  for (std::uint64_t i = 0; i < kPages; ++i) {
    if (model[i].mapped && model[i].writable) {
      if (write) {
        ASSERT_EQ(sim::kOk, w.kernel->TouchWrite(p, PageVa(i), 1, std::byte{0xa5}));
      }
      write = !write;
    }
  }
  for (std::uint64_t i = 0; i < kPages; ++i) {
    if (model[i].mapped) {
      ASSERT_EQ(sim::kOk, w.kernel->Mincore(p, PageVa(i), sim::kPageSize, &resident));
      EXPECT_EQ(std::vector<bool>{true}, resident) << "parent page " << i;
    }
  }
  w.kernel->Exit(c);
  w.vm->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    BothVms, RangeOpsPropertyTest,
    ::testing::Combine(::testing::Values(VmKind::kBsd, VmKind::kUvm),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull)),
    [](const ::testing::TestParamInfo<std::tuple<VmKind, std::uint64_t>>& info) {
      return std::string(harness::VmKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
