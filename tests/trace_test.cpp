// Tracing and cost-attribution properties (DESIGN.md §11):
//  - observer-effect freedom: enabling the Tracer changes neither the
//    virtual clock nor any Stats counter of an identical workload
//  - determinism: same seed + same workload => byte-identical trace JSON
//  - the Chrome-trace exporter emits well-formed, schema-stable output
//  - CostBreakdown accounts for every charged nanosecond, by category
//  - the bounded ring drops the oldest events and counts the drops
//  - ReportStats output is locale-independent (satellite: a non-"C"
//    global locale must not corrupt the fixed-precision report)
//  - ClockSpan panics if the clock is Reset() mid-span instead of
//    silently underflowing
#include <gtest/gtest.h>

#include <locale>
#include <sstream>
#include <string>

#include "src/harness/world.h"
#include "src/sim/report.h"

namespace {

using harness::VmKind;
using harness::World;
using harness::WorldConfig;

// A workload touching every instrumented path: anonymous + file mappings,
// COW faults, fork, pagedaemon pressure (pagein/pageout), msync, unmap.
void RunWorkload(World& w) {
  kern::Proc* p = w.kernel->Spawn();
  sim::Vaddr a = 0;
  ASSERT_EQ(sim::kOk, w.kernel->MmapAnon(p, &a, 64 * sim::kPageSize, kern::MapAttrs{}));
  w.kernel->TouchWrite(p, a, 64 * sim::kPageSize, std::byte{0x5a});

  w.fs.CreateFilePattern("/trace_f", 16 * sim::kPageSize);
  sim::Vaddr fa = 0;
  kern::MapAttrs shared;
  shared.shared = true;
  ASSERT_EQ(sim::kOk, w.kernel->Mmap(p, &fa, 16 * sim::kPageSize, "/trace_f", 0, shared));
  w.kernel->TouchWrite(p, fa, 16 * sim::kPageSize, std::byte{0x21});
  ASSERT_EQ(sim::kOk, w.kernel->Msync(p, fa, 16 * sim::kPageSize));

  kern::Proc* c = w.kernel->Fork(p);
  w.kernel->TouchWrite(c, a, 8 * sim::kPageSize, std::byte{0x7e});
  w.vm->PageDaemon(w.pm.free_pages() + 32);
  w.kernel->Exit(c);
  ASSERT_EQ(sim::kOk, w.kernel->Munmap(p, a, 64 * sim::kPageSize));
  w.kernel->Exit(p);
}

struct RunResult {
  sim::Nanoseconds vtime;
  std::string report;      // ReportStats: all counters + the cost breakdown
  std::string trace_json;  // empty when the tracer was off
};

RunResult RunScenario(VmKind kind, bool traced) {
  WorldConfig cfg;
  cfg.ram_pages = 512;  // small enough that the pagedaemon has real work
  World w(kind, cfg);
  if (traced) {
    w.machine.tracer().Enable();
  }
  RunWorkload(w);
  RunResult r;
  r.vtime = w.machine.clock().now();
  std::ostringstream os;
  sim::ReportStats(os, w.machine);
  r.report = os.str();
  if (traced) {
    std::ostringstream ts;
    sim::WriteChromeTrace(ts, w.machine.tracer());
    r.trace_json = ts.str();
    EXPECT_GT(w.machine.tracer().size(), 0u);
  }
  return r;
}

class TraceTest : public ::testing::TestWithParam<VmKind> {};

// The hard requirement of the tracing layer: turning it on must not change
// anything the simulation observes. Virtual time and every counter (the
// report covers all Stats fields and the per-category breakdown) must be
// identical with tracing on and off.
TEST_P(TraceTest, TracingIsObserverEffectFree) {
  RunResult off = RunScenario(GetParam(), /*traced=*/false);
  RunResult on = RunScenario(GetParam(), /*traced=*/true);
  EXPECT_EQ(off.vtime, on.vtime);
  EXPECT_EQ(off.report, on.report);
}

// Same workload, same seed: the exported JSON is byte-identical.
TEST_P(TraceTest, SameSeedTracesAreByteIdentical) {
  RunResult a = RunScenario(GetParam(), /*traced=*/true);
  RunResult b = RunScenario(GetParam(), /*traced=*/true);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_FALSE(a.trace_json.empty());
}

// Schema smoke: the document wraps traceEvents, events carry the Chrome
// phase/ts/cat/name keys, and the VM's fault spans show up by name.
TEST_P(TraceTest, ChromeTraceJsonHasExpectedShape) {
  RunResult r = RunScenario(GetParam(), /*traced=*/true);
  const std::string& j = r.trace_json;
  EXPECT_EQ(0u, j.find("{\"displayTimeUnit\": \"ns\", \"traceEvents\": ["));
  EXPECT_NE(std::string::npos, j.find("\"ph\": \"B\""));
  EXPECT_NE(std::string::npos, j.find("\"ph\": \"E\""));
  EXPECT_NE(std::string::npos, j.find("\"cat\": \"fault\""));
  const char* fault_span = GetParam() == VmKind::kBsd ? "bsd_fault" : "uvm_fault";
  EXPECT_NE(std::string::npos, j.find(fault_span));
  EXPECT_EQ(j.size() - 4, j.rfind("\n]}\n"));  // closed document
}

// Every nanosecond the machine charges lands in exactly one category:
// the breakdown total equals the virtual clock, before and after work.
TEST_P(TraceTest, BreakdownAccountsForAllVirtualTime) {
  WorldConfig cfg;
  cfg.ram_pages = 512;
  World w(GetParam(), cfg);
  EXPECT_EQ(0u, w.machine.breakdown().total_ns());
  RunWorkload(w);
  EXPECT_EQ(static_cast<std::uint64_t>(w.machine.clock().now()),
            w.machine.breakdown().total_ns());
  // The workload exercised the major categories.
  const sim::CostBreakdown& d = w.machine.breakdown();
  EXPECT_GT(d.ns_of(sim::CostCat::kFault), 0u);
  EXPECT_GT(d.ns_of(sim::CostCat::kMap), 0u);
  EXPECT_GT(d.ns_of(sim::CostCat::kPmap), 0u);
  EXPECT_GT(d.ns_of(sim::CostCat::kFork), 0u);
  EXPECT_GT(d.ns_of(sim::CostCat::kPageout), 0u);
}

TEST(TracerRingTest, DisabledTracerRecordsNothing) {
  sim::Tracer t;
  t.SpanBegin(sim::CostCat::kFault, "f", 1);
  t.Instant(sim::CostCat::kIo, "i", 2, 7);
  EXPECT_EQ(0u, t.size());
  EXPECT_FALSE(t.enabled());
}

TEST(TracerRingTest, RingDropsOldestAndCountsDrops) {
  sim::Tracer t;
  t.Enable(/*capacity=*/4);
  static const char* const kNames[] = {"e0", "e1", "e2", "e3", "e4", "e5"};
  for (int i = 0; i < 6; ++i) {
    t.Instant(sim::CostCat::kOther, kNames[i], i, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(4u, t.size());
  EXPECT_EQ(2u, t.dropped());
  // Oldest two (e0, e1) were dropped; ring order resolves oldest-first.
  EXPECT_STREQ("e2", t.at(0).name);
  EXPECT_STREQ("e5", t.at(3).name);
  // The exporter surfaces the drop count as metadata.
  std::ostringstream os;
  sim::WriteChromeTrace(os, t);
  EXPECT_NE(std::string::npos,
            os.str().find("\"trace_dropped_events\", \"args\": {\"value\": 2}"));
}

// Multi-machine merge: each Append gets its own pid and process name, and
// comma placement stays valid across calls.
TEST(TracerRingTest, AppendMergesMachinesWithDistinctPids) {
  sim::Tracer t1;
  sim::Tracer t2;
  t1.Enable(8);
  t2.Enable(8);
  t1.Instant(sim::CostCat::kIo, "a", 10, 1);
  t2.Instant(sim::CostCat::kIo, "b", 20, 2);
  std::ostringstream os;
  sim::OpenChromeTrace(os);
  bool first = true;
  EXPECT_EQ(1u, sim::AppendChromeTraceEvents(os, t1, 1, "one", &first));
  EXPECT_EQ(1u, sim::AppendChromeTraceEvents(os, t2, 2, "two", &first));
  sim::CloseChromeTrace(os);
  std::string j = os.str();
  EXPECT_NE(std::string::npos, j.find("\"args\": {\"name\": \"one\"}"));
  EXPECT_NE(std::string::npos, j.find("\"args\": {\"name\": \"two\"}"));
  EXPECT_NE(std::string::npos, j.find("\"pid\": 2, \"tid\": 0, \"ts\": 0.020"));
  EXPECT_EQ(std::string::npos, j.find(",,"));
}

// A numpunct facet hostile enough to corrupt any locale-sensitive
// formatting: ',' decimal point, '.' thousands grouping every digit.
struct HostileNumpunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\1"; }
};

// Satellite regression: report output must be byte-identical no matter
// what std::locale::global() the embedding program installed.
TEST_P(TraceTest, ReportIsLocaleIndependent) {
  RunResult classic = RunScenario(GetParam(), /*traced=*/false);
  std::locale saved = std::locale::global(std::locale(std::locale::classic(),
                                                      new HostileNumpunct));
  RunResult hostile = RunScenario(GetParam(), /*traced=*/false);
  std::string seconds = sim::FormatSeconds(1234567890);
  std::locale::global(saved);
  EXPECT_EQ(classic.report, hostile.report);
  EXPECT_EQ("1.234568", seconds);
  EXPECT_EQ(std::string::npos, hostile.report.find(','));
  EXPECT_NE(std::string::npos, hostile.report.find("\nfaults "));
}

// Resetting the clock under a live ClockSpan is a bench bug (elapsed()
// would underflow); it must panic loudly instead.
TEST(ClockSpanTest, ResetMidSpanPanics) {
  EXPECT_DEATH(
      {
        sim::Clock clock;
        clock.Advance(100);
        sim::ClockSpan span(clock);
        clock.Advance(50);
        clock.Reset();
        (void)span.elapsed();
      },
      "Clock::Reset\\(\\) while a ClockSpan was live");
}

INSTANTIATE_TEST_SUITE_P(BothVms, TraceTest, ::testing::Values(VmKind::kBsd, VmKind::kUvm),
                         [](const ::testing::TestParamInfo<VmKind>& param_info) {
                           return harness::VmKindName(param_info.param);
                         });

}  // namespace
