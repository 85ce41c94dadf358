// Unit tests for the shared timed-plan core (src/sim/event_plan.h): the
// spec splitter, the integer and @TIME lexer — including rejection of
// values that do not fit in 64 bits, which used to wrap silently — and the
// Timeline cursor behind the pressure and memory-fault engines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/chaos.h"
#include "src/sim/event_plan.h"
#include "src/sim/fault.h"
#include "src/sim/pressure.h"

namespace {

constexpr std::uint64_t kU64Max = ~std::uint64_t{0};

TEST(EventPlanTest, SplitterSkipsBlankSegmentsAndKeepsOthersUntrimmed) {
  EXPECT_TRUE(sim::SplitPlanSpec("").empty());
  EXPECT_TRUE(sim::SplitPlanSpec(" ; ;\t").empty());
  EXPECT_EQ((std::vector<std::string>{"@1ms a", " @2ms b "}),
            sim::SplitPlanSpec("@1ms a; ; @2ms b ;"));
}

TEST(EventPlanTest, WholeStringNumbersAndDurations) {
  std::uint64_t v = 7;
  EXPECT_TRUE(sim::ParseUint("18446744073709551615", &v));
  EXPECT_EQ(kU64Max, v);
  v = 7;
  EXPECT_FALSE(sim::ParseUint("18446744073709551616", &v));
  EXPECT_FALSE(sim::ParseUint("", &v));
  EXPECT_FALSE(sim::ParseUint("12x", &v));
  EXPECT_EQ(7u, v) << "a failed parse leaves the output alone";

  sim::Nanoseconds t = 0;
  EXPECT_TRUE(sim::ParseDuration("5", &t));
  EXPECT_EQ(5u, t);
  EXPECT_TRUE(sim::ParseDuration("5us", &t));
  EXPECT_EQ(5'000u, t);
  EXPECT_TRUE(sim::ParseDuration("5ms", &t));
  EXPECT_EQ(5'000'000u, t);
  EXPECT_TRUE(sim::ParseDuration("5s", &t));
  EXPECT_EQ(5'000'000'000u, t);
  EXPECT_TRUE(sim::ParseDuration("18446744073s", &t));
  EXPECT_FALSE(sim::ParseDuration("18446744074s", &t)) << "TIME x unit overflows";
  EXPECT_FALSE(sim::ParseDuration("5m", &t));
}

TEST(EventPlanTest, PressurePlanRejectsOverflowingTimeAndAmount) {
  sim::PressurePlan plan;
  std::string err;
  // 2^64 + 1 used to wrap to an event at 1 ns.
  EXPECT_FALSE(sim::ParsePressurePlan("@18446744073709551617 phys-=4", &plan, &err));
  EXPECT_NE(std::string::npos, err.find("time out of range")) << err;
  err.clear();
  EXPECT_FALSE(sim::ParsePressurePlan("@18446744074s phys-=4", &plan, &err));
  EXPECT_NE(std::string::npos, err.find("time out of range")) << err;
  err.clear();
  EXPECT_FALSE(sim::ParsePressurePlan("@1ms phys-=18446744073709551616", &plan, &err));
  EXPECT_NE(std::string::npos, err.find("amount out of range")) << err;
  // The largest representable values still parse.
  ASSERT_TRUE(sim::ParsePressurePlan("@18446744073709551615 swap=18446744073709551615", &plan,
                                     &err))
      << err;
  ASSERT_EQ(1u, plan.events.size());
  EXPECT_EQ(kU64Max, plan.events[0].at);
  EXPECT_EQ(kU64Max, plan.events[0].amount);
}

TEST(EventPlanTest, MemFaultPlanRejectsOverflowingTimePfnAndCount) {
  sim::MemFaultPlan plan;
  std::string err;
  // 2^64 + 42 used to poison pfn 42.
  EXPECT_FALSE(sim::ParseMemFaultPlan("@1ms poison 18446744073709551658", &plan, &err));
  EXPECT_NE(std::string::npos, err.find("pfn out of range")) << err;
  err.clear();
  EXPECT_FALSE(sim::ParseMemFaultPlan("@1ms poison random:18446744073709551616", &plan, &err));
  EXPECT_NE(std::string::npos, err.find("count out of range")) << err;
  err.clear();
  EXPECT_FALSE(sim::ParseMemFaultPlan("@99999999999999999999ms poison 1", &plan, &err));
  EXPECT_NE(std::string::npos, err.find("time out of range")) << err;
  ASSERT_TRUE(sim::ParseMemFaultPlan("@10ms poison 42; @2s poison random:3", &plan, &err)) << err;
  ASSERT_EQ(2u, plan.events.size());
  EXPECT_EQ(42u, plan.events[0].pfn);
  EXPECT_EQ(2'000'000'000u, plan.events[1].at);
}

TEST(EventPlanTest, ChaosSpanRejectsOverflow) {
  sim::ChaosSpec spec;
  std::string err;
  EXPECT_FALSE(sim::ParseChaosSpec("io=1:span=18446744073709551617", &spec, &err));
  EXPECT_NE(std::string::npos, err.find("bad storm span")) << err;
  EXPECT_FALSE(sim::ParseChaosSpec("io=1:span=18446744074s", &spec, &err));
  EXPECT_NE(std::string::npos, err.find("bad storm span")) << err;
  EXPECT_FALSE(sim::ParseChaosSpec("io=18446744073709551616", &spec, &err));
  EXPECT_FALSE(sim::ParseChaosSpec("io=1:seed=18446744073709551616", &spec, &err));
  ASSERT_TRUE(sim::ParseChaosSpec("io=1:span=18446744073s", &spec, &err)) << err;
  EXPECT_EQ(18'446'744'073'000'000'000u, spec.span);
}

struct TestEvent {
  sim::Nanoseconds at = 0;
  int id = 0;
};

TEST(EventPlanTest, TimelineAppliesDueEventsInTimeThenSpecOrder) {
  sim::Timeline<TestEvent> tl;
  EXPECT_TRUE(tl.empty());
  EXPECT_FALSE(tl.Due(kU64Max));
  tl.Set({{30, 0}, {10, 1}, {30, 2}, {10, 3}, {50, 4}});
  EXPECT_EQ(5u, tl.pending());
  EXPECT_FALSE(tl.Due(9));
  std::vector<int> seen;
  tl.PopDue(30, [&](const TestEvent& ev) {
    seen.push_back(ev.id);
    EXPECT_EQ(4u - seen.size() + 1, tl.pending()) << "cursor moves before the event runs";
  });
  EXPECT_EQ((std::vector<int>{1, 3, 0, 2}), seen);
  EXPECT_EQ(1u, tl.pending());
  EXPECT_TRUE(tl.Due(50));
  tl.Set({});
  EXPECT_TRUE(tl.empty());
  EXPECT_EQ(0u, tl.pending());
}

}  // namespace
