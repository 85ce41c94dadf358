// Name-table completeness: every error code and every cost category must
// have a real, distinct name. Names come from the SIM_ERRORS and
// SIM_COST_CATS lists, so a code defined outside its list would print as
// "E???" in dumps and test failure messages; this test turns that into a
// hard failure.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/sim/trace.h"
#include "src/sim/types.h"

namespace {

TEST(ErrNameTest, EveryErrorCodeHasADistinctName) {
  std::set<std::string> seen;
  for (int err = 0; err < sim::kNumErrCodes; ++err) {
    const char* name = sim::ErrName(err);
    ASSERT_NE(nullptr, name) << err;
    EXPECT_STRNE("", name) << err;
    EXPECT_STRNE("E???", name) << "error code " << err << " has no name";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(ErrNameTest, OutOfRangeCodesFallBackToPlaceholder) {
  EXPECT_STREQ("E???", sim::ErrName(sim::kNumErrCodes));
  EXPECT_STREQ("E???", sim::ErrName(-1));
}

TEST(ErrNameTest, PoisonCodeIsNamed) {
  EXPECT_STREQ("EMEMPOISON", sim::ErrName(sim::kErrMemPoison));
}

TEST(ErrNameTest, EveryCostCategoryHasADistinctName) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < sim::kNumCostCats; ++i) {
    const char* name = sim::CostCatName(static_cast<sim::CostCat>(i));
    ASSERT_NE(nullptr, name) << i;
    EXPECT_STRNE("", name) << i;
    EXPECT_STRNE("?", name) << "cost category " << i << " has no name";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(ErrNameTest, PoisonAndAuditCategoriesAreNamed) {
  EXPECT_STREQ("poison", sim::CostCatName(sim::CostCat::kPoison));
  EXPECT_STREQ("audit", sim::CostCatName(sim::CostCat::kAudit));
}

}  // namespace
