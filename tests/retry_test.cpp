// sim::RetryWithBackoff unit tests: the shared bounded retry-with-backoff
// schedule used by both VMs' allocation paths, the kernel's fault-recovery
// path, the pageout-retry loops, and poison refetch. The charge sequence
// (backoff_ns << attempt before each metered re-attempt) is load-bearing —
// it is what keeps the refactored callers byte-identical to the loops they
// replaced — so the tests pin it against the virtual clock.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/machine.h"
#include "src/sim/retry.h"

namespace {

TEST(RetryTest, StopsAtFirstSuccessAndCountsMeteredAttempts) {
  sim::Machine m;
  std::uint64_t counter = 0;
  int calls = 0;
  std::vector<int> recover_args;
  bool ok = sim::RetryWithBackoff(
      m, {5, 100, &counter}, [&] { return ++calls == 3; },
      [&](int i) { recover_args.push_back(i); });
  EXPECT_TRUE(ok);
  EXPECT_EQ(3, calls);
  EXPECT_EQ(3u, counter);
  EXPECT_EQ((std::vector<int>{0, 1, 2}), recover_args);
  // Charges double per attempt: 100 + 200 + 400.
  EXPECT_EQ(700, m.clock().now());
}

TEST(RetryTest, ExhaustedScheduleReturnsFalse) {
  sim::Machine m;
  std::uint64_t counter = 0;
  bool ok = sim::RetryWithBackoff(m, {4, 10, &counter}, [] { return false; }, [](int) {});
  EXPECT_FALSE(ok);
  EXPECT_EQ(4u, counter);
  // 10 + 20 + 40 + 80.
  EXPECT_EQ(150, m.clock().now());
}

TEST(RetryTest, ZeroRetriesIsAFreeNoOp) {
  sim::Machine m;
  std::uint64_t counter = 0;
  int calls = 0;
  bool ok = sim::RetryWithBackoff(m, {0, 1000, &counter}, [&] { ++calls; return true; },
                                  [](int) {});
  EXPECT_FALSE(ok);  // op never attempted: the caller owns the initial tries
  EXPECT_EQ(0, calls);
  EXPECT_EQ(0u, counter);
  EXPECT_EQ(0, m.clock().now());
}

TEST(RetryTest, NullCounterCountsNothing) {
  sim::Machine m;
  int calls = 0;
  bool ok = sim::RetryWithBackoff(m, {2, 5, nullptr}, [&] { return ++calls == 2; }, [](int) {});
  EXPECT_TRUE(ok);
  EXPECT_EQ(2, calls);
  EXPECT_EQ(15, m.clock().now());  // 5 + 10
}

TEST(RetryTest, RecoverRunsBeforeEachAttempt) {
  sim::Machine m;
  bool recovered = false;
  bool ok = sim::RetryWithBackoff(
      m, {1, 1, nullptr}, [&] { return recovered; }, [&](int) { recovered = true; });
  EXPECT_TRUE(ok) << "recover must run before the attempt it precedes";
}

TEST(RetryTest, PageoutIoRetriesOnlyEioOnThePageoutSchedule) {
  sim::Machine m;
  const sim::Nanoseconds backoff = m.cost().io_retry_backoff_ns;
  int calls = 0;
  // Two EIOs, then success: two metered retries, backoff 1x + 2x.
  int err = sim::RetryPageoutIo(m, 5, [&] { return ++calls < 3 ? sim::kErrIO : sim::kOk; });
  EXPECT_EQ(sim::kOk, err);
  EXPECT_EQ(3, calls);
  EXPECT_EQ(2u, m.stats().pageout_retries);
  EXPECT_EQ(backoff * 3, m.clock().now());

  // A non-EIO error is final: no retry, no charge.
  calls = 0;
  err = sim::RetryPageoutIo(m, 5, [&] { ++calls; return sim::kErrNoSwap; });
  EXPECT_EQ(sim::kErrNoSwap, err);
  EXPECT_EQ(1, calls);
  EXPECT_EQ(2u, m.stats().pageout_retries);

  // A dead device exhausts the budget and reports the last EIO.
  calls = 0;
  const sim::Nanoseconds before = m.clock().now();
  err = sim::RetryPageoutIo(m, 2, [&] { ++calls; return sim::kErrIO; });
  EXPECT_EQ(sim::kErrIO, err);
  EXPECT_EQ(3, calls);
  EXPECT_EQ(4u, m.stats().pageout_retries);
  EXPECT_EQ(backoff * 3, m.clock().now() - before);
}

}  // namespace
