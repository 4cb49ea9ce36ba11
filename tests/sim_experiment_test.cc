#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "test_util.h"

namespace reqblock {
namespace {

WorkloadProfile tiny_profile(std::uint64_t seed) {
  WorkloadProfile p;
  p.name = "tiny";
  p.total_requests = 4000;
  p.seed = seed;
  p.hot_extents = 256;
  p.cold_stream_pages = 1 << 15;
  return p;
}

SimOptions tiny_options(const std::string& policy) {
  SimOptions o;
  o.ssd = testing::tiny_ssd();
  o.policy.name = policy;
  o.policy.capacity_pages = 256;
  o.policy.pages_per_block = o.ssd.pages_per_block;
  o.cache.capacity_pages = 256;
  return o;
}

TEST(ExperimentTest, ResultsComeBackInCaseOrder) {
  std::vector<ExperimentCase> cases;
  for (const char* policy : {"lru", "bplru", "vbbms", "reqblock"}) {
    cases.push_back({tiny_profile(3), tiny_options(policy), policy});
  }
  const auto results = run_cases(cases, 4);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].policy_name, "LRU");
  EXPECT_EQ(results[1].policy_name, "BPLRU");
  EXPECT_EQ(results[2].policy_name, "VBBMS");
  EXPECT_EQ(results[3].policy_name, "Req-block");
}

TEST(ExperimentTest, ParallelEqualsSerial) {
  std::vector<ExperimentCase> cases;
  for (int i = 0; i < 6; ++i) {
    cases.push_back({tiny_profile(static_cast<std::uint64_t>(i)),
                     tiny_options(i % 2 == 0 ? "lru" : "reqblock"), ""});
  }
  const auto serial = run_cases(cases, 1);
  const auto parallel = run_cases(cases, 6);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].cache.page_hits, parallel[i].cache.page_hits);
    EXPECT_EQ(serial[i].flash.host_page_writes,
              parallel[i].flash.host_page_writes);
    EXPECT_DOUBLE_EQ(serial[i].response.mean(), parallel[i].response.mean());
  }
}

TEST(ExperimentTest, EmptyCaseListOk) {
  EXPECT_TRUE(run_cases({}, 4).empty());
}

TEST(ExperimentTest, ThrowingCaseBecomesPerCaseStatus) {
  // Regression: a case throwing inside a worker thread used to escape the
  // thread body and std::terminate the whole process. It must come back
  // as a per-case failure status; healthy cases must be unaffected.
  std::vector<ExperimentCase> cases;
  cases.push_back({tiny_profile(1), tiny_options("lru"), "good-a"});
  ExperimentCase bad{tiny_profile(2), tiny_options("reqblock"), "bad"};
  bad.options.fault.program_fail_prob = 1.5;  // validate() rejects this
  cases.push_back(bad);
  cases.push_back({tiny_profile(3), tiny_options("fifo"), "good-b"});

  const auto results = run_cases_nothrow(cases, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_GT(results[0].requests, 0u);
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("program_fail_prob"), std::string::npos);
  EXPECT_EQ(results[1].requests, 0u);
  EXPECT_TRUE(results[2].ok());
  EXPECT_GT(results[2].requests, 0u);

  // The throwing variant reports every failed case, with its label, after
  // all cases finished.
  try {
    run_cases(cases, 3);
    FAIL() << "run_cases should throw when a case fails";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("case 1"), std::string::npos);
    EXPECT_NE(msg.find("bad"), std::string::npos);
    EXPECT_NE(msg.find("program_fail_prob"), std::string::npos);
  }
}

TEST(ExperimentTest, BenchRequestCapEnv) {
  unsetenv("REQBLOCK_BENCH_REQUESTS");
  EXPECT_EQ(bench_request_cap(1234), 1234u);
  setenv("REQBLOCK_BENCH_REQUESTS", "777", 1);
  EXPECT_EQ(bench_request_cap(1234), 777u);
  // A malformed value is refused, never replaced by the fallback.
  for (const char* bad : {"garbage", "5000x"}) {
    setenv("REQBLOCK_BENCH_REQUESTS", bad, 1);
    try {
      bench_request_cap(1234);
      FAIL() << "accepted REQBLOCK_BENCH_REQUESTS=" << bad;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("REQBLOCK_BENCH_REQUESTS"), std::string::npos);
      EXPECT_NE(msg.find(bad), std::string::npos);
    }
  }
  unsetenv("REQBLOCK_BENCH_REQUESTS");
}

}  // namespace
}  // namespace reqblock
