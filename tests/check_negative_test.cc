// Negative tests: the failure paths of REQB_CHECK / REQB_CHECK_MSG /
// REQB_DCHECK. Checks raise std::logic_error (not abort), so the "death
// tests" are EXPECT_THROW tests — simpler and sanitizer-friendly. The
// misuse guards of SlotList are tested beside it, in slot_map_test.cc.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/check.h"

namespace reqblock {
namespace {

// The whole point of the REQBLOCK_DCHECKS build fix: debug checks must be
// live in every test build, including the default RelWithDebInfo
// configuration that defines NDEBUG (which used to compile them out).
static_assert(kDchecksEnabled,
              "test binaries must be compiled with REQB_DCHECK enabled");

TEST(CheckMacros, CheckPassesOnTrue) {
  EXPECT_NO_THROW(REQB_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(REQB_CHECK_MSG(true, "never shown"));
}

TEST(CheckMacros, CheckThrowsLogicErrorWithExpressionAndLocation) {
  try {
    REQB_CHECK(2 + 2 == 5);
    FAIL() << "REQB_CHECK(false) did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("check_negative_test.cc"), std::string::npos)
        << what;
  }
}

TEST(CheckMacros, CheckMsgCarriesTheMessage) {
  try {
    REQB_CHECK_MSG(false, "cache and policy capacity must agree");
    FAIL() << "REQB_CHECK_MSG(false) did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what())
                  .find("cache and policy capacity must agree"),
              std::string::npos);
  }
}

TEST(CheckMacros, CheckMsgEvaluatesMessageLazily) {
  // The message expression must not run on the success path.
  bool evaluated = false;
  auto message = [&evaluated] {
    evaluated = true;
    return std::string("expensive");
  };
  REQB_CHECK_MSG(true, message());
  EXPECT_FALSE(evaluated);
}

TEST(CheckMacros, DcheckFiresInTestBuilds) {
  // Proves the dead-code trap is gone: this was a silent no-op when
  // REQB_DCHECK keyed off NDEBUG under the default build type.
  EXPECT_THROW(REQB_DCHECK(false), std::logic_error);
  EXPECT_NO_THROW(REQB_DCHECK(true));
}

TEST(CheckMacros, CheckEvaluatesExpressionExactlyOnce) {
  int calls = 0;
  auto count = [&calls] {
    ++calls;
    return true;
  };
  REQB_CHECK(count());
  EXPECT_EQ(calls, 1);
  REQB_DCHECK(count());
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace reqblock
