// The knob-table walks (src/util/knobs.h) as the drivers reach them.
//
// The per-block CLI tests (AgingCliTest, IntegrityCliTest, ...) check that
// each flag lands in the right field. These check what every table flag
// refuses: malformed text, negatives, integers too wide for the field,
// durations that overflow SimTime, and values typed after a switch. Each
// refusal must be a std::invalid_argument whose message names the flag.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "host/overload.h"
#include "host/tenant.h"
#include "telemetry/telemetry.h"
#include "trace/synthetic.h"
#include "util/args.h"
#include "util/knobs.h"

namespace reqblock {
namespace {

ArgParser parse(const std::vector<std::string>& words) {
  std::vector<const char*> argv{"prog"};
  for (const std::string& w : words) argv.push_back(w.c_str());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

/// Values every flag of `table` must refuse, by the field's type and the
/// row's syntax.
template <typename S, typename Row>
std::vector<std::string> bad_values(const Row& row) {
  using T = std::remove_cvref_t<decltype(row.get(std::declval<S&>()))>;
  std::vector<std::string> bad{"1x", "-1", ""};
  if constexpr (std::is_same_v<T, bool>) {
    bad.push_back("false");
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    bad.push_back("4294967296");
  } else if constexpr (std::is_same_v<T, SimTime>) {
    // Overflows SimTime once scaled to nanoseconds.
    bad.push_back(row.syntax.fractions ? "1e300" : "18446744073709551615");
  }
  return bad;
}

/// Feeds each bad value of each flag of `table` (after `lead`) to `apply`
/// and expects a refusal naming the flag. Returns the flags probed.
template <typename S, typename Table, typename Apply>
int expect_every_flag_strict(const Table& table, Apply apply,
                             const std::string& prefix = "",
                             const std::vector<std::string>& lead = {}) {
  int probed = 0;
  std::apply(
      [&](const auto&... row) {
        const auto probe = [&](const auto& r) {
          if (r.flag == nullptr) return;
          const std::string flag = "--" + prefix + r.flag;
          for (const std::string& value : bad_values<S>(r)) {
            std::vector<std::string> words = lead;
            words.push_back(flag + "=" + value);
            try {
              apply(parse(words));
              ADD_FAILURE() << flag << " accepted '" << value << "'";
            } catch (const std::invalid_argument& e) {
              EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
                  << flag << " '" << value << "': " << e.what();
            }
          }
          ++probed;
        };
        (probe(row), ...);
      },
      table);
  return probed;
}

TEST(KnobCliTest, EveryTableFlagRefusesMalformedValuesNamingTheFlag) {
  const auto fault = [](const ArgParser& a) { FaultPlan().apply_cli(a); };
  EXPECT_EQ(expect_every_flag_strict<FaultPlan>(kFaultKnobs, fault), 7);
  EXPECT_EQ(expect_every_flag_strict<AgingPlan>(kAgingKnobs, fault), 11);
  EXPECT_EQ(expect_every_flag_strict<IntegrityPlan>(kIntegrityKnobs, fault),
            17);
  EXPECT_EQ(expect_every_flag_strict<OverloadOptions>(
                kOverloadKnobs,
                [](const ArgParser& a) { OverloadOptions().apply_cli(a); }),
            7);
  const auto tenants = [](const ArgParser& a) { TenantOptions().apply_cli(a); };
  EXPECT_EQ(expect_every_flag_strict<TenantOptions>(kTenantKnobs, tenants), 3);
  EXPECT_EQ(expect_every_flag_strict<TenantSpec>(kTenantSpecKnobs, tenants,
                                                 "", {"--tenants", "2"}),
            5);
  const auto telemetry = [](const ArgParser& a) {
    TelemetryOptions().apply_cli(a, "telemetry-");
  };
  EXPECT_EQ(expect_every_flag_strict<TelemetryOptions>(
                kTelemetryKnobs, telemetry, "telemetry-"),
            7);
  EXPECT_EQ(expect_every_flag_strict<WorkloadProfile>(
                kWorkloadShapeKnobs,
                [](const ArgParser& a) {
                  WorkloadProfile p;
                  apply_knobs(kWorkloadShapeKnobs, p, a);
                }),
            8);
}

TEST(KnobCliTest, RangesAreCheckedAtParseTimeNamingTheFlag) {
  const auto refused = [](const std::vector<std::string>& words,
                          const std::string& flag) {
    try {
      FaultPlan f;
      f.apply_cli(parse(words));
      OverloadOptions o;
      o.apply_cli(parse(words));
      TelemetryOptions t;
      t.apply_cli(parse(words));
      TenantOptions n;
      n.apply_cli(parse(words));
      ADD_FAILURE() << flag << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  };
  refused({"--fault-program-fail", "1"}, "--fault-program-fail");
  refused({"--fault-retries", "0"}, "--fault-retries");
  refused({"--aging-wear-erase-max", "1.5"}, "--aging-wear-erase-max");
  refused({"--integrity-ecc-escape", "1.01"}, "--integrity-ecc-escape");
  refused({"--bg-flush-high", "2"}, "--bg-flush-high");
  refused({"--trace-buffer", "0"}, "--trace-buffer");
  refused({"--trace", "alll"}, "--trace");
  refused({"--integrity-retry-steps", "4294967295"}, "--integrity-retry-steps");
  refused({"--snapshot-every-ms", "5ms"}, "--snapshot-every-ms");
  // Tenant ids are 16 bits: a larger count is refused before any tenant
  // state is allocated.
  refused({"--tenants", "65537"}, "--tenants");
  refused({"--tenants", "4000000000"}, "--tenants");
  TenantOptions widest;
  widest.apply_cli(parse({"--tenants", "65536"}));
  EXPECT_EQ(widest.count, 65536u);
}

TEST(KnobCliTest, ScaledDurationsKeepTheirConversion) {
  TelemetryOptions t;
  t.apply_cli(parse({"--snapshot-every-ms", "2.5"}));
  EXPECT_EQ(t.snapshot_every_ns, 2500 * kMicrosecond);
  OverloadOptions o;
  o.apply_cli(parse({"--deadline-us", "0.5", "--queue-backoff-us", "3"}));
  EXPECT_EQ(o.deadline_ns, 500);
  EXPECT_EQ(o.retry_backoff_ns, 3 * kMicrosecond);
  // The largest whole-millisecond value that fits SimTime is accepted.
  FaultPlan f;
  f.apply_cli(parse({"--aging-retention-limit-ms", "9223372036854"}));
  EXPECT_EQ(f.aging.retention_age_limit, 9223372036854 * kMillisecond);
}

TEST(KnobCliTest, SwitchAcceptsOnlyTheImplicitTrue) {
  OverloadOptions o;
  o.apply_cli(parse({"--throttle=true"}));
  EXPECT_TRUE(o.throttle);
  OverloadOptions bare;
  bare.apply_cli(parse({"--throttle", "--queue-depth", "4"}));
  EXPECT_TRUE(bare.throttle);
  EXPECT_EQ(bare.queue_depth, 4u);
  EXPECT_THROW(OverloadOptions().apply_cli(parse({"--throttle", "false"})),
               std::invalid_argument);
}

TEST(KnobCliTest, CheckNamesTheField) {
  FaultPlan f;
  f.read_fail_prob = 1.0;
  try {
    f.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("read_fail_prob must be in [0, 1)"),
              std::string::npos)
        << e.what();
  }
  TelemetryOptions t;
  t.trace.capacity = 0;
  EXPECT_THROW(check_knobs(kTelemetryKnobs, t), std::invalid_argument);
  t.trace.capacity = 1;
  EXPECT_NO_THROW(check_knobs(kTelemetryKnobs, t));
}

TEST(KnobCliTest, HelpListsEveryFlagOfATable) {
  std::ostringstream os;
  write_knob_help(os, "telemetry", kTelemetryKnobs, "telemetry-");
  const std::string help = os.str();
  for (const char* flag :
       {"--telemetry-trace off|cache|flash|all", "--telemetry-trace-buffer N",
        "--telemetry-trace-sample N", "--telemetry-snapshot-every N",
        "--telemetry-snapshot-every-ms MS", "--telemetry-profile",
        "--telemetry-attribution (or --attribution)"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag << "\n" << help;
  }
  EXPECT_NE(help.find("trace.capacity >= 1"), std::string::npos) << help;
}

}  // namespace
}  // namespace reqblock
