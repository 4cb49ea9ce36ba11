#include "sim/simulator.h"

#include "sim/checkpoint.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/knobs.h"

namespace reqblock {

void prepare_sim_options(SimOptions& options) {
  options.ssd.validate();
  REQB_CHECK_MSG(options.cache.capacity_pages == 0 ||
                     options.cache.capacity_pages ==
                         options.policy.capacity_pages,
                 "cache and policy capacity must agree");
  if (options.telemetry_env_override) {
    options.telemetry.apply_env();
    options.telemetry_env_override = false;  // already folded in
  }
  // Reads REQBLOCK_AUDIT on first use: a value that names no level fails
  // here, before the run, instead of at its first audit.
  static_cast<void>(audit_level());
  options.fault.validate();
  options.overload.validate();
  options.tenants.validate();
  check_knobs(kTelemetryKnobs, options.telemetry);
}

void check_env_levels() {
  static_cast<void>(audit_level());
  static_cast<void>(trace_level_from_env());
}

Simulator::Simulator(SimOptions options) : options_(std::move(options)) {
  prepare_sim_options(options_);
}

RunResult Simulator::run(TraceSource& trace) {
  // The stepped session is the single definition of the replay loop;
  // running it to completion in one go reproduces the historical
  // Simulator::run semantics exactly (see sim/session.h).
  CaseSession replay = build_session(options_, trace);
  return run_session(*replay.session);
}

std::uint64_t cache_pages_for_mb(std::uint64_t mb) {
  return mb * (1024 * 1024) / 4096;
}

SimOptions make_sim_options(const std::string& policy_name,
                            std::uint64_t cache_mb, std::uint32_t delta) {
  SimOptions opts;
  opts.policy.name = policy_name;
  opts.policy.capacity_pages = cache_pages_for_mb(cache_mb);
  opts.policy.pages_per_block = opts.ssd.pages_per_block;
  opts.policy.reqblock.delta = delta;
  opts.cache.capacity_pages = opts.policy.capacity_pages;
  return opts;
}

}  // namespace reqblock
