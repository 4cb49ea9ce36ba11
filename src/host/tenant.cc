#include "host/tenant.h"

#include <stdexcept>
#include <string>

#include "snapshot/snapshot.h"
#include "trace/synthetic.h"

namespace reqblock {

std::vector<std::uint32_t> TenantOptions::weights() const {
  std::vector<std::uint32_t> w;
  w.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) w.push_back(spec(i).weight);
  return w;
}

void TenantOptions::validate() const {
  check_knobs(kTenantKnobs, *this);
  if (specs.size() > count) {
    throw std::invalid_argument(
        "more tenant specs (" + std::to_string(specs.size()) +
        ") than tenants (" + std::to_string(count) + ")");
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TenantSpec& s = specs[i];
    const auto refuse = [i](const std::string& why) {
      throw std::invalid_argument("tenant " + std::to_string(i) + ": " + why);
    };
    try {
      check_knobs(kTenantSpecKnobs, s);
    } catch (const std::invalid_argument& e) {
      refuse(e.what());
    }
    if ((s.burst_period == 0) != (s.burst_len == 0)) {
      refuse("burst length and period must be set together");
    }
    if (s.burst_period > 0 && s.burst_len > s.burst_period) {
      refuse("burst length exceeds the period");
    }
    if (s.burst_period > 0 && s.burst_factor <= 0.0) {
      refuse("burst factor must be > 0");
    }
  }
}

void TenantOptions::apply_cli(const ArgParser& args) {
  apply_knobs(kTenantKnobs, *this, args);
  apply_knob_lists(kTenantSpecKnobs, specs, count, args, "tenants");
  validate();
}

void TenantResult::serialize(SnapshotWriter& w) const {
  w.tag("tenant_result");
  write_fields(kTenantResultFields, *this, w);
}

void TenantResult::deserialize(SnapshotReader& r) {
  r.tag("tenant_result");
  read_fields(kTenantResultFields, *this, r);
}

std::vector<WorkloadProfile> derive_tenant_profiles(
    const WorkloadProfile& base, const TenantOptions& tenants) {
  tenants.validate();
  std::vector<WorkloadProfile> profiles;
  profiles.reserve(tenants.count);
  for (std::uint32_t i = 0; i < tenants.count; ++i) {
    const TenantSpec s = tenants.spec(i);
    WorkloadProfile p = base;
    p.name = base.name + "#t" + std::to_string(i);
    // Tenant 0 keeps the base seed so its solo run replays the identical
    // stream; later tenants decorrelate via a fixed odd stride.
    if (i > 0) p.seed = base.seed + 0x9E3779B1ull * i;
    if (s.rate != 1.0) {
      const double gap = static_cast<double>(p.mean_interarrival_ns) / s.rate;
      p.mean_interarrival_ns = gap < 1.0 ? 1 : static_cast<SimTime>(gap);
    }
    if (s.burst_period > 0) {
      p.burst_arrival_len = s.burst_len;
      p.burst_arrival_period = s.burst_period;
      p.burst_arrival_factor = s.burst_factor;
    }
    profiles.push_back(std::move(p));
  }
  return profiles;
}

TenantStreams make_tenant_streams(const WorkloadProfile& base,
                                  const TenantOptions& tenants) {
  TenantStreams streams;
  for (WorkloadProfile& p : derive_tenant_profiles(base, tenants)) {
    streams.owned.push_back(
        std::make_unique<SyntheticTraceSource>(std::move(p)));
    streams.sources.push_back(streams.owned.back().get());
  }
  return streams;
}

}  // namespace reqblock
