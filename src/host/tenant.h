// Tenant namespaces for the multi-queue host front end.
//
// A tenant is one submission queue bound to its own slice of the logical
// address space, its own synthetic arrival stream, and its own overload /
// SLO accounting. TenantOptions describes the whole front end — how many
// queues, which arbitration discipline picks between them, and the
// per-tenant workload knobs (weight, arrival-rate multiplier, burst
// shape). The default (count == 1) leaves every run bit-identical to the
// single-stream builds: no namespace remapping, no arbitration beyond
// "serve the only queue", identical CSV bytes.
//
// Per-tenant streams derive from one base WorkloadProfile: tenant 0 keeps
// the base seed (so its solo run is directly comparable in fairness
// experiments), later tenants get decorrelated seeds, and each spec can
// scale the arrival rate or override the burst modulation — the
// noisy-neighbor scenario is "tenant 1, rate x4, burst factor x8" in one
// flag.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "host/arbiter.h"
#include "host/overload.h"
#include "telemetry/attribution.h"
#include "util/fields.h"
#include "util/histogram.h"
#include "util/knobs.h"
#include "util/types.h"

namespace reqblock {

struct WorkloadProfile;
class SyntheticTraceSource;
class TraceSource;

/// Per-tenant workload/service knobs. Defaults describe a well-behaved
/// tenant indistinguishable from the base profile.
struct TenantSpec {
  /// Arbitration weight (WRR serves per visit, DRR quantum multiplier).
  std::uint32_t weight = 1;
  /// Arrival-rate multiplier: mean interarrival gap divided by this.
  double rate = 1.0;
  /// Burst-arrival override for this tenant's stream; burst_period == 0
  /// keeps the base profile's modulation.
  std::uint64_t burst_len = 0;
  std::uint64_t burst_period = 0;
  double burst_factor = 8.0;
};

/// Every TenantSpec knob, in fingerprint order (src/util/knobs.h). Each
/// flag takes a comma list with one entry per tenant.
inline constexpr auto kTenantSpecKnobs = std::tuple{
    Knob{"tenant-weights", REQB_KNOB_FIELD(weight), kInteger, kAtLeastOne},
    Knob{"tenant-rates", REQB_KNOB_FIELD(rate), kNumber, kPositive},
    Knob{"tenant-burst-len", REQB_KNOB_FIELD(burst_len), kInteger},
    Knob{"tenant-burst-period", REQB_KNOB_FIELD(burst_period), kInteger},
    Knob{"tenant-burst-factor", REQB_KNOB_FIELD(burst_factor), kNumber},
};

struct TenantOptions {
  /// Submission queues / tenant namespaces. 1 = the classic single-stream
  /// front end (everything below is inert).
  std::uint32_t count = 1;
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;
  /// Base DRR quantum in pages (scaled per tenant by its weight).
  std::uint32_t drr_quantum_pages = 16;
  /// Per-tenant knobs; shorter than `count` is padded with defaults.
  std::vector<TenantSpec> specs;

  bool enabled() const { return count > 1; }
  /// The effective spec of tenant `i` (specs[i] or a default).
  TenantSpec spec(std::size_t i) const {
    return i < specs.size() ? specs[i] : TenantSpec{};
  }
  /// Effective arbitration weights, one per tenant.
  std::vector<std::uint32_t> weights() const;

  /// Throws std::invalid_argument on inconsistent settings (zero count,
  /// more specs than tenants, zero weight/rate, half-open burst spec).
  void validate() const;

  /// Reads the flags of kTenantKnobs and the comma lists of
  /// kTenantSpecKnobs (a short list leaves later tenants at their
  /// defaults), then validates. Absent flags keep their current value.
  void apply_cli(const ArgParser& args);
};

/// Tenant ids are stamped into queue events as 16 bits
/// (HostAdmissionQueue::set_tenant), so a run holds at most 2^16 tenants.
inline constexpr Range kTenantCount{1.0, 65536.0, false, false,
                                    "in [1, 65536]"};

/// TenantOptions' own knobs, in fingerprint order (src/util/knobs.h); the
/// per-tenant specs follow them in kTenantSpecKnobs.
inline constexpr auto kTenantKnobs = std::tuple{
    Knob{"tenants", REQB_KNOB_FIELD(count), kInteger, kTenantCount},
    Knob{"arbiter", REQB_KNOB_FIELD(arbiter),
         Choice<ArbiterKind>{"rr|wrr|drr", arbiter_kind_from_name}},
    Knob{"drr-quantum", REQB_KNOB_FIELD(drr_quantum_pages), kInteger,
         kAtLeastOne},
};

/// One tenant's slice of a finished run: request counts, response and
/// queue-wait distributions, overload/SLO accounting, and (when latency
/// attribution is on) summed per-component critical-path time.
struct TenantResult {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  LogHistogram response;
  LogHistogram queue_wait;
  OverloadMetrics overload;
  std::uint64_t attr_requests = 0;
  std::array<std::uint64_t, kAttrComponents> attr_ns{};

  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);
};

/// TenantResult's fields in snapshot order (src/util/fields.h).
inline constexpr auto kTenantResultFields = std::tuple{
    Field{REQB_KNOB_FIELD(name)},
    Field{REQB_KNOB_FIELD(requests)},
    Field{REQB_KNOB_FIELD(read_requests)},
    Field{REQB_KNOB_FIELD(write_requests)},
    Field{REQB_KNOB_FIELD(response)},
    Field{REQB_KNOB_FIELD(queue_wait)},
    Field{REQB_KNOB_FIELD(overload)},
    Field{REQB_KNOB_FIELD(attr_requests)},
    Field{REQB_KNOB_FIELD(attr_ns)},
};

/// Derives one WorkloadProfile per tenant from a base profile: "#tN" name
/// suffix, decorrelated seed for tenants past 0, mean interarrival gap
/// divided by the spec's rate, and per-spec burst overrides.
std::vector<WorkloadProfile> derive_tenant_profiles(
    const WorkloadProfile& base, const TenantOptions& tenants);

/// Owning bundle of per-tenant synthetic sources plus the non-owning view
/// SimulationSession consumes.
struct TenantStreams {
  std::vector<std::unique_ptr<SyntheticTraceSource>> owned;
  std::vector<TraceSource*> sources;
};

/// Builds the per-tenant trace sources for a multi-tenant run.
TenantStreams make_tenant_streams(const WorkloadProfile& base,
                                  const TenantOptions& tenants);

}  // namespace reqblock
