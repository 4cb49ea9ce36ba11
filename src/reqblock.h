// Umbrella header: the full public API of the reqblock library.
//
//   #include <reqblock.h>     (installed)
//   #include "reqblock.h"     (in-tree)
//
// Layering (each header can also be included individually; all of them
// build into one library, reqblock_sim):
//   util/ -> snapshot/ -> fault/ telemetry/ trace/ -> ssd/ host/ -> cache/
//   core/ -> sim/
#pragma once

// Utilities
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/histogram.h"
#include "util/knobs.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/types.h"
#include "util/zipf.h"

// Snapshots, fault injection, device aging, data integrity
#include "snapshot/snapshot.h"
#include "fault/aging.h"
#include "fault/fault.h"
#include "fault/integrity.h"

// Telemetry: event tracing, metric snapshots, self-profiling, attribution
#include "telemetry/attribution.h"
#include "telemetry/event.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_buffer.h"

// Workloads
#include "trace/io_request.h"
#include "trace/micro_workloads.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"
#include "trace/trace_file.h"
#include "trace/trace_stats.h"
#include "trace/vector_source.h"

// SSD device model
#include "ssd/address.h"
#include "ssd/config.h"
#include "ssd/flash_array.h"
#include "ssd/ftl.h"
#include "ssd/timeline.h"

// Host front end: tenants, arbiters, admission and overload control
#include "host/arbiter.h"
#include "host/overload.h"
#include "host/tenant.h"

// Cache framework and policies
#include "cache/bplru.h"
#include "cache/cache_manager.h"
#include "cache/cflru.h"
#include "cache/fab.h"
#include "cache/lfu.h"
#include "cache/lru.h"
#include "cache/policy_factory.h"
#include "cache/vbbms.h"
#include "cache/write_buffer.h"

// The paper's contribution
#include "core/freq.h"
#include "core/req_block.h"
#include "core/req_block_policy.h"

// Simulation harness
#include "sim/checkpoint.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/session.h"
#include "sim/simulator.h"
