// Golden output of every writer that names the metrics records' counters.
//
// One hand-built RunResult holds every counter of FaultMetrics,
// IntegrityMetrics, OverloadMetrics, FlashMetrics and CacheMetrics, and
// two TenantResults, each field at a distinct value: two swapped columns,
// two swapped snapshot fields or a dropped field each change a byte below.
// Fault and overload are enabled and the aging and integrity counters are
// nonzero, so the results CSV carries all four gated column groups; a
// second, plain run shows that a group's cells are written for every run
// once any run opens it.
//
// The pins: the results and tenant CSVs, the reliability, overload and
// tenant summaries, and the FNV-1a-64 digest of serialize_run_result's
// bytes. The stored-result bytes are a format contract (run_matrix reloads
// finished cases from them), like the session snapshots of
// snapshot_golden_test.cc, so the digest may change only with
// kSnapshotFormatVersion.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "sim/checkpoint.h"
#include "sim/report.h"
#include "snapshot/snapshot.h"

namespace reqblock {
namespace {

static_assert(kSnapshotFormatVersion == 6,
              "the snapshot format changed: re-record the golden digest");

void fill_fault(FaultMetrics& f) {
  f.enabled = true;
  f.program_faults = 1001;
  f.read_faults = 1002;
  f.erase_faults = 1003;
  f.blocks_retired = 1004;
  f.retires_refused = 1005;
  f.bad_block_marks = 1006;
  f.degraded_planes = 1007;
  f.power_loss_events = 1008;
  f.lost_dirty_pages = 1009;
  f.recovery_time_total = 12'345'678;
  f.read_disturb_migrations = 1011;
  f.read_disturb_pages_moved = 1012;
  f.retention_scrubs = 1013;
  f.retention_pages_moved = 1014;
  f.wear_threshold_crossings = 1015;
  f.degraded_mode_enters = 1016;
  f.degraded_mode_exits = 1017;
  f.degraded_write_sheds = 1018;
  IntegrityMetrics& in = f.integrity;
  in.ecc_attempts = 2001;
  in.ecc_corrected = 2002;
  in.ecc_escalated = 2003;
  in.retry_corrected = 2004;
  in.retry_escalated = 2005;
  in.retry_steps_total = 2006;
  in.parity_rebuilds = 2007;
  in.parity_peer_reads = 2008;
  in.uncorrectable = 2009;
  in.host_reads_lost = 2010;
  in.patrol_scrubs = 2011;
  in.patrol_pages_moved = 2012;
  in.patrol_pages_examined = 2013;
  in.recovery_time_total = 23'456'789;
}

OverloadMetrics overload_metrics(std::uint64_t base) {
  OverloadMetrics o;
  o.enabled = true;
  o.admitted = base + 1;
  o.queued_waits = base + 2;
  o.timeouts = base + 3;
  o.sheds = base + 4;
  o.retries = base + 5;
  o.throttle_events = base + 6;
  o.throttle_delay_total = static_cast<SimTime>(base) * 1000 + 700'007;
  o.queue_wait_total = static_cast<SimTime>(base) * 1000 + 800'008;
  return o;
}

void fill_cache(CacheMetrics& c) {
  c.page_lookups = 4001;
  c.page_hits = 3002;
  c.read_hits = 1003;
  c.write_hits = 1004;
  c.inserts = 4005;
  c.read_misses = 4006;
  c.bypass_pages = 4007;
  c.evictions = 4008;
  c.evicted_pages = 4009;
  c.flushed_pages = 4010;
  c.padding_pages = 4011;
  c.bg_flush_batches = 4012;
  c.bg_flush_pages = 4013;
  c.eviction_batch.record(std::uint64_t{4});
  c.eviction_batch.record(std::uint64_t{8});
  c.eviction_batch.record(std::uint64_t{9});
  c.metadata_bytes.record(20000.0);
  c.metadata_bytes.record(30000.0);
  c.inserts_by_req_size = {4101, 4102, 4103};
  c.hits_by_req_size = {4201, 4202, 4203};
  c.pages_retired_by_req_size = {4301, 4302, 4303};
  c.pages_reused_by_req_size = {4401, 4402, 4403};
}

void fill_flash(FlashMetrics& f) {
  f.host_page_reads = 5001;
  f.host_page_writes = 5002;
  f.unmapped_reads = 5003;
  f.gc_runs = 5004;
  f.gc_page_moves = 5005;
  f.erases = 5006;
}

/// 1000 samples at 1, 10, 100, 1000 and 10000 units, placed so that
/// p50, p95, p99 and p999 fall in different buckets.
void spread(LogHistogram& h, std::int64_t unit) {
  const struct {
    int count;
    std::int64_t scale;
  } steps[] = {{600, 1}, {340, 10}, {45, 100}, {12, 1000}, {3, 10000}};
  for (const auto& s : steps) {
    for (int i = 0; i < s.count; ++i) h.record(unit * s.scale);
  }
}

TenantResult tenant(const std::string& name, std::uint64_t base) {
  TenantResult t;
  t.name = name;
  t.requests = base + 1;
  t.read_requests = base + 2;
  t.write_requests = base + 3;
  spread(t.response, static_cast<std::int64_t>(base));
  spread(t.queue_wait, static_cast<std::int64_t>(base) / 10);
  t.overload = overload_metrics(base + 100);
  t.attr_requests = base + 4;
  for (std::size_t c = 0; c < t.attr_ns.size(); ++c) {
    t.attr_ns[c] = base * 100 + c;
  }
  return t;
}

RunResult golden_result() {
  RunResult r;
  r.trace_name = "golden";
  r.policy_name = "Req-block";
  r.cache_capacity_pages = 4096;
  r.requests = 3001;
  r.read_requests = 1802;
  r.write_requests = 1199;
  spread(r.response, 110);
  spread(r.read_response, 70);
  spread(r.write_response, 230);
  spread(r.queue_wait, 3000);
  fill_cache(r.cache);
  fill_flash(r.flash);
  fill_fault(r.fault);
  r.overload = overload_metrics(3000);
  r.occupancy_series = {{6001, 6002, 6003, 6004, 6005, 6006},
                        {6101, 6102, 6103, 6104, 6105, 6106}};
  r.telemetry.events = {
      {7001, 7002, 7003, 7004, EventKind::kPageProgram, 7, 8},
      {7101, 0, 7103, 7104, EventKind::kAttrSpan, 9, 10},
  };
  r.telemetry.events_emitted = 7201;
  r.telemetry.events_dropped = 7202;
  r.telemetry.events_sampled_out = 7203;
  r.telemetry.profile.entries.push_back({"cache_serve", 7301, 7302});
  r.tenants = {tenant("golden#t0", 8000), tenant("golden#t1", 9000)};
  r.sim_end = 9'876'543'210;
  r.wall_seconds = 0.5;
  r.warmup_requests = 8001;
  r.channel_utilization = 0.25;
  r.chip_utilization = 0.125;
  return r;
}

/// A run with every subsystem off: its gated cells read zero.
RunResult plain_result() {
  RunResult r;
  r.trace_name = "plain";
  r.policy_name = "LRU";
  r.cache_capacity_pages = 1024;
  r.requests = 10;
  r.response.record(std::int64_t{10});
  r.cache.page_lookups = 20;
  r.cache.page_hits = 5;
  return r;
}

TEST(CounterGoldenTest, ResultsCsvWithEveryGroup) {
  std::ostringstream os;
  write_results_csv(os, {golden_result(), plain_result()});
  EXPECT_EQ(os.str(),
            "trace,policy,cache_pages,requests,hit_ratio,mean_ns,p50_ns,p95_ns,"
            "p99_ns,p999_ns,flash_writes,flash_reads,gc_moves,erases,waf,"
            "pages_per_evict,metadata_pct,channel_util,chip_util,"
            "program_faults,read_faults,erase_faults,bad_block_marks,"
            "blocks_retired,retires_refused,degraded_planes,power_loss_events,"
            "lost_dirty_pages,recovery_ns,queue_p50_ns,queue_p95_ns,"
            "queue_p99_ns,queue_p999_ns,queue_wait_ns,timeouts,sheds,retries,"
            "throttle_events,throttle_ns,bg_flush_batches,bg_flush_pages,"
            "disturb_migrations,disturb_pages_moved,retention_scrubs,"
            "retention_pages_moved,wear_threshold_crossings,degraded_enters,"
            "degraded_exits,degraded_write_sheds,ecc_attempts,ecc_corrected,"
            "retry_corrected,retry_steps,parity_rebuilds,parity_peer_reads,"
            "uncorrectable,host_reads_lost,patrol_scrubs,patrol_pages_examined,"
            "patrol_pages_moved,integrity_recovery_ns\n"
            "golden,Req-block,4096,3001,0.750312,5555,110,11008,108544,1081344,"
            "5002,5001,5005,5006,2.0006,7.000,0.1490,0.2500,0.1250,1001,1002,"
            "1003,1006,1004,1005,1007,1008,1009,12345678,3008,303104,2949120,"
            "29884416,3800008,3003,3004,3005,3006,3700007,4012,4013,1011,1012,"
            "1013,1014,1015,1016,1017,1018,2001,2002,2004,2006,2007,2008,2009,"
            "2010,2011,2013,2012,23456789\n"
            "plain,LRU,1024,10,0.250000,10,10,10,10,10,0,0,0,0,0.0000,0.000,"
            "0.0000,0.0000,0.0000,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
            "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n");
}

TEST(CounterGoldenTest, TenantCsv) {
  std::ostringstream os;
  write_tenant_csv(os, {golden_result(), plain_result()});
  EXPECT_EQ(os.str(),
            "trace,policy,tenant,requests,read_requests,write_requests,"
            "admitted,queued_waits,timeouts,sheds,retries,queue_wait_total_ns,"
            "queue_p50_ns,queue_p95_ns,queue_p99_ns,queue_p999_ns,resp_mean_ns,"
            "resp_p50_ns,resp_p99_ns,resp_p999_ns,attr_requests,"
            "attr_queue_wait_ns,attr_throttle_ns,attr_cache_lookup_ns,"
            "attr_evict_stall_ns,attr_ftl_read_ns,attr_ftl_program_ns,"
            "attr_gc_ns,attr_fault_retry_ns\n"
            "golden,Req-block,golden#t0,8001,8002,8003,8101,8102,8103,8104,"
            "8105,8900008,816,79872,802816,7995392,404000.0,8064,7995392,"
            "80000000,8004,800000,800001,800002,800003,800004,800005,800006,"
            "800007\n"
            "golden,Req-block,golden#t1,9001,9002,9003,9101,9102,9103,9104,"
            "9105,9900008,912,88064,901120,9000000,454500.0,9000,9175040,"
            "90000000,9004,900000,900001,900002,900003,900004,900005,900006,"
            "900007\n");
}

TEST(CounterGoldenTest, ReliabilitySummary) {
  std::ostringstream os;
  write_reliability_summary(os, golden_result());
  EXPECT_EQ(os.str(),
            "Fault injection (golden / Req-block)\n"
            "fault class       count  outcome          count    \n"
            "---------------------------------------------------\n"
            "program faults    1001   bad-block marks  1006     \n"
            "read faults       1002   blocks retired   1004     \n"
            "erase faults      1003   retires refused  1005     \n"
            "power losses      1008   degraded planes  1007     \n"
            "lost dirty pages  1009   recovery time    12.35ms  \n"
            "Device aging (golden / Req-block)\n"
            "wear & refresh         count  end of life      count  \n"
            "------------------------------------------------------\n"
            "disturb migrations     1011   degraded enters  1016   \n"
            "disturb pages moved    1012   degraded exits   1017   \n"
            "retention scrubs       1013   writes shed      1018   \n"
            "retention pages moved  1014   blocks retired   1004   \n"
            "rated-wear crossings   1015   degraded planes  1007   \n"
            "Data integrity (golden / Req-block)\n"
            "recovery tier    count  scrub & cost       count    \n"
            "----------------------------------------------------\n"
            "ecc attempts     2001   patrol scrubs      2011     \n"
            "ecc corrected    2002   pages examined     2013     \n"
            "retry corrected  2004   pages refreshed    2012     \n"
            "retry steps      2006   parity peer reads  2008     \n"
            "parity rebuilds  2007   host reads lost    2010     \n"
            "uncorrectable    2009   recovery time      23.46ms  \n");
}

TEST(CounterGoldenTest, OverloadSummary) {
  std::ostringstream os;
  write_overload_summary(os, golden_result());
  EXPECT_EQ(os.str(),
            "Overload protection (golden / Req-block)\n"
            "admission / SLO  value    relief            value     \n"
            "------------------------------------------------------\n"
            "admitted         3001     bg-flush batches  4012      \n"
            "queued (wait>0)  3002     bg-flush pages    4013      \n"
            "timeouts         3003     throttle events   3006      \n"
            "sheds            3004     throttle total    3.700ms   \n"
            "retries          3005     queue-wait total  3.800ms   \n"
            "queue-wait p50   0.003ms  queue-wait p99    2.949ms   \n"
            "queue-wait p95   0.303ms  queue-wait p999   29.884ms  \n");
}

TEST(CounterGoldenTest, TenantSummary) {
  std::ostringstream os;
  write_tenant_summary(os, golden_result());
  EXPECT_EQ(os.str(),
            "Tenants (golden / Req-block)\n"
            "tenant     requests  admitted  sheds  q-wait p50  q-wait p99  "
            "resp mean  resp p99  \n"
            "----------------------------------------"
            "-------------------------------------------\n"
            "golden#t0  8001      8101      8104   0.001ms     0.803ms     "
            "0.404ms    7.995ms   \n"
            "golden#t1  9001      9101      9104   0.001ms     0.901ms     "
            "0.455ms    9.175ms   \n");
}

TEST(CounterGoldenTest, StoredResultDigest) {
  SnapshotWriter w;
  serialize_run_result(w, golden_result());
  const std::string bytes = w.take();
  EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), 0x4f81852ec1b7763dULL);

  // Read back and written again, the same bytes: the reader takes each
  // field where the writer put it.
  SnapshotReader r(bytes);
  RunResult loaded;
  deserialize_run_result(r, loaded);
  r.expect_end();
  SnapshotWriter again;
  serialize_run_result(again, loaded);
  EXPECT_EQ(again.buffer(), bytes);
}

}  // namespace
}  // namespace reqblock
