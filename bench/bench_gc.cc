// GC study: steady-state garbage collection under each paper policy.
//
// The cells run the benchmark's gc-churn shape: proj_0's write-heavy mix
// behind an 8 MB cache on a 256 MiB device, with its four cold streams
// cut to 4,096 pages each. Three hot-set sizes (250, 375 and 500
// extents) put the footprint (hot slots + streams) at 49-74 % of the
// device, so greedy GC copies pages within a short run, and each policy's
// flush pattern shows in its GC moves, erases and write amplification.
// The Req-block cell at 500 extents and the default cap is the
// benchmark's gc-churn cell (benchmark/rep.cc).
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

constexpr std::uint64_t kHotExtents[] = {250, 375, 500};

std::string cell_name(std::uint64_t hot_extents, const std::string& policy) {
  return "gc/" + std::to_string(hot_extents) + "/" + policy;
}

ExperimentCase gc_case(std::uint64_t hot_extents, const std::string& policy,
                       std::uint64_t cap) {
  ExperimentCase c = make_case("proj_0", policy, 8, cap);
  c.profile.hot_extents = hot_extents;
  c.profile.cold_stream_pages = 4096;
  c.options.ssd.capacity_bytes = 1ULL << 28;
  return c;
}

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const std::uint64_t hot : kHotExtents) {
    for (const auto& policy : paper_policies()) {
      add_cell(out, cell_name(hot, policy), gc_case(hot, policy, cap));
    }
  }
  return out;
}

void report(const Cells& cells) {
  TextTable t({"hot extents", "footprint", "policy", "hit%", "mean ms",
               "flash writes", "GC runs", "GC moves", "WAF", "erases"});
  for (const std::uint64_t hot : kHotExtents) {
    for (const auto& policy : paper_policies()) {
      const std::string name = cell_name(hot, policy);
      const RunResult& r = cells[name];
      const ExperimentCase& c = cells.case_of(name);
      const double footprint =
          static_cast<double>(c.profile.footprint_pages()) * 100 /
          static_cast<double>(c.options.ssd.total_pages());
      const FlashMetrics& fm = r.flash;
      t.add_row({std::to_string(hot), format_double(footprint, 1) + "%",
                 r.policy_name, format_double(r.hit_ratio() * 100, 2),
                 format_double(r.mean_response_ms(), 3),
                 std::to_string(fm.host_page_writes),
                 std::to_string(fm.gc_runs), std::to_string(fm.gc_page_moves),
                 format_double(fm.waf(), 3), std::to_string(fm.erases)});
    }
  }
  std::cout << "proj_0 shape, 8MB cache, 4 cold streams of 4096 pages:\n";
  t.print(std::cout);
  std::cout << "\nWAF = (host programs + GC moves) / host programs.\n";
}

}  // namespace

const Artifact kGc = {"gc",
                      "GC: write amplification per policy on a small device",
                      150000, cells, report};

}  // namespace reqblock::benchx
