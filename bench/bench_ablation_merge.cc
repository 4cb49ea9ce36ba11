// Ablation A2: downgraded merging (Fig. 6) on/off.
//
// Merging evicts a split block together with its IRL origin, enlarging
// flush batches (channel parallelism) and retiring spatially related cold
// data in one operation. Expectation: merging does not hurt hit ratio and
// modestly increases pages/eviction.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

std::string cell(const std::string& trace, bool merge) {
  return std::string("ablation_merge/") + trace + "/" +
         (merge ? "merge" : "no-merge");
}

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& trace : paper_traces()) {
    for (const bool merge : {true, false}) {
      ExperimentCase c = make_case(trace, "reqblock", 32, cap);
      c.options.policy.reqblock.merge_on_evict = merge;
      add_cell(out, cell(trace, merge), c);
    }
  }
  return out;
}

void report(const Cells& cells) {
  TextTable t({"Trace", "hit% (merge)", "hit% (no-merge)",
               "pages/evict (merge)", "pages/evict (no-merge)",
               "mean ms (merge)", "mean ms (no-merge)"});
  for (const auto& trace : paper_traces()) {
    const RunResult& on = cells[cell(trace, true)];
    const RunResult& off = cells[cell(trace, false)];
    t.add_row({trace, format_double(on.hit_ratio() * 100, 2),
               format_double(off.hit_ratio() * 100, 2),
               format_double(on.cache.eviction_batch.mean(), 2),
               format_double(off.cache.eviction_batch.mean(), 2),
               format_double(on.mean_response_ms(), 3),
               format_double(off.mean_response_ms(), 3)});
  }
  t.print(std::cout);
  std::cout << "\nDesign claim (paper §3.3): merging batches spatially\n"
               "related cold pages into one striped flush without\n"
               "sacrificing hits.\n";
}

}  // namespace

const Artifact kAblationMerge = {"ablation_merge",
                                 "Ablation A2: downgraded merging on/off",
                                 200000, cells, report};

}  // namespace reqblock::benchx
