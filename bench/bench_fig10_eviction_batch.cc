// Figure 10: average number of pages flushed per eviction operation
// (32 MB cache). The paper's ordering: BPLRU (whole blocks) evicts the
// most pages per operation, VBBMS (3-4 page virtual blocks) the fewest,
// and Req-block (request blocks) sits in between — large enough to
// exploit channel parallelism, small enough to avoid flush congestion.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

/// The 32MB slice of the grid.
std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& trace : paper_traces()) {
    for (const auto& policy : paper_policies()) {
      add_cell(out, grid_cell(trace, policy, 32),
               make_case(trace, policy, 32, cap));
    }
  }
  return out;
}

void report(const Cells& cells) {
  TextTable t({"Trace", "LRU", "BPLRU", "VBBMS", "Req-block"});
  bool ordering_holds = true;
  for (const auto& trace : paper_traces()) {
    std::vector<std::string> row{trace};
    double bplru = 0, vbbms = 0, reqblock = 0;
    for (const auto& policy : paper_policies()) {
      const double mean =
          cells[grid_cell(trace, policy, 32)].cache.eviction_batch.mean();
      row.push_back(format_double(mean, 2));
      if (policy == "bplru") bplru = mean;
      if (policy == "vbbms") vbbms = mean;
      if (policy == "reqblock") reqblock = mean;
    }
    ordering_holds =
        ordering_holds && vbbms <= reqblock && reqblock <= bplru;
    t.add_row(row);
  }
  std::cout << "Mean pages per eviction operation (32MB cache):\n";
  t.print(std::cout);
  expect_line("ordering VBBMS <= Req-block <= BPLRU", "holds in Fig. 10",
              ordering_holds ? "holds on every trace" : "violated (see table)");
  std::cout << "LRU always evicts exactly one page.\n";
}

}  // namespace

const Artifact kFig10 = {"fig10", "Fig. 10: pages per eviction operation",
                         200000, cells, report};

}  // namespace reqblock::benchx
