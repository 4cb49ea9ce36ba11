// Figure 13: pages held by Req-block's three lists (IRL/SRL/DRL) over
// time, sampled every 10,000 requests on a 32 MB cache. The paper
// observes that SRL holds the most cached pages in most traces and DRL
// the fewest — confirming that small request blocks earn long residency
// while split-out fragments of large requests stay rare.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& trace : paper_traces()) {
    ExperimentCase c = make_case(trace, "reqblock", 32, cap);
    c.options.occupancy_log_interval = 10000;
    add_cell(out, "fig13/" + trace, c);
  }
  return out;
}

void report(const Cells& cells) {
  int srl_largest = 0, drl_smallest = 0, total = 0;
  for (const auto& trace : paper_traces()) {
    const auto& series = cells["fig13/" + trace].occupancy_series;
    if (series.empty()) continue;
    std::cout << trace << " (pages in IRL/SRL/DRL every 10k requests):\n";
    TextTable t({"@requests", "IRL", "SRL", "DRL", "blocks(I/S/D)"});
    // Print up to 10 evenly spaced samples.
    const std::size_t step = std::max<std::size_t>(1, series.size() / 10);
    for (std::size_t i = 0; i < series.size(); i += step) {
      const auto& o = series[i];
      t.add_row({std::to_string((i + 1) * 10000),
                 std::to_string(o.irl_pages), std::to_string(o.srl_pages),
                 std::to_string(o.drl_pages),
                 std::to_string(o.irl_blocks) + "/" +
                     std::to_string(o.srl_blocks) + "/" +
                     std::to_string(o.drl_blocks)});
    }
    t.print(std::cout);

    // Steady-state check over the second half of the series.
    double irl = 0, srl = 0, drl = 0;
    std::size_t n = 0;
    for (std::size_t i = series.size() / 2; i < series.size(); ++i) {
      irl += static_cast<double>(series[i].irl_pages);
      srl += static_cast<double>(series[i].srl_pages);
      drl += static_cast<double>(series[i].drl_pages);
      ++n;
    }
    if (n > 0) {
      ++total;
      if (srl >= irl && srl >= drl) ++srl_largest;
      if (drl <= irl && drl <= srl) ++drl_smallest;
    }
    std::cout << "\n";
  }
  if (total == 0) {
    std::cout << "No occupancy samples: the request cap (" << cells.cap
              << ") is below the 10,000-request sampling interval.\n";
  }
  expect_line("SRL holds the most cached pages", "in most traces",
              std::to_string(srl_largest) + "/" + std::to_string(total) +
                  " traces (steady state)");
  expect_line("DRL holds the fewest cached pages", "in all traces",
              std::to_string(drl_smallest) + "/" + std::to_string(total) +
                  " traces (steady state)");
}

}  // namespace

const Artifact kFig13 = {"fig13",
                         "Fig. 13: Req-block list occupancy over time",
                         300000, cells, report};

}  // namespace reqblock::benchx
