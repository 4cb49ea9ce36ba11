// Figure 8: overall I/O response time of LRU / BPLRU / VBBMS / Req-block
// across six traces and three cache sizes (16/32/64 MB), normalized to
// LRU. The paper reports Req-block reducing mean response time by 23.8%,
// 11.3% and 7.7% versus LRU, BPLRU and VBBMS respectively.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

/// Req-block's mean-response reduction against `base`, in percent,
/// averaged over the 18 (trace, cache size) cells.
double mean_reduction(const Cells& cells, const std::string& base) {
  std::vector<double> cuts;
  for (const auto& trace : paper_traces()) {
    for (const std::uint64_t mb : kGridCacheMbs) {
      const RunResult& rb = cells[grid_cell(trace, "reqblock", mb)];
      const RunResult& b = cells[grid_cell(trace, base, mb)];
      cuts.push_back((1.0 - rb.response.mean() / b.response.mean()) * 100.0);
    }
  }
  return mean_of(cuts);
}

void report(const Cells& cells) {
  for (const std::uint64_t mb : kGridCacheMbs) {
    TextTable t({"Trace (" + std::to_string(mb) + "MB)", "LRU (abs ms)",
                 "BPLRU", "VBBMS", "Req-block"});
    for (const auto& trace : paper_traces()) {
      const RunResult& lru = cells[grid_cell(trace, "lru", mb)];
      std::vector<std::string> row{
          trace, format_double(lru.mean_response_ms(), 3)};
      for (const auto& policy : {"bplru", "vbbms", "reqblock"}) {
        const RunResult& r = cells[grid_cell(trace, policy, mb)];
        row.push_back(
            format_double(r.response.mean() / lru.response.mean(), 3));
      }
      t.add_row(row);
    }
    std::cout << "Normalized I/O response time, " << mb << "MB cache:\n";
    t.print(std::cout);
    std::cout << "\n";
  }

  // Aggregate reductions of Req-block versus each baseline.
  expect_line("Req-block mean response reduction vs LRU", "23.8%",
              format_double(mean_reduction(cells, "lru"), 1) + "%");
  expect_line("Req-block mean response reduction vs BPLRU", "11.3%",
              format_double(mean_reduction(cells, "bplru"), 1) + "%");
  expect_line("Req-block mean response reduction vs VBBMS", "7.7%",
              format_double(mean_reduction(cells, "vbbms"), 1) + "%");
  std::cout << "Shape check: Req-block fastest on average; LRU pays for\n"
               "page-at-a-time eviction; BPLRU pays for single-channel\n"
               "whole-block flushes (worst tails).\n";
}

/// ✔ Req-block has the best mean response time: its average reduction
/// against every baseline is positive.
std::vector<std::string> check(const Cells& cells) {
  std::vector<std::string> failed;
  for (const std::string base : {"lru", "bplru", "vbbms"}) {
    const double cut = mean_reduction(cells, base);
    if (!(cut > 0.0)) {
      failed.push_back("fig8: Req-block's mean response reduction vs " +
                       base + " is " + format_double(cut, 1) +
                       "%, not positive");
    }
  }
  return failed;
}

}  // namespace

const Artifact kFig8 = {"fig8",
                        "Fig. 8: I/O response time (normalized to LRU)",
                        200000, grid_cells, report, check};

}  // namespace reqblock::benchx
