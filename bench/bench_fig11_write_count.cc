// Figure 11: number of page writes reaching flash memory. The paper
// reports Req-block issuing the fewest flash writes — 8.6%, 4.3% and
// 1.1% fewer than LRU, BPLRU and VBBMS on average — because keeping hot
// pages buffered absorbs more overwrites.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

/// Req-block's flash-write reduction against `base`, in percent, averaged
/// over the 18 (trace, cache size) cells.
double mean_cut(const Cells& cells, const std::string& base) {
  std::vector<double> cuts;
  for (const auto& trace : paper_traces()) {
    for (const std::uint64_t mb : kGridCacheMbs) {
      const RunResult& rb = cells[grid_cell(trace, "reqblock", mb)];
      const RunResult& b = cells[grid_cell(trace, base, mb)];
      cuts.push_back(b.flash_write_count() == 0
                         ? 0.0
                         : (1.0 - static_cast<double>(rb.flash_write_count()) /
                                      static_cast<double>(
                                          b.flash_write_count())) *
                               100.0);
    }
  }
  return mean_of(cuts);
}

void report(const Cells& cells) {
  TextTable t({"Trace (32MB)", "LRU", "BPLRU", "VBBMS", "Req-block"});
  for (const auto& trace : paper_traces()) {
    std::vector<std::string> row{trace};
    for (const auto& policy : paper_policies()) {
      const RunResult& r = cells[grid_cell(trace, policy, 32)];
      row.push_back(std::to_string(r.flash_write_count()));
    }
    t.add_row(row);
  }
  std::cout << "Flash page writes (32MB cache):\n";
  t.print(std::cout);

  expect_line("Req-block flash-write reduction vs LRU", "8.6%",
              format_double(mean_cut(cells, "lru"), 1) + "%");
  expect_line("Req-block flash-write reduction vs BPLRU", "4.3%",
              format_double(mean_cut(cells, "bplru"), 1) + "%");
  expect_line("Req-block flash-write reduction vs VBBMS", "1.1%",
              format_double(mean_cut(cells, "vbbms"), 1) + "%");
}

/// ✔ Req-block writes the fewest flash pages: its average reduction
/// against every baseline is positive.
std::vector<std::string> check(const Cells& cells) {
  std::vector<std::string> failed;
  for (const std::string base : {"lru", "bplru", "vbbms"}) {
    const double cut = mean_cut(cells, base);
    if (!(cut > 0.0)) {
      failed.push_back("fig11: Req-block's flash-write reduction vs " + base +
                       " is " + format_double(cut, 1) + "%, not positive");
    }
  }
  return failed;
}

}  // namespace

const Artifact kFig11 = {"fig11", "Fig. 11: flash write count", 200000,
                         grid_cells, report, check};

}  // namespace reqblock::benchx
