// Figure 9: cache hit ratio of LRU / BPLRU / VBBMS / Req-block across six
// traces and three cache sizes, normalized to Req-block. The paper
// reports Req-block improving hits by 42.9%, 23.6% and 4.1% on average
// versus LRU, BPLRU and VBBMS, with BPLRU dropping below LRU on ts_0.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

void report(const Cells& cells) {
  for (const std::uint64_t mb : kGridCacheMbs) {
    TextTable t({"Trace (" + std::to_string(mb) + "MB)",
                 "Req-block (abs)", "LRU", "BPLRU", "VBBMS"});
    for (const auto& trace : paper_traces()) {
      const RunResult& rb = cells[grid_cell(trace, "reqblock", mb)];
      std::vector<std::string> row{
          trace, format_double(rb.hit_ratio() * 100, 2) + "%"};
      for (const auto& policy : {"lru", "bplru", "vbbms"}) {
        const RunResult& r = cells[grid_cell(trace, policy, mb)];
        row.push_back(format_double(r.hit_ratio() / rb.hit_ratio(), 3));
      }
      t.add_row(row);
    }
    std::cout << "Hit ratio normalized to Req-block, " << mb
              << "MB cache:\n";
    t.print(std::cout);
    std::cout << "\n";
  }

  std::vector<double> vs_lru, vs_bplru, vs_vbbms;
  bool bplru_below_lru_ts0 = false;
  for (const auto& trace : paper_traces()) {
    for (const std::uint64_t mb : kGridCacheMbs) {
      const RunResult& rb = cells[grid_cell(trace, "reqblock", mb)];
      auto gain = [&](const char* p) {
        const RunResult& base = cells[grid_cell(trace, p, mb)];
        return (rb.hit_ratio() / base.hit_ratio() - 1.0) * 100.0;
      };
      vs_lru.push_back(gain("lru"));
      vs_bplru.push_back(gain("bplru"));
      vs_vbbms.push_back(gain("vbbms"));
      if (trace == "ts_0" &&
          cells[grid_cell(trace, "bplru", mb)].hit_ratio() <
              cells[grid_cell(trace, "lru", mb)].hit_ratio()) {
        bplru_below_lru_ts0 = true;
      }
    }
  }
  expect_line("Req-block hit gain vs LRU", "+42.9% avg (up to +100%)",
              "+" + format_double(mean_of(vs_lru), 1) + "% avg");
  expect_line("Req-block hit gain vs BPLRU", "+23.6% avg",
              "+" + format_double(mean_of(vs_bplru), 1) + "% avg");
  expect_line("Req-block hit gain vs VBBMS", "+4.1% avg",
              "+" + format_double(mean_of(vs_vbbms), 1) + "% avg");
  expect_line("BPLRU below LRU on ts_0 (small requests vs 64-page blocks)",
              "yes", bplru_below_lru_ts0 ? "yes" : "no");
}

/// ✔ Req-block has the best hit ratio on every (trace, cache size) cell:
/// no baseline's hit ratio exceeds Req-block's in any of the 18 cells.
std::vector<std::string> check(const Cells& cells) {
  std::vector<std::string> failed;
  for (const auto& trace : paper_traces()) {
    for (const std::uint64_t mb : kGridCacheMbs) {
      const RunResult& rb = cells[grid_cell(trace, "reqblock", mb)];
      for (const std::string base : {"lru", "bplru", "vbbms"}) {
        const RunResult& b = cells[grid_cell(trace, base, mb)];
        if (b.hit_ratio() > rb.hit_ratio()) {
          failed.push_back("fig9: " + base + "'s hit ratio exceeds "
                           "Req-block's on " + trace + " at " +
                           std::to_string(mb) + "MB (" +
                           format_double(b.hit_ratio() / rb.hit_ratio(), 3) +
                           " of Req-block)");
        }
      }
    }
  }
  return failed;
}

}  // namespace

const Artifact kFig9 = {"fig9", "Fig. 9: hit ratio (normalized to Req-block)",
                        200000, grid_cells, report, check};

}  // namespace reqblock::benchx
