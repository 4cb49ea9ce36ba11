// Figure 12: replacement-metadata footprint of each scheme as a share of
// the data-cache capacity (node-size model: LRU 12 B/page, BPLRU & VBBMS
// 24 B/(virtual) block, Req-block 32 B/request block). The paper reports
// averages of 0.29% (LRU), 0.32% (BPLRU), 0.53% (VBBMS) and 0.41%
// (Req-block) — all negligible.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

/// Metadata share of `policy`'s cache at `mb`, in percent, averaged over
/// the traces: one cell of the report's table.
double metadata_pct(const Cells& cells, const std::string& policy,
                    std::uint64_t mb) {
  std::vector<double> pcts;
  for (const auto& trace : paper_traces()) {
    pcts.push_back(metadata_percent(cells[grid_cell(trace, policy, mb)]));
  }
  return mean_of(pcts);
}

void report(const Cells& cells) {
  TextTable t({"Policy", "16MB", "32MB", "64MB", "avg %", "paper avg %",
               "avg KB"});
  const std::map<std::string, std::string> paper_pct = {
      {"lru", "0.29"}, {"bplru", "0.32"}, {"vbbms", "0.53"},
      {"reqblock", "0.41"}};
  for (const auto& policy : paper_policies()) {
    std::vector<std::string> row;
    std::vector<double> all_pct;
    double avg_bytes = 0.0;
    int n = 0;
    row.push_back(policy);
    for (const std::uint64_t mb : kGridCacheMbs) {
      for (const auto& trace : paper_traces()) {
        const RunResult& r = cells[grid_cell(trace, policy, mb)];
        all_pct.push_back(metadata_percent(r));
        avg_bytes += r.cache.metadata_bytes.mean();
        ++n;
      }
      row.push_back(format_double(metadata_pct(cells, policy, mb), 3) + "%");
    }
    row.push_back(format_double(mean_of(all_pct), 3) + "%");
    row.push_back(paper_pct.at(policy) + "%");
    row.push_back(format_double(avg_bytes / std::max(1, n) / 1024.0, 1) +
                  "KB");
    t.add_row(row);
  }
  std::cout << "Metadata footprint as % of data-cache capacity\n"
               "(averaged over traces):\n";
  t.print(std::cout);
  std::cout << "\nShape check: every scheme stays well below 1% of the\n"
               "cache; Req-block's 32-byte request-block nodes cost about\n"
               "as little as the page/block schemes (paper: 67.6-271.6 KB\n"
               "across 16-64MB caches).\n";
}

/// ✔ Every scheme's metadata stays at or below 0.5% of the cache in every
/// cache-size column.
std::vector<std::string> check(const Cells& cells) {
  std::vector<std::string> failed;
  for (const auto& policy : paper_policies()) {
    for (const std::uint64_t mb : kGridCacheMbs) {
      const double pct = metadata_pct(cells, policy, mb);
      if (!(pct <= 0.5)) {
        failed.push_back("fig12: " + policy + "'s metadata is " +
                         format_double(pct, 3) + "% of a " +
                         std::to_string(mb) + "MB cache, above 0.5%");
      }
    }
  }
  return failed;
}

}  // namespace

const Artifact kFig12 = {"fig12", "Fig. 12: space overhead", 200000,
                         grid_cells, report, check};

}  // namespace reqblock::benchx
