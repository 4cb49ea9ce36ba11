// Figure 3: fraction of large-request pages that are re-accessed while
// cached (LRU, 16 MB). The paper reports 22.0%-37.2% across traces
// (Observation 2): only a minority of large-request pages earn their
// cache residency.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& trace : paper_traces()) {
    add_cell(out, "fig3/" + trace + "/lru/16MB",
             make_case(trace, "lru", 16, cap));
  }
  return out;
}

/// Share of pages inserted by requests larger than `threshold` pages that
/// were hit at least once before leaving the cache.
double large_reuse(const RunResult& r, std::uint32_t threshold) {
  std::uint64_t total = r.cache.pages_retired_by_req_size[0];
  std::uint64_t reused = r.cache.pages_reused_by_req_size[0];
  for (std::uint32_t s = threshold + 1;
       s < r.cache.pages_retired_by_req_size.size(); ++s) {
    total += r.cache.pages_retired_by_req_size[s];
    reused += r.cache.pages_reused_by_req_size[s];
  }
  return total == 0 ? 0.0
                    : static_cast<double>(reused) /
                          static_cast<double>(total);
}

void report(const Cells& cells) {
  TextTable t({"Trace", "large-req pages re-accessed", "paper band"});
  std::vector<double> values;
  for (const auto& trace : paper_traces()) {
    const RunResult& r = cells["fig3/" + trace + "/lru/16MB"];
    const auto paper = profiles::paper_stats(trace);
    const auto avg_pages =
        static_cast<std::uint32_t>(paper.write_size_kb / 4.0 + 0.5);
    const double v = large_reuse(r, avg_pages);
    values.push_back(v);
    t.add_row({trace, format_double(v * 100, 1) + "%", "22.0% - 37.2%"});
  }
  t.print(std::cout);
  expect_line("large-request page reuse", "22.0%-37.2% across traces",
              format_double(*std::min_element(values.begin(), values.end()) *
                                100, 1) + "%-" +
                  format_double(*std::max_element(values.begin(),
                                                  values.end()) * 100, 1) +
                  "%");
  std::cout << "Shape check: in every trace only a minority of\n"
               "large-request pages is ever re-accessed, motivating the\n"
               "DRL split mechanism.\n";
}

}  // namespace

const Artifact kFig3 = {"fig3",
                        "Fig. 3: reuse of large-request pages (LRU, 16MB)",
                        300000, cells, report};

}  // namespace reqblock::benchx
