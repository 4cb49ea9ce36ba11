// Figure 7: sensitivity of Req-block's delta (the SRL size limit) on hit
// ratio and I/O response time, with a 32 MB cache, normalized to delta=1.
// The paper selects delta = 5 as its default.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

constexpr std::uint32_t kMaxDelta = 9;

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& trace : paper_traces()) {
    for (std::uint32_t delta = 1; delta <= kMaxDelta; ++delta) {
      add_cell(out, "fig7/" + trace + "/delta" + std::to_string(delta),
               make_case(trace, "reqblock", 32, cap, delta));
    }
  }
  return out;
}

void report(const Cells& cells) {
  TextTable hit({"Trace", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8",
                 "d9", "best"});
  TextTable resp({"Trace", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8",
                  "d9", "best"});
  std::vector<double> best_deltas;
  for (const auto& trace : paper_traces()) {
    std::vector<std::string> hrow{trace}, rrow{trace};
    double base_hit = 0.0, base_resp = 0.0;
    std::uint32_t best = 1;
    double best_hit = 0.0;
    for (std::uint32_t delta = 1; delta <= kMaxDelta; ++delta) {
      const RunResult& r =
          cells["fig7/" + trace + "/delta" + std::to_string(delta)];
      if (delta == 1) {
        base_hit = r.hit_ratio();
        base_resp = r.response.mean();
      }
      if (r.hit_ratio() > best_hit) {
        best_hit = r.hit_ratio();
        best = delta;
      }
      hrow.push_back(format_double(r.hit_ratio() / base_hit, 3));
      rrow.push_back(format_double(r.response.mean() / base_resp, 3));
    }
    hrow.push_back("d" + std::to_string(best));
    rrow.push_back("d" + std::to_string(best));
    best_deltas.push_back(best);
    hit.add_row(hrow);
    resp.add_row(rrow);
  }
  std::cout << "Hit ratio normalized to delta=1:\n";
  hit.print(std::cout);
  std::cout << "\nMean response time normalized to delta=1:\n";
  resp.print(std::cout);
  expect_line("best delta", "5 for most traces",
              "per-trace best in the tables above (mean " +
                  format_double(mean_of(best_deltas), 1) + ")");
}

}  // namespace

const Artifact kFig7 = {"fig7", "Fig. 7: delta sensitivity (Req-block, 32MB)",
                        150000, cells, report};

}  // namespace reqblock::benchx
