// Ablation A1: which terms of the eviction score (Eq. 1) matter?
//
//   full        Access_cnt / (Page_num * age)   — the paper
//   no-time     Access_cnt / Page_num           — drop recency decay
//   no-size     Access_cnt / age                — drop the size bias
//   count-only  Access_cnt                      — pure frequency
//
// Run on every trace at 32 MB. Expectation: the full formula is the most
// robust across traces; dropping the size term hurts most on large-write
// traces (src1_2, proj_0) because big cold blocks stop being penalized.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

const FreqMode kModes[] = {FreqMode::kFull, FreqMode::kNoTime,
                           FreqMode::kNoSize, FreqMode::kCountOnly};

std::string cell(const std::string& trace, FreqMode mode) {
  return std::string("ablation_freq/") + trace + "/" + to_string(mode);
}

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& trace : paper_traces()) {
    for (const FreqMode mode : kModes) {
      ExperimentCase c = make_case(trace, "reqblock", 32, cap);
      c.options.policy.reqblock.freq_mode = mode;
      add_cell(out, cell(trace, mode), c);
    }
  }
  return out;
}

void report(const Cells& cells) {
  TextTable t({"Trace", "full (hit%)", "no-time", "no-size", "count-only"});
  int full_best_or_close = 0;
  for (const auto& trace : paper_traces()) {
    std::vector<std::string> row{trace};
    const RunResult& full = cells[cell(trace, FreqMode::kFull)];
    row.push_back(format_double(full.hit_ratio() * 100, 2) + "%");
    double best_other = 0.0;
    for (const FreqMode mode :
         {FreqMode::kNoTime, FreqMode::kNoSize, FreqMode::kCountOnly}) {
      const RunResult& r = cells[cell(trace, mode)];
      best_other = std::max(best_other, r.hit_ratio());
      row.push_back(format_double(r.hit_ratio() / full.hit_ratio(), 3));
    }
    if (full.hit_ratio() >= best_other * 0.98) ++full_best_or_close;
    t.add_row(row);
  }
  std::cout << "Hit ratio by Eq. 1 variant (normalized to full):\n";
  t.print(std::cout);
  expect_line("full Eq. 1 best or within 2% of best",
              "design claim (paper uses the full formula)",
              std::to_string(full_best_or_close) + "/6 traces");
}

}  // namespace

const Artifact kAblationFreq = {"ablation_freq",
                                "Ablation A1: eviction-score variants", 200000,
                                cells, report};

}  // namespace reqblock::benchx
