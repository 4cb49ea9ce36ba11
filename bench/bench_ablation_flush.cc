// Ablation A3: striped vs colocated batch flush (§4.2.4's parallelism
// claim), plus BPLRU's page-padding cost.
//
//   reqblock-striped     victim batch round-robins across all channels
//   reqblock-colocated   victim batch pinned to one channel
//   bplru                whole-block colocated flush (default, no padding)
//   bplru-padding        + read-and-rewrite the block's missing pages
//
// Expectation: striping the batch is the reason batch eviction improves
// response time; colocating Req-block's batches erases much of its
// latency advantage, and padding makes BPLRU strictly worse.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& trace : paper_traces()) {
    {
      ExperimentCase c = make_case(trace, "reqblock", 32, cap);
      add_cell(out, "ablation_flush/" + trace + "/reqblock-striped", c);
    }
    {
      ExperimentCase c = make_case(trace, "reqblock", 32, cap);
      c.options.policy.reqblock.colocate_flush = true;
      add_cell(out, "ablation_flush/" + trace + "/reqblock-colocated", c);
    }
    {
      ExperimentCase c = make_case(trace, "bplru", 32, cap);
      add_cell(out, "ablation_flush/" + trace + "/bplru", c);
    }
    {
      ExperimentCase c = make_case(trace, "bplru", 32, cap);
      c.options.policy.bplru.page_padding = true;
      add_cell(out, "ablation_flush/" + trace + "/bplru-padding", c);
    }
    {
      ExperimentCase c = make_case(trace, "bplru", 32, cap);
      c.options.policy.bplru.block_unit_allocation = true;
      add_cell(out, "ablation_flush/" + trace + "/bplru-unitalloc", c);
    }
  }
  return out;
}

void report(const Cells& cells) {
  TextTable t({"Trace", "RB striped (ms)", "RB colocated (ms)",
               "BPLRU (ms)", "BPLRU+padding (ms)", "padding writes",
               "BPLRU unit-alloc hit%"});
  int striping_wins = 0;
  for (const auto& trace : paper_traces()) {
    auto get = [&](const std::string& v) -> const RunResult& {
      return cells["ablation_flush/" + trace + "/" + v];
    };
    const RunResult& striped = get("reqblock-striped");
    const RunResult& colocated = get("reqblock-colocated");
    const RunResult& padded = get("bplru-padding");
    if (striped.response.mean() < colocated.response.mean()) {
      ++striping_wins;
    }
    t.add_row({trace, format_double(striped.mean_response_ms(), 3),
               format_double(colocated.mean_response_ms(), 3),
               format_double(get("bplru").mean_response_ms(), 3),
               format_double(padded.mean_response_ms(), 3),
               std::to_string(padded.cache.padding_pages),
               format_double(get("bplru-unitalloc").hit_ratio() * 100, 2) +
                   "%"});
  }
  t.print(std::cout);
  expect_line("striped flush faster than colocated",
              "channel-parallelism claim, §4.2.4",
              std::to_string(striping_wins) + "/6 traces");
}

}  // namespace

const Artifact kAblationFlush = {
    "ablation_flush", "Ablation A3: striped vs colocated batch flush", 200000,
    cells, report};

}  // namespace reqblock::benchx
