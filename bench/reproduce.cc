// reproduce: regenerates the paper's Table 2 and Figs. 2-13, ablations
// A1-A3, the ledger studies and the GC study from one table of
// artifacts.
//
//   reproduce [NAME...] [--checkpoint-dir DIR] [--checkpoint-every-n N]
//   reproduce --help
//
// NAMEs are artifact names (table2, fig2, ..., gc); with none, every
// artifact runs, in table order. reproduce collects the cells of the
// selected artifacts and simulates each distinct cell (same config
// fingerprint, same trace identity) once: Figs. 8, 9, 11 and 12 share one
// grid, and Fig. 10 and the ablations reuse parts of it. The cells run in
// parallel through run_cases, checkpointed or not. With --checkpoint-dir
// the run is resumable, as in run_matrix: a run killed at any point and
// rerun with the same arguments resumes and prints the same bytes.
// Each artifact then prints its header and report, in the order named.
//
// After the last report, the ✔ claims of EXPERIMENTS.md that the selected
// artifacts check (Figs. 8, 9, 11 and 12) are tested. Each failed claim is
// named on stderr and the exit status is 1; stdout does not change.
//
// REQBLOCK_BENCH_REQUESTS overrides every artifact's request cap (0 =
// full-length traces). A malformed value, an unknown artifact name or an
// unknown flag exits 1 before anything runs.
#include <algorithm>
#include <iostream>
#include <iterator>
#include <stdexcept>

#include "bench_common.h"
#include "util/args.h"

namespace reqblock::benchx {
namespace {

/// The table, in the order a bare `reproduce` prints it.
const Artifact* const kArtifacts[] = {
    &kTable2, &kFig2, &kFig3, &kFig7, &kFig8, &kFig9, &kFig10, &kFig11,
    &kFig12, &kFig13, &kAblationFreq, &kAblationMerge, &kAblationFlush,
    &kAttribution, &kIntegrity, &kSoak, &kMultitenant, &kOverload, &kGc};

/// Every artifact name in table order, each after a space.
std::string artifact_names() {
  std::string known;
  for (const Artifact* a : kArtifacts) known += std::string(" ") + a->name;
  return known;
}

/// The artifacts `names` selects, in that order; every artifact when
/// `names` is empty.
std::vector<const Artifact*> select(const std::vector<std::string>& names) {
  if (names.empty()) return {std::begin(kArtifacts), std::end(kArtifacts)};
  std::vector<const Artifact*> selected;
  for (const std::string& name : names) {
    const auto it =
        std::find_if(std::begin(kArtifacts), std::end(kArtifacts),
                     [&](const Artifact* a) { return name == a->name; });
    if (it == std::end(kArtifacts)) {
      throw std::invalid_argument("unknown artifact '" + name +
                                  "'; artifacts:" + artifact_names());
    }
    selected.push_back(*it);
  }
  return selected;
}

/// The device size of an artifact's cells, which share one device, or the
/// experiment default for an artifact that simulates nothing.
std::uint64_t device_bytes(const Cells& cells) {
  if (cells.slots.empty()) {
    return SsdConfig::experiment_default().capacity_bytes;
  }
  return (*cells.cases)[cells.slots.begin()->second]
      .options.ssd.capacity_bytes;
}

void print_header(const Artifact& a, const Cells& cells) {
  std::cout << "=== " << a.title << " ===\n"
            << "Device: Table 1 geometry on a "
            << format_bytes(static_cast<double>(device_bytes(cells)))
            << " device (see DESIGN.md).\n"
            << "Requests per trace via REQBLOCK_BENCH_REQUESTS (0 = full "
               "traces).\n\n\n";
}

int run(const ArgParser& args) {
  if (args.has("help")) {
    std::cout << "usage: " << args.program()
              << " [NAME...] [--checkpoint-dir DIR] [--checkpoint-every-n N]\n"
              << "artifacts:" << artifact_names() << "\n";
    return 0;
  }
  CheckpointOptions ckpt;
  ckpt.apply_cli(args);
  args.reject_unread();
  check_env_levels();
  const std::vector<const Artifact*> selected = select(args.positional());

  // One case per distinct cell; each artifact's view maps its labels to
  // the shared cases.
  std::vector<ExperimentCase> cases;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> distinct;
  std::vector<Cells> views(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Artifact& a = *selected[i];
    views[i].cap = bench_request_cap(a.default_cap);
    if (a.cells == nullptr) continue;
    for (ExperimentCase& c : a.cells(views[i].cap)) {
      const std::pair key{config_fingerprint(c.options),
                          SyntheticTraceSource(c.profile).identity_hash()};
      const auto [it, added] = distinct.emplace(key, cases.size());
      views[i].slots.emplace(c.label, it->second);
      if (added) cases.push_back(std::move(c));
    }
  }
  const std::vector<RunResult> results = run_cases(cases, 0, ckpt);

  std::vector<std::string> failed;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Artifact& a = *selected[i];
    views[i].cases = &cases;
    views[i].results = &results;
    print_header(a, views[i]);
    a.report(views[i]);
    if (a.check == nullptr) continue;
    for (std::string& claim : a.check(views[i])) {
      failed.push_back(std::move(claim));
    }
  }
  for (const std::string& claim : failed) {
    std::cerr << "reproduce: claim failed: " << claim << "\n";
  }
  return failed.empty() ? 0 : 1;
}

}  // namespace
}  // namespace reqblock::benchx

int main(int argc, char** argv) try {
  return reqblock::benchx::run(reqblock::ArgParser(argc, argv));
} catch (const std::exception& e) {
  std::cerr << "reproduce: " << e.what() << "\n";
  return 1;
}
