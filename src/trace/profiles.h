// The six workload profiles evaluated in the paper (Table 2).
//
// Each profile is a synthetic stand-in for the corresponding MSR Cambridge
// trace (hm_1, usr_0, src1_2, ts_0, proj_0) or the VDI trace (lun_1),
// tuned so that the generated stream approximates the published statistics:
// request count, write ratio, mean write size, and the relative amount of
// address reuse ("Frequent R/(Wr)" column). See DESIGN.md for the
// substitution rationale.
#pragma once

#include <string>
#include <vector>

#include "trace/synthetic.h"

namespace reqblock::profiles {

/// Statistics the paper reports for each trace (Table 2), used by
/// `reproduce table2` to print paper-vs-measured rows.
struct PaperTraceStats {
  std::uint64_t requests;
  double write_ratio;        // fraction
  double write_size_kb;      // mean write size
  double frequent_ratio;     // "Frequent R"
  double frequent_write_ratio;  // "(Wr)"
};

WorkloadProfile hm_1();
WorkloadProfile lun_1();
WorkloadProfile usr_0();
WorkloadProfile src1_2();
WorkloadProfile ts_0();
WorkloadProfile proj_0();

/// All six, in the paper's Table 2 order (by write ratio).
std::vector<WorkloadProfile> all();

/// Paper-reported stats for a profile name; throws on unknown name.
PaperTraceStats paper_stats(const std::string& name);

/// Profile by name; throws on unknown name.
WorkloadProfile by_name(const std::string& name);

}  // namespace reqblock::profiles
