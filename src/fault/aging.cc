#include "fault/aging.h"

#include <stdexcept>

namespace reqblock {

void AgingPlan::validate() const {
  check_knobs(kAgingKnobs, *this);
  if ((wear_program_fail_max > 0.0 || wear_erase_fail_max > 0.0) &&
      rated_pe_cycles == 0) {
    throw std::invalid_argument(
        "wear ramps need rated_pe_cycles > 0 to anchor the curve");
  }
  if (read_disturb_fail_max > 0.0 && read_disturb_limit == 0) {
    throw std::invalid_argument(
        "read_disturb_fail_max needs read_disturb_limit > 0");
  }
  if (retention_fail_max > 0.0 && retention_age_limit == 0) {
    throw std::invalid_argument(
        "retention_fail_max needs retention_age_limit > 0");
  }
}

AgingModel::AgingModel(const AgingPlan& plan) : plan_(plan) {
  plan_.validate();
  if (plan_.rated_pe_cycles > 0) {
    inv_rated_ = 1.0 / static_cast<double>(plan_.rated_pe_cycles);
  }
  if (plan_.read_disturb_limit > 0) {
    inv_disturb_ = 1.0 / static_cast<double>(plan_.read_disturb_limit);
  }
  if (plan_.retention_age_limit > 0) {
    inv_retention_ = 1.0 / static_cast<double>(plan_.retention_age_limit);
  }
}

}  // namespace reqblock
