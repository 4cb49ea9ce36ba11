#include "telemetry/telemetry.h"

namespace reqblock {

void TelemetryOptions::apply_cli(const ArgParser& args,
                                 std::string_view prefix) {
  apply_knobs(kTelemetryKnobs, *this, args, prefix);
}

}  // namespace reqblock
