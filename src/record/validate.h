// Structural validation of a loaded log.
//
// The spool's chunk CRCs catch bit rot; validate() catches *semantic*
// corruption (or a buggy producer): schedules that do not partition the
// global order, entries for threads with no schedule, impossible values.
// Running it before replay turns "mysterious divergence 40 seconds in"
// into "bad log, here's why" (invariant I7's semantic half).
#pragma once

#include <string>
#include <vector>

#include "record/vm_log.h"

namespace djvu::record {

/// Problems found in a log (empty == valid).
std::vector<std::string> validate(const VmLog& log);

/// Throws LogFormatError listing every problem when the log is invalid.
void validate_or_throw(const VmLog& log);

}  // namespace djvu::record
