// Human-readable rendering of a VmLog (debugging aid and the
// `replay_inspector` example).  The format is stable enough to grep but is
// not a parseable interchange format — the spool file (record/log_spool.h)
// is.
#pragma once

#include <string>

#include "record/vm_log.h"

namespace djvu::record {

/// Multi-line textual dump of a complete log.
std::string to_text(const VmLog& log);

/// One-line rendering of a single network log entry.
std::string to_text(const NetworkLogEntry& entry);

}  // namespace djvu::record
