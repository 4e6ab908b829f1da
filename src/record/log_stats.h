// Descriptive statistics over a recorded log.
//
// Quantifies the paper's efficiency narrative on real recordings: how many
// critical events each schedule interval encodes ("we have found it typical
// for a schedule interval to consist of thousands of critical events, all
// of which can be efficiently encoded by two ... counter values"), how log
// bytes split between schedule, network outcomes and open-world content,
// and the per-kind event profile.  Used by the replay_inspector example and
// asserted in tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "record/vm_log.h"
#include "sched/sched_stats.h"

namespace djvu::record {

/// Aggregate statistics of one VmLog.
struct LogStats {
  // Schedule shape.
  std::size_t threads = 0;
  std::size_t intervals = 0;
  GlobalCount critical_events = 0;
  GlobalCount min_interval_len = 0;
  GlobalCount max_interval_len = 0;
  double mean_interval_len = 0;
  /// The §2.2 efficiency ratio: critical events per interval (== events
  /// encoded per two log varints).
  double events_per_interval = 0;

  // Network log shape.
  std::size_t network_entries = 0;
  std::size_t content_bytes = 0;  // open-world recorded payload bytes
  std::map<std::string, std::size_t> entries_by_kind;
  std::size_t exception_entries = 0;

  // Byte budget.
  /// The spool item bytes of the log (record::spool_item_bytes): the
  /// Tables 1–2 "log size".
  std::size_t serialized_bytes = 0;
  std::size_t schedule_bytes = 0;  // the delta-varint interval encoding

  // Scheduler self-measurements of the run that produced (or replayed)
  // the log.  Not part of the log itself — supplied by the caller
  // from Vm::sched_stats() / VmRunInfo::sched when available.
  bool has_sched = false;
  sched::SchedStats sched{};
};

/// Computes statistics for one log.
LogStats compute_stats(const VmLog& log);

/// Same, attaching a scheduler snapshot from the run (rendered by to_text).
LogStats compute_stats(const VmLog& log, const sched::SchedStats& sched);

/// Multi-line human-readable rendering.
std::string to_text(const LogStats& stats);

/// Single JSON object (schedule shape, network shape, byte budget); used by
/// the replay doctor's machine-readable report.
std::string to_json(const LogStats& stats);

}  // namespace djvu::record
