#include "record/log_stats.h"

#include <limits>

#include "common/strutil.h"
#include "record/log_spool.h"

namespace djvu::record {

LogStats compute_stats(const VmLog& log) {
  LogStats s;
  s.threads = log.schedule.per_thread.size();
  s.critical_events = log.stats.critical_events;
  s.min_interval_len = std::numeric_limits<GlobalCount>::max();

  GlobalCount encoded_events = 0;
  for (const auto& list : log.schedule.per_thread) {
    GlobalCount prev_end = 0;
    for (const auto& lsi : list) {
      ++s.intervals;
      GlobalCount len = lsi.length();
      encoded_events += len;
      s.min_interval_len = std::min(s.min_interval_len, len);
      s.max_interval_len = std::max(s.max_interval_len, len);
      s.schedule_bytes +=
          varint_size(lsi.first - prev_end) + varint_size(lsi.last - lsi.first);
      prev_end = lsi.last;
    }
  }
  if (s.intervals == 0) s.min_interval_len = 0;
  s.mean_interval_len =
      s.intervals ? static_cast<double>(encoded_events) /
                        static_cast<double>(s.intervals)
                  : 0;
  s.events_per_interval =
      s.intervals ? static_cast<double>(s.critical_events) /
                        static_cast<double>(s.intervals)
                  : 0;

  s.network_entries = log.network.size();
  s.content_bytes = log.network.content_bytes();
  for (ThreadNum t : log.network.threads()) {
    for (const auto& e : log.network.thread_entries(t)) {
      ++s.entries_by_kind[sched::event_kind_name(e.kind)];
      if (e.error != NetErrorCode::kNone) ++s.exception_entries;
    }
  }
  s.serialized_bytes = spool_item_bytes(log);
  return s;
}

LogStats compute_stats(const VmLog& log, const sched::SchedStats& sched) {
  LogStats s = compute_stats(log);
  s.has_sched = true;
  s.sched = sched;
  return s;
}

std::string to_text(const LogStats& s) {
  std::string out;
  out += str_format(
      "schedule: %zu threads, %llu critical events in %zu intervals\n",
      s.threads, static_cast<unsigned long long>(s.critical_events),
      s.intervals);
  out += str_format(
      "  interval length min/mean/max = %llu / %.1f / %llu "
      "(%.1f events encoded per interval)\n",
      static_cast<unsigned long long>(s.min_interval_len),
      s.mean_interval_len, static_cast<unsigned long long>(s.max_interval_len),
      s.events_per_interval);
  out += str_format("network log: %zu entries (%zu exceptions), %s of "
                    "open-world content\n",
                    s.network_entries, s.exception_entries,
                    human_bytes(s.content_bytes).c_str());
  for (const auto& [kind, count] : s.entries_by_kind) {
    out += str_format("  %-16s %zu\n", kind.c_str(), count);
  }
  out += str_format("bytes: %s total serialized, %s schedule encoding\n",
                    human_bytes(s.serialized_bytes).c_str(),
                    human_bytes(s.schedule_bytes).c_str());
  if (s.has_sched) out += sched::to_text(s.sched);
  return out;
}

std::string to_json(const LogStats& s) {
  std::string out = "{";
  out += str_format("\"threads\": %zu, ", s.threads);
  out += str_format("\"intervals\": %zu, ", s.intervals);
  out += str_format("\"critical_events\": %llu, ",
                    static_cast<unsigned long long>(s.critical_events));
  out += str_format("\"min_interval_len\": %llu, ",
                    static_cast<unsigned long long>(s.min_interval_len));
  out += str_format("\"max_interval_len\": %llu, ",
                    static_cast<unsigned long long>(s.max_interval_len));
  out += str_format("\"mean_interval_len\": %.3f, ", s.mean_interval_len);
  out += str_format("\"events_per_interval\": %.3f, ", s.events_per_interval);
  out += str_format("\"network_entries\": %zu, ", s.network_entries);
  out += str_format("\"exception_entries\": %zu, ", s.exception_entries);
  out += str_format("\"content_bytes\": %zu, ", s.content_bytes);
  out += str_format("\"serialized_bytes\": %zu, ", s.serialized_bytes);
  out += str_format("\"schedule_bytes\": %zu, ", s.schedule_bytes);
  out += "\"entries_by_kind\": {";
  bool first = true;
  for (const auto& [kind, count] : s.entries_by_kind) {
    if (!first) out += ", ";
    first = false;
    out += str_format("\"%s\": %zu", kind.c_str(), count);
  }
  out += "}}";
  return out;
}

}  // namespace djvu::record
