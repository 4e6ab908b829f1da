#include "record/trace_io.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "common/strutil.h"
#include "record/log_spool.h"

namespace djvu::record {

std::string to_text(const sched::TraceRecord& r) {
  return str_format("gc=%llu t%u %-14s aux=%016llx",
                    static_cast<unsigned long long>(r.gc), r.thread,
                    sched::event_kind_name(r.kind),
                    static_cast<unsigned long long>(r.aux));
}

TraceDiff diff_traces(const TraceFile& a, const TraceFile& b,
                      std::size_t context_events) {
  TraceDiff out;
  const std::size_t n = std::min(a.records.size(), b.records.size());
  std::size_t pos = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a.records[i] == b.records[i])) {
      pos = i;
      break;
    }
  }
  if (pos == n && a.records.size() == b.records.size()) {
    out.identical = true;
    out.description = "traces identical (" +
                      std::to_string(a.records.size()) + " events)";
    return out;
  }
  out.position = pos;
  if (pos < n) {
    out.description = str_format(
        "first divergence at event %zu:\n  A: %s\n  B: %s", pos,
        to_text(a.records[pos]).c_str(), to_text(b.records[pos]).c_str());
  } else {
    out.description = str_format(
        "trace A has %zu events, trace B has %zu; common prefix identical",
        a.records.size(), b.records.size());
  }
  auto fill = [&](const TraceFile& t, std::vector<std::string>& ctx) {
    std::size_t lo = pos >= context_events ? pos - context_events : 0;
    std::size_t hi = std::min(t.records.size(), pos + context_events + 1);
    for (std::size_t i = lo; i < hi; ++i) {
      ctx.push_back(str_format("%s[%zu] %s", i == pos ? ">" : " ", i,
                               to_text(t.records[i]).c_str()));
    }
  };
  fill(a, out.context_a);
  fill(b, out.context_b);
  return out;
}

TraceDiff diff_trace_files(const std::string& path_a,
                           const std::string& path_b,
                           std::size_t context_events, GlobalCount start_gc) {
  LogSource source_a(path_a);
  LogSource source_b(path_b);
  if (start_gc > 0) {
    // Jump to the covering chunk through the index (footer or rebuilt);
    // seek_to_gc returning false just means an empty restricted stream.
    source_a.seek_to_gc(start_gc);
    source_b.seek_to_gc(start_gc);
  }
  TraceRecordStream stream_a(source_a);
  TraceRecordStream stream_b(source_b);

  // A record stream must be gc-ordered for positional comparison to mean
  // anything; enforce it as we go (a multi-threaded spool interleaves
  // per-thread batches and fails here).
  GlobalCount prev_a = 0, prev_b = 0;
  auto pull = [start_gc](TraceRecordStream& s, GlobalCount& prev,
                         const std::string& path) {
    std::optional<sched::TraceRecord> r;
    do {
      r = s.next();
    } while (r && r->gc < start_gc);  // covering chunk may start below
    if (r) {
      if (r->gc < prev) {
        throw UsageError(path +
                         ": trace records out of gc order — not streamable "
                         "(load it with load_spool and use diff_traces)");
      }
      prev = r->gc;
    }
    return r;
  };

  TraceDiff out;
  // Last `context_events` matched records (identical on both sides), for
  // pre-divergence context.
  std::deque<sched::TraceRecord> ring;
  std::size_t pos = 0;
  std::optional<sched::TraceRecord> a, b;
  for (;; ++pos) {
    a = pull(stream_a, prev_a, path_a);
    b = pull(stream_b, prev_b, path_b);
    if (a && b && *a == *b) {
      ring.push_back(*a);
      if (ring.size() > context_events) ring.pop_front();
      continue;
    }
    if (!a && !b) {
      out.identical = true;
      out.description =
          "traces identical (" + std::to_string(pos) + " events)";
      return out;
    }
    break;  // divergence (or one side ended) at `pos`
  }

  out.position = pos;
  if (a && b) {
    out.description =
        str_format("first divergence at event %zu:\n  A: %s\n  B: %s", pos,
                   to_text(*a).c_str(), to_text(*b).c_str());
  } else {
    out.description = str_format(
        "trace %s ended at event %zu while the other continues; common "
        "prefix identical",
        a ? "B" : "A", pos);
  }
  auto fill = [&](const std::optional<sched::TraceRecord>& at,
                  TraceRecordStream& stream, GlobalCount& prev,
                  const std::string& path, std::vector<std::string>& ctx) {
    std::size_t i = pos - ring.size();
    for (const sched::TraceRecord& r : ring) {
      ctx.push_back(str_format(" [%zu] %s", i++, to_text(r).c_str()));
    }
    if (!at) return;
    ctx.push_back(str_format(">[%zu] %s", pos, to_text(*at).c_str()));
    for (std::size_t k = 0; k < context_events; ++k) {
      std::optional<sched::TraceRecord> r = pull(stream, prev, path);
      if (!r) break;
      ctx.push_back(str_format(" [%zu] %s", pos + 1 + k, to_text(*r).c_str()));
    }
  };
  fill(a, stream_a, prev_a, path_a, out.context_a);
  fill(b, stream_b, prev_b, path_b, out.context_b);
  return out;
}

}  // namespace djvu::record
