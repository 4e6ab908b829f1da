// Tests for trace persistence (trace spools, record/log_spool) and diffing
// (record/trace_io), and log statistics (record/log_stats).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/session.h"
#include "record/log_spool.h"
#include "record/log_stats.h"
#include "record/trace_io.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace djvu::record {
namespace {

TraceFile sample_trace() {
  TraceFile t;
  t.vm_id = 3;
  GlobalCount gc = 0;
  for (int i = 0; i < 200; ++i) {
    sched::TraceRecord r;
    r.gc = gc;
    gc += 1 + (i % 5 == 0);  // occasional gap (other-VM-ish)
    r.thread = static_cast<ThreadNum>(i % 4);
    r.kind = (i % 7 == 0) ? sched::EventKind::kSockRead
                          : sched::EventKind::kSharedWrite;
    r.aux = static_cast<std::uint64_t>(i) * 0x9e3779b9;
    t.records.push_back(r);
  }
  return t;
}

/// Saves `t` as a trace spool and loads it back.
TraceFile spool_round_trip(const TraceFile& t) {
  const std::string path = testing::TempDir() + "/djvu_trace_test.djvuspool";
  save_trace_spool(t, path);
  TraceFile back = load_spool(path).trace;
  std::remove(path.c_str());
  return back;
}

TEST(TraceIo, RoundTrip) {
  TraceFile t = sample_trace();
  EXPECT_EQ(spool_round_trip(t), t);
}

// Several records can share one counter value (e.g. a multi-record critical
// event): the gc-delta encoding must handle delta 0, not just gaps.
TEST(TraceIo, DuplicateGcRecordsRoundTrip) {
  TraceFile t;
  t.vm_id = 1;
  for (int i = 0; i < 6; ++i) {
    sched::TraceRecord r;
    r.gc = static_cast<GlobalCount>(i / 3);  // 0,0,0,1,1,1
    r.thread = static_cast<ThreadNum>(i);
    r.kind = sched::EventKind::kSharedRead;
    r.aux = static_cast<std::uint64_t>(i);
    t.records.push_back(r);
  }
  EXPECT_EQ(spool_round_trip(t), t);
}

// Gc deltas, thread numbers and aux payloads at varint/word boundaries must
// survive the round trip bit-exactly.
TEST(TraceIo, VarintBoundaryValuesRoundTrip) {
  const std::uint64_t deltas[] = {0,          1,          0x7f,
                                  0x80,       0x3fff,     0x4000,
                                  0x1fffff,   0x200000,   0xffffffffull,
                                  1ull << 32, 1ull << 56};
  TraceFile t;
  t.vm_id = 0xffffffffu;
  GlobalCount gc = 0;
  int i = 0;
  for (std::uint64_t d : deltas) {
    gc += d;
    sched::TraceRecord r;
    r.gc = gc;
    r.thread = (i % 2 == 0) ? 0x7f : 0x80;  // one- vs two-byte varint
    r.kind = sched::EventKind::kSharedWrite;
    r.aux = (i % 2 == 0) ? ~std::uint64_t{0} : (1ull << 63);
    t.records.push_back(r);
    ++i;
  }
  TraceFile back = spool_round_trip(t);
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.records.back().gc, gc);
}

TEST(TraceIo, DiffIdentical) {
  TraceFile t = sample_trace();
  auto diff = diff_traces(t, t);
  EXPECT_TRUE(diff.identical);
}

TEST(TraceIo, DiffFindsFirstDifference) {
  TraceFile a = sample_trace();
  TraceFile b = a;
  b.records[57].aux ^= 1;
  auto diff = diff_traces(a, b);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.position, 57u);
  EXPECT_FALSE(diff.context_a.empty());
  EXPECT_FALSE(diff.context_b.empty());
}

TEST(TraceIo, DiffLengthMismatch) {
  TraceFile a = sample_trace();
  TraceFile b = a;
  b.records.pop_back();
  auto diff = diff_traces(a, b);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.position, b.records.size());
}

TEST(TraceIo, SessionSaveTraces) {
  core::Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    for (int i = 0; i < 10; ++i) x.set(x.get() + 1);
  });
  auto rec = s.record(1);
  const std::string dir = testing::TempDir() + "/djvu_save_traces";
  std::filesystem::create_directories(dir);
  core::Session::save_traces(rec, dir);
  TraceFile loaded = load_spool(dir + "/app.djvuspool").trace;
  EXPECT_EQ(loaded.vm_id, rec.vm("app").vm_id);
  EXPECT_EQ(loaded.records.size(), rec.vm("app").trace.size());
  // Replay trace diffs clean against the loaded record trace.
  auto rep = s.replay(rec, 2);
  TraceFile replay_trace{rep.vm("app").vm_id, rep.vm("app").trace};
  EXPECT_TRUE(diff_traces(loaded, replay_trace).identical);
  std::filesystem::remove_all(dir);
}

TEST(LogStats, CountsScheduleShape) {
  VmLog log;
  log.vm_id = 1;
  log.stats.critical_events = 120;
  log.schedule.per_thread = {
      {{0, 49}, {100, 119}},  // lengths 50, 20
      {{50, 99}},             // length 50
  };
  LogStats s = compute_stats(log);
  EXPECT_EQ(s.threads, 2u);
  EXPECT_EQ(s.intervals, 3u);
  EXPECT_EQ(s.min_interval_len, 20u);
  EXPECT_EQ(s.max_interval_len, 50u);
  EXPECT_DOUBLE_EQ(s.mean_interval_len, 40.0);
  EXPECT_DOUBLE_EQ(s.events_per_interval, 40.0);
  EXPECT_GT(s.schedule_bytes, 0u);
  EXPECT_GT(s.serialized_bytes, s.schedule_bytes);
}

TEST(LogStats, CountsNetworkShape) {
  VmLog log;
  log.vm_id = 1;
  NetworkLogEntry read;
  read.kind = sched::EventKind::kSockRead;
  read.event_num = 0;
  read.value = 5;
  read.data = to_bytes("12345");
  log.network.append(0, std::move(read));
  NetworkLogEntry err;
  err.kind = sched::EventKind::kSockConnect;
  err.event_num = 1;
  err.error = NetErrorCode::kConnectionRefused;
  log.network.append(0, std::move(err));

  LogStats s = compute_stats(log);
  EXPECT_EQ(s.network_entries, 2u);
  EXPECT_EQ(s.content_bytes, 5u);
  EXPECT_EQ(s.exception_entries, 1u);
  EXPECT_EQ(s.entries_by_kind.at("sock-read"), 1u);
  EXPECT_EQ(s.entries_by_kind.at("sock-connect"), 1u);

  std::string text = to_text(s);
  EXPECT_NE(text.find("sock-read"), std::string::npos);
  EXPECT_NE(text.find("1 exceptions"), std::string::npos);
}

// Scheduler self-measurements ride along with a run and can be attached to
// the log statistics.  Replay must show O(1) wakeups per critical event —
// the targeted-wakeup acceptance metric.
TEST(LogStats, AttachesSchedulerSnapshot) {
  core::Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    vm::VmThread t(v, [&x] {
      for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
    });
    for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
    t.join();
  });
  auto rec = s.record(1);
  // Record mode counts GC-critical sections, never replay ticks.
  EXPECT_GE(rec.vm("app").sched.sections, 100u);
  EXPECT_EQ(rec.vm("app").sched.ticks, 0u);

  auto rep = s.replay(rec, 2);
  const sched::SchedStats& rs = rep.vm("app").sched;
  // With interval leasing (the default) events complete under leases with
  // one publication per interval; ticks only count non-leased events.
  EXPECT_GE(rs.ticks + rs.leased_events, 100u);
  EXPECT_GT(rs.leases_taken, 0u);
  EXPECT_LE(rs.lease_publish_count, rs.leased_events);
  // One await per tick plus one per lease — never one per leased event.
  EXPECT_EQ(rs.waits_fast + rs.waits_parked, rs.ticks + rs.leases_taken);
  EXPECT_LE(rs.wakeups_delivered + rs.wakeups_spurious,
            rs.ticks + rs.lease_publish_count);
  EXPECT_EQ(rs.stall_detections, 0u);

  LogStats stats = compute_stats(*rec.vm("app").log, rs);
  EXPECT_TRUE(stats.has_sched);
  EXPECT_NE(to_text(stats).find("scheduler:"), std::string::npos);
  EXPECT_NE(to_text(stats).find("wakeups:"), std::string::npos);
}

// On a real recording: the mean interval length times the interval count
// accounts for every critical event (partition property, I1 again but via
// the stats path).
TEST(LogStats, RealRecordingPartition) {
  core::Session s;
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 100; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  auto rec = s.record(5);
  LogStats stats = compute_stats(*rec.vm("app").log);
  EXPECT_NEAR(stats.mean_interval_len * static_cast<double>(stats.intervals),
              static_cast<double>(stats.critical_events), 0.5);
}

}  // namespace
}  // namespace djvu::record
