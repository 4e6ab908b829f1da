// Failure injection: tampered logs and mismatched applications must surface
// as ReplayDivergenceError — never as silent misreplay (invariant I2) — and
// the report must blame the VM that diverged.

#include <gtest/gtest.h>

#include "core/session.h"
#include "tests/test_util.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using core::Session;

Session counter_app(std::uint64_t* out) {
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(400);  // fast deadlock tests
  Session s(cfg);
  s.add_vm("app", 1, true, [out](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
    if (out != nullptr) *out = x.unsafe_peek();
  });
  return s;
}

std::vector<record::VmLog> logs_of(const core::RunResult& rec) {
  std::vector<record::VmLog> logs;
  for (const auto& info : rec.vms) {
    if (info.log) logs.push_back(*info.log);
  }
  return logs;
}

TEST(Divergence, TruncatedScheduleDetected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(1);
  auto logs = logs_of(rec);
  // Drop the last interval of thread 1: that thread now has fewer recorded
  // events than it will attempt.
  ASSERT_FALSE(logs[0].schedule.per_thread[1].empty());
  logs[0].schedule.per_thread[1].pop_back();
  EXPECT_THROW(s.replay_logs(logs, 2), ReplayDivergenceError);
}

TEST(Divergence, ShiftedIntervalDetected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(3);
  auto logs = logs_of(rec);
  // Shift one interval: two threads now claim the same counter values.
  auto& list = logs[0].schedule.per_thread[2];
  ASSERT_FALSE(list.empty());
  list[0].first += 1;
  list[0].last += 1;
  EXPECT_THROW(s.replay_logs(logs, 4), ReplayDivergenceError);
}

TEST(Divergence, WrongAppMoreThreadsDetected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(5);
  auto logs = logs_of(rec);
  // Replay a DIFFERENT application (4 threads instead of 3).
  core::SessionConfig ocfg;
  ocfg.tuning.stall_timeout = std::chrono::milliseconds(400);
  Session other(ocfg);
  other.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  EXPECT_THROW(other.replay_logs(logs, 6), ReplayDivergenceError);
}

TEST(Divergence, WrongAppFewerEventsDetected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(7);
  auto logs = logs_of(rec);
  core::SessionConfig ocfg;
  ocfg.tuning.stall_timeout = std::chrono::milliseconds(400);
  Session other(ocfg);
  other.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 10; ++i) x.set(x.get() + 1);  // 50 recorded
      });
    }
    for (auto& t : threads) t.join();
  });
  EXPECT_THROW(other.replay_logs(logs, 8), ReplayDivergenceError);
}

TEST(Divergence, MissingVmLogRejected) {
  auto s = counter_app(nullptr);
  auto rec = s.record(9);
  EXPECT_THROW(s.replay_logs({}, 10), UsageError);
}

TEST(Divergence, ReadEntryTamperDetected) {
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(600);
  Session s(cfg);
  s.add_vm("server", 1, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5000);
    auto sock = listener.accept();
    Bytes data = testutil::read_exactly(*sock, 8);
    sock->close();
    listener.close();
  });
  s.add_vm("client", 2, true, [](vm::Vm& v) {
    auto sock = testutil::connect_retry(v, {1, 5000});
    sock->output_stream().write(Bytes(8, 0x55));
    sock->close();
  });
  auto rec = s.record(11);
  auto logs = logs_of(rec);
  // Inflate a recorded read count beyond what the stream will ever carry:
  // replay must fail (EOF before the recorded byte count) — not hang,
  // because the writer side half-closes on socket close.
  record::NetworkLog tampered;
  bool bumped = false;
  for (auto& log : logs) {
    if (log.vm_id != rec.vm("server").vm_id) continue;
    for (ThreadNum t : log.network.threads()) {
      for (auto e : log.network.thread_entries(t)) {
        if (!bumped && e.kind == sched::EventKind::kSockRead && e.value &&
            *e.value > 0) {
          e.value = *e.value + 1000;
          bumped = true;
        }
        tampered.append(t, std::move(e));
      }
    }
    log.network = std::move(tampered);
  }
  ASSERT_TRUE(bumped);
  EXPECT_THROW(s.replay_logs(logs, 12), ReplayDivergenceError);
}

TEST(Divergence, VerifyCatchesCrossRunMismatch) {
  // verify() must reject a "replay" whose trace differs — simulated here by
  // recording two applications that differ by one extra critical event.
  auto sa = counter_app(nullptr);
  auto rec_a = sa.record(100);

  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(400);
  Session sb(cfg);
  sb.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
    x.get();  // one extra event
  });
  auto rec_b = sb.record(100);
  EXPECT_THROW(core::verify(rec_a, rec_b), ReplayDivergenceError);
}

// Removes the last `k` recorded critical events from a thread's interval
// list, returning the gc values that were removed (ascending).
std::vector<GlobalCount> truncate_tail(sched::IntervalList& list,
                                       GlobalCount k) {
  std::vector<GlobalCount> removed;
  while (k > 0 && !list.empty()) {
    auto& iv = list.back();
    if (iv.length() <= k) {
      for (GlobalCount g = iv.first; g <= iv.last; ++g) removed.push_back(g);
      k -= iv.length();
      list.pop_back();
    } else {
      for (GlobalCount g = iv.last - k + 1; g <= iv.last; ++g) {
        removed.push_back(g);
      }
      iv.last -= k;
      k = 0;
    }
  }
  std::sort(removed.begin(), removed.end());
  return removed;
}

GlobalCount total_events(const sched::IntervalList& list) {
  GlobalCount n = 0;
  for (const auto& iv : list) n += iv.length();
  return n;
}

// The forensics acceptance matrix: an injected divergence (a worker's
// recorded tail truncated by 3 events) must yield a DivergenceReport whose
// thread, expected interval and counter position match the injection point
// in every tuning mode — {leasing on/off} x {sharding on/off}.  The blamed
// thread attempts events beyond its (tampered) schedule, which is an
// affirmative kBeyondSchedule in blame order regardless of which victim
// thread's stall or poison unwound first.
TEST(Divergence, ReportMatchesInjectionAcrossTuningModes) {
  constexpr ThreadNum kVictim = 2;
  constexpr GlobalCount kCut = 3;
  for (const bool leasing : {false, true}) {
    for (const bool sharding : {false, true}) {
      core::SessionConfig cfg;
      cfg.tuning.stall_timeout = std::chrono::milliseconds(400);
      cfg.tuning.replay_leasing = leasing;
      cfg.tuning.record_sharding = sharding;
      Session s(cfg);
      s.add_vm("app", 1, true, [](vm::Vm& v) {
        vm::SharedVar<std::uint64_t> x(v, 0);
        std::vector<vm::VmThread> threads;
        for (int t = 0; t < 3; ++t) {
          threads.emplace_back(v, [&x] {
            for (int i = 0; i < 50; ++i) x.set(x.get() + 1);
          });
        }
        for (auto& t : threads) t.join();
      });
      auto rec = s.record(21);
      auto logs = logs_of(rec);
      auto& victim_list = logs[0].schedule.per_thread[kVictim];
      const GlobalCount recorded = total_events(victim_list);
      ASSERT_GT(recorded, kCut);
      const std::vector<GlobalCount> removed =
          truncate_tail(victim_list, kCut);
      ASSERT_EQ(removed.size(), kCut);
      ASSERT_FALSE(victim_list.empty());
      const sched::LogicalInterval tampered_last = victim_list.back();

      try {
        s.replay_logs(logs, 22);
        FAIL() << "tampered log replayed cleanly (leasing=" << leasing
               << " sharding=" << sharding << ")";
      } catch (const sched::ReportedDivergenceError& e) {
        const sched::DivergenceReport& r = e.report();
        // The report names the injection point, in every mode.
        EXPECT_EQ(r.cause, DivergenceCause::kBeyondSchedule)
            << "leasing=" << leasing << " sharding=" << sharding;
        EXPECT_EQ(r.thread, kVictim);
        EXPECT_TRUE(r.affirmative());
        EXPECT_TRUE(r.schedule_exhausted);
        ASSERT_TRUE(r.has_interval);
        EXPECT_EQ(r.expected_interval, tampered_last);
        EXPECT_EQ(r.thread_events_replayed, recorded - kCut);
        EXPECT_EQ(r.divergence_gc(), tampered_last.last + 1);
        // The recent-event ring ends at the victim's last replayed event.
        ASSERT_FALSE(r.recent.empty());
        EXPECT_EQ(r.recent.back().gc, tampered_last.last);
        EXPECT_EQ(r.recent.back().thread, kVictim);
        // The run's pooled reports are blame-ordered: affirmative first.
        ASSERT_FALSE(e.all_reports().empty());
        EXPECT_TRUE(e.all_reports().front().affirmative());
      }
    }
  }
}

// Deterministic multi-VM blame: when two independent DJVMs both diverge,
// the session must select the report with the LOWEST divergence position,
// not whichever VM's thread unwound first.
TEST(Divergence, MultiVmSelectsLowestGcDivergence) {
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(400);
  Session s(cfg);
  // The workers run one after the other, so thread 1 records the same
  // counter positions in both VMs whatever the host's load: the cuts below
  // then put b's divergence below a's by construction.  (Racing workers
  // could leave a's thread 1 finishing early and b's late, inverting the
  // two positions.)  Which VM unwinds first still races.
  for (const char* name : {"a", "b"}) {
    s.add_vm(name, name[0] == 'a' ? 1 : 2, true, [](vm::Vm& v) {
      vm::SharedVar<std::uint64_t> x(v, 0);
      for (int t = 0; t < 2; ++t) {
        vm::VmThread worker(v, [&x] {
          for (int i = 0; i < 30; ++i) x.set(x.get() + 1);
        });
        worker.join();
      }
    });
  }
  auto rec = s.record(31);
  auto logs = logs_of(rec);
  ASSERT_EQ(logs.size(), 2u);

  // Cut VM a's thread-1 tail shallowly and VM b's deeply: b diverges at a
  // lower counter position, so blame must land on b whichever VM finishes
  // unwinding first.
  GlobalCount expected_gc[2] = {0, 0};
  for (std::size_t i = 0; i < 2; ++i) {
    auto& list = logs[i].schedule.per_thread[1];
    truncate_tail(list, i == 0 ? 2 : 20);
    ASSERT_FALSE(list.empty());
    expected_gc[i] = list.back().last + 1;
  }
  ASSERT_LT(expected_gc[1], expected_gc[0]);

  try {
    s.replay_logs(logs, 32);
    FAIL() << "tampered logs replayed cleanly";
  } catch (const sched::ReportedDivergenceError& e) {
    EXPECT_EQ(e.report().vm_id, logs[1].vm_id);
    EXPECT_EQ(e.report().vm_name, "b");
    EXPECT_EQ(e.report().divergence_gc(), expected_gc[1]);
    EXPECT_EQ(e.report().cause, DivergenceCause::kBeyondSchedule);
    // Both VMs are represented in the pooled reports.
    bool saw_a = false;
    for (const auto& r : e.all_reports()) saw_a = saw_a || (r.vm_name == "a");
    EXPECT_TRUE(saw_a);
  }
}

// A divergence shuts the network down, so a peer blocked in a network call
// fails with an ordinary error — here the server's accept on a closed
// listener.  That error is an echo: the report must name the client whose
// log was cut, not the server declared before it.
TEST(Divergence, PeerEchoErrorBlamesTheDivergingVm) {
  core::SessionConfig cfg;
  cfg.tuning.stall_timeout = std::chrono::milliseconds(600);
  Session s(cfg);
  s.add_vm("server", 1, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 4710);
    for (int c = 0; c < 2; ++c) {
      auto sock = listener.accept();
      testutil::read_exactly(*sock, 4);
      sock->close();
    }
    listener.close();
  });
  s.add_vm("client", 2, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    for (int c = 0; c < 2; ++c) {
      for (int i = 0; i < 20; ++i) x.set(x.get() + 1);
      auto sock = testutil::connect_retry(v, {1, 4710});
      sock->output_stream().write(to_bytes("ping"));
      sock->close();
    }
  });
  auto rec = s.record(21);
  auto logs = logs_of(rec);
  ASSERT_EQ(logs.size(), 2u);
  record::VmLog& client = logs[1];
  ASSERT_EQ(client.vm_id, rec.vm("client").vm_id);
  // Keep the client's schedule up to 60% of its events: that lands in its
  // second counting loop, before the second connect the server waits for.
  const GlobalCount cut = client.stats.critical_events * 3 / 5;
  for (auto& list : client.schedule.per_thread) {
    while (!list.empty() && list.back().first >= cut) list.pop_back();
    if (!list.empty() && list.back().last >= cut) list.back().last = cut - 1;
  }
  try {
    s.replay_logs(logs, 22);
    FAIL() << "replay of a cut log succeeded";
  } catch (const sched::ReportedDivergenceError& e) {
    EXPECT_EQ(e.report().vm_name, "client");
    EXPECT_EQ(e.report().vm_id, client.vm_id);
  } catch (const std::exception& e) {
    FAIL() << "expected the client's divergence, got: " << e.what();
  }
}

}  // namespace
}  // namespace djvu
