// Causal partial-order record/replay (order_mode = causal).
//
// The causal-mode claim (docs/INTERNALS.md §1d): recording a per-key
// sequence number for every critical event captures enough of the order to
// replay deterministically, while letting events on independent keys replay
// in parallel.  These tests drive the claim end to end — the digest matrix
// {order_mode} × {record_sharding} × {replay_leasing}, cross-mode replay of
// the same recording, the spooled path, the refusal cases — plus unit tests
// for the CausalOrder primitive itself.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "core/session.h"
#include "record/log_spool.h"
#include "sched/causal_order.h"
#include "tests/test_util.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"
#include "vm/vm.h"

namespace djvu {
namespace {

using sched::CausalOrder;

// ---------------------------------------------------------------------------
// CausalOrder unit tests.

TEST(CausalOrderUnit, PerKeySequencesAreIndependent) {
  CausalOrder o;
  EXPECT_EQ(o.record_next(1), 0u);
  EXPECT_EQ(o.record_next(1), 1u);
  EXPECT_EQ(o.record_next(2), 0u);
  EXPECT_EQ(o.record_next(1), 2u);
  EXPECT_EQ(o.record_next(2), 1u);
}

TEST(CausalOrderUnit, AwaitSeqZeroNeverBlocks) {
  CausalOrder o;
  o.await(7, 0);  // no predecessor — returns immediately
  o.publish(7);
  EXPECT_EQ(o.published(), 1u);
}

TEST(CausalOrderUnit, AwaitBlocksUntilPredecessorPublishes) {
  CausalOrder o;
  o.runner_began();
  std::atomic<bool> passed{false};
  std::thread waiter([&] {
    o.runner_began();
    o.await(7, 2);  // needs two same-key publications first
    passed.store(true);
    o.runner_ended();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());
  o.await(7, 0);
  o.publish(7);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());  // one publication is not enough
  o.await(7, 1);
  o.publish(7);
  waiter.join();
  EXPECT_TRUE(passed.load());
  o.runner_ended();
}

TEST(CausalOrderUnit, IndependentKeysDoNotWaitOnEachOther) {
  CausalOrder o;
  // Key 9's first event proceeds regardless of key 7's pending history.
  o.await(9, 0);
  o.publish(9);
  EXPECT_EQ(o.published(), 1u);
}

TEST(CausalOrderUnit, AwaitPastSequenceThrows) {
  CausalOrder o;
  o.publish(7);
  o.publish(7);
  EXPECT_THROW(o.await(7, 1), ReplayDivergenceError);  // count already 2
}

TEST(CausalOrderUnit, PoisonUnblocksParkedWaiter) {
  CausalOrder o;
  o.runner_began();
  std::thread waiter([&] {
    o.runner_began();
    EXPECT_THROW(o.await(7, 5), ReplayDivergenceError);
    o.runner_ended();
  });
  while (o.waits_parked() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  o.poison();
  waiter.join();
  EXPECT_THROW(o.await(8, 0), ReplayDivergenceError);  // future awaits too
  o.runner_ended();
}

TEST(CausalOrderUnit, CertainStallWhenEveryRunnerIsParked) {
  // One registered runner, and it parks: nobody can ever publish, so the
  // detector fires after a single quiet window instead of the grace factor.
  CausalOrder o(std::chrono::milliseconds(50));
  o.runner_began();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(o.await(7, 1), ReplayDivergenceError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(50) *
                         CausalOrder::kStallGraceFactor);
  o.runner_ended();
}

// ---------------------------------------------------------------------------
// End-to-end digest matrix.
//
// Same two-VM stress shape as record_sharding_test: racy threads over
// several SharedVars, a monitor-protected tally, and a live socket pair, so
// the causal path sees per-object, thread-local, monitor, registry (spawn)
// and network keys all at once.

constexpr int kThreads = 4;
constexpr int kVars = 4;
constexpr int kItersPerThread = 50;
constexpr int kMessages = 6;

void server_main(vm::Vm& v) {
  vm::ServerSocket listener(v, 4600);

  std::vector<std::unique_ptr<vm::SharedVar<std::uint64_t>>> vars;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(std::make_unique<vm::SharedVar<std::uint64_t>>(v, 0));
  }
  vm::Monitor mon(v);
  vm::SharedVar<std::uint64_t> tally(v, 0);

  std::vector<vm::VmThread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(v, [&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        auto& var = *vars[(t + i) % kVars];
        var.set(var.get() + 1);  // racy on purpose
        if (i % 5 == 0) {
          vm::Monitor::Synchronized sync(mon);
          tally.set(tally.get() + 1);
        }
      }
    });
  }

  auto conn = listener.accept();
  for (int m = 0; m < kMessages; ++m) {
    Bytes msg = testutil::read_exactly(*conn, 4);
    conn->output_stream().write(msg);
  }
  conn->close();
  for (auto& th : threads) th.join();
}

void client_main(vm::Vm& v) {
  vm::SharedVar<std::uint64_t> local(v, 0);
  std::vector<vm::VmThread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(v, [&] {
      for (int i = 0; i < kItersPerThread; ++i) local.set(local.get() + 1);
    });
  }
  auto sock = testutil::connect_retry(v, {1, 4600});
  for (int m = 0; m < kMessages; ++m) {
    Bytes msg = to_bytes("c" + std::to_string(m) + "y");
    msg.resize(4, '!');
    sock->output_stream().write(msg);
    Bytes echo = testutil::read_exactly(*sock, 4);
    if (echo != msg) throw Error("echo mismatch");
  }
  sock->close();
  for (auto& th : threads) th.join();
}

core::Session make_session(OrderMode mode, bool sharding, bool leasing) {
  core::SessionConfig cfg;
  cfg.tuning.order_mode = mode;
  cfg.tuning.record_sharding = sharding;
  cfg.tuning.replay_leasing = leasing;
  core::Session s(cfg);
  s.add_vm("server", 1, true, server_main);
  s.add_vm("client", 2, true, client_main);
  return s;
}

void expect_equal_digests(const core::RunResult& rec,
                          const core::RunResult& rep) {
  core::verify(rec, rep);  // throws on the first divergence
  for (const char* name : {"server", "client"}) {
    const auto& r = rec.vm(name);
    const auto& p = rep.vm(name);
    EXPECT_NE(r.trace_digest, 0u) << name;
    EXPECT_EQ(r.trace_digest, p.trace_digest) << name;
    EXPECT_EQ(r.critical_events, p.critical_events) << name;
  }
}

void run_matrix(OrderMode mode, bool sharding, bool leasing,
                std::uint64_t seed) {
  core::Session s = make_session(mode, sharding, leasing);
  auto rec = s.record(seed);
  auto rep = s.replay(rec, seed + 1);
  expect_equal_digests(rec, rep);
}

TEST(CausalReplay, DigestEquivalenceCausalSharded) {
  run_matrix(OrderMode::kCausal, /*sharding=*/true, /*leasing=*/true, 11);
}

TEST(CausalReplay, DigestEquivalenceCausalSingleSection) {
  run_matrix(OrderMode::kCausal, /*sharding=*/false, /*leasing=*/true, 22);
}

TEST(CausalReplay, DigestEquivalenceCausalLeasingFlagIgnored) {
  // replay_leasing is a total-order knob; causal replay must behave
  // identically with it off.
  run_matrix(OrderMode::kCausal, /*sharding=*/true, /*leasing=*/false, 33);
}

TEST(CausalReplay, DigestEquivalenceTotalBaseline) {
  // The paper-faithful ablation arm of the same matrix.
  run_matrix(OrderMode::kTotal, /*sharding=*/true, /*leasing=*/true, 44);
}

// ---------------------------------------------------------------------------
// Cross-mode: one causal recording, both replay modes.

std::vector<record::VmLog> collect_logs(const core::RunResult& rec) {
  std::vector<record::VmLog> logs;
  for (const auto& info : rec.vms) {
    if (info.log) logs.push_back(*info.log);
  }
  return logs;
}

TEST(CausalReplay, CausalRecordingReplaysUnderTotalOrder) {
  // A causal recording carries the full total order too (the schedule
  // intervals are unchanged), so a total-order session replays it to the
  // same digest.
  core::Session rec_s =
      make_session(OrderMode::kCausal, /*sharding=*/true, /*leasing=*/true);
  auto rec = rec_s.record(55);
  const auto logs = collect_logs(rec);
  core::Session rep_s =
      make_session(OrderMode::kTotal, /*sharding=*/true, /*leasing=*/true);
  auto rep = rep_s.replay_logs(logs, 56);
  expect_equal_digests(rec, rep);
}

TEST(CausalReplay, TotalRecordingRefusedUnderCausalReplay) {
  // A total-order recording has no per-key data; causal replay must refuse
  // up front instead of stalling mid-run.
  core::Session rec_s =
      make_session(OrderMode::kTotal, /*sharding=*/true, /*leasing=*/true);
  auto rec = rec_s.record(66);
  const auto logs = collect_logs(rec);
  core::Session rep_s =
      make_session(OrderMode::kCausal, /*sharding=*/true, /*leasing=*/true);
  EXPECT_THROW(rep_s.replay_logs(logs, 67), UsageError);
}

TEST(CausalReplay, CausalRecordingSerializesRoundTrip) {
  // A causal log (with its causal items) survives a save to a spool file
  // and a load back, and still replays causally.
  core::Session rec_s =
      make_session(OrderMode::kCausal, /*sharding=*/true, /*leasing=*/true);
  auto rec = rec_s.record(77);
  const std::string path =
      ::testing::TempDir() + "/causal_replay_test_roundtrip.djvuspool";
  std::vector<record::VmLog> logs;
  for (const auto& info : rec.vms) {
    if (info.log) {
      record::save_spooled_log(*info.log, path);
      logs.push_back(record::load_spooled_log(path));
      EXPECT_EQ(logs.back(), *info.log);
      EXPECT_FALSE(logs.back().causal.empty());
    }
  }
  std::filesystem::remove(path);
  core::Session rep_s =
      make_session(OrderMode::kCausal, /*sharding=*/true, /*leasing=*/true);
  auto rep = rep_s.replay_logs(logs, 78);
  expect_equal_digests(rec, rep);
}

TEST(CausalReplay, DeltaPackedCausalSectionRoundTripsAndShrinks) {
  // The spooler packs causal seqs as first-seq + zigzag deltas (kCausalDelta
  // items).  Per-key seqs in one thread's stream wander around nearby
  // values, so the deltas are small even when the absolutes have grown
  // large — the packed items must be materially smaller than the
  // raw-varint (kCausal) layout, and the roundtrip must be exact.
  std::vector<std::vector<std::uint64_t>> per_thread(2);
  // Large absolutes (3-byte varints) with small interleaved-key wander
  // (1-byte zigzag deltas) — the realistic late-run shape.
  for (std::uint64_t i = 0; i < 512; ++i) {
    per_thread[0].push_back(100000 + i + (i % 3));
    per_thread[1].push_back(250000 + i - (i % 5));
  }

  std::size_t packed_causal = 0;
  std::size_t raw_causal = 0;
  for (ThreadNum t = 0; t < per_thread.size(); ++t) {
    const Bytes packed = record::encode_causal_delta_item(t, per_thread[t]);
    const auto [thread, back] = record::decode_causal_delta_item(packed);
    EXPECT_EQ(thread, t);
    EXPECT_EQ(back, per_thread[t]);
    packed_causal += packed.size();

    // Compatibility: the raw-varint item still decodes to the same seqs.
    const Bytes raw = record::encode_causal_item(t, per_thread[t]);
    EXPECT_EQ(record::decode_causal_item(raw).second, per_thread[t]);
    raw_causal += raw.size();
  }
  EXPECT_LT(packed_causal * 2, raw_causal)
      << "delta packing should at least halve the causal items here";
}

TEST(CausalReplay, SpooledCausalRecordingReplaysFromDisk) {
  const std::string dir =
      ::testing::TempDir() + "causal_replay_test_spool";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  core::SessionConfig cfg;
  cfg.tuning.order_mode = OrderMode::kCausal;
  cfg.tuning.spool_dir = dir;
  // Small chunks force many flush boundaries through the causal batches.
  cfg.tuning.spool_chunk_bytes = 512;
  core::Session s(cfg);
  s.add_vm("server", 1, true, server_main);
  s.add_vm("client", 2, true, client_main);
  auto rec = s.record(88);
  auto rep = s.replay_from(rec.recording(), 89);
  expect_equal_digests(rec, rep);
  std::filesystem::remove_all(dir);
}

TEST(CausalReplay, RepeatedCausalReplaysAgree) {
  core::Session s =
      make_session(OrderMode::kCausal, /*sharding=*/true, /*leasing=*/true);
  auto rec = s.record(99);
  auto rep1 = s.replay(rec, 100);
  auto rep2 = s.replay(rec, 101);
  core::verify(rec, rep1);
  core::verify(rec, rep2);
  EXPECT_EQ(rep1.vm("server").trace_digest, rep2.vm("server").trace_digest);
  EXPECT_EQ(rep1.vm("client").trace_digest, rep2.vm("client").trace_digest);
}

// Keys are addresses, so whether a new object lands on a dead object's
// address can differ between record and replay (their allocation patterns
// differ: a recorded connect failure logs an entry that the replay never
// allocates).  Each per-key sequence must count one object lifetime: here
// the second SharedVar reuses the first one's storage in exactly one of the
// two phases, each way round.
TEST(CausalReplay, AddressReuseInOnePhaseReplays) {
  for (const bool reuse_in_record : {true, false}) {
    core::SessionConfig cfg;
    cfg.tuning.order_mode = OrderMode::kCausal;
    cfg.tuning.stall_timeout = std::chrono::milliseconds(400);
    core::Session s(cfg);
    s.add_vm("app", 1, true, [reuse_in_record](vm::Vm& v) {
      std::optional<vm::SharedVar<std::uint64_t>> slot[2];
      slot[0].emplace(v, 1);
      slot[0]->set(slot[0]->get() + 1);
      slot[0].reset();
      const bool reuse =
          (v.mode() == vm::Mode::kRecord) == reuse_in_record;
      std::optional<vm::SharedVar<std::uint64_t>>& next = slot[reuse ? 0 : 1];
      next.emplace(v, 5);
      next->set(next->get() * 3);
    });
    auto rec = s.record(41);
    auto rep = s.replay(rec, 42);
    core::verify(rec, rep);
  }
}

}  // namespace
}  // namespace djvu
