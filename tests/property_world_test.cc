// Property sweeps over worlds and checkpoints: open/mixed-world recordings
// replay across seeds; checkpointed executions resume from every phase.

#include <gtest/gtest.h>

#include <tuple>

#include "checkpoint/checkpoint.h"
#include "core/session.h"
#include "tests/test_util.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace djvu {
namespace {

using core::Session;
using core::SessionConfig;

// ---------------------------------------------------------------------------
// Open-world sweep: DJVM on either side, across seeds and thread counts.
// ---------------------------------------------------------------------------

class OpenWorldSweep
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>> {};

TEST_P(OpenWorldSweep, RecordReplayVerify) {
  auto [server_is_djvm, seed] = GetParam();
  SessionConfig cfg;
  cfg.net.seed = seed;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(250)};
  cfg.net.segmentation.mss = 4;
  Session s(cfg);
  s.add_vm("server", 1, server_is_djvm, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5000);
    vm::SharedVar<std::uint64_t> fold(v, 0);
    std::vector<vm::VmThread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back(v, [&v, &listener, &fold] {
        for (int c = 0; c < 2; ++c) {
          auto sock = listener.accept();
          Bytes msg = testutil::read_exactly(*sock, 4);
          fold.set(fold.get() * 31 + msg[0]);
          sock->output_stream().write(msg);
          sock->close();
        }
      });
    }
    for (auto& w : workers) w.join();
    listener.close();
  });
  s.add_vm("client", 2, !server_is_djvm, [](vm::Vm& v) {
    std::vector<vm::VmThread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back(v, [&v, t] {
        for (int c = 0; c < 2; ++c) {
          auto sock = testutil::connect_retry(v, {1, 5000});
          Bytes msg(4, static_cast<std::uint8_t>(t * 8 + c));
          sock->output_stream().write(msg);
          testutil::read_exactly(*sock, 4);
          sock->close();
        }
      });
    }
    for (auto& w : workers) w.join();
  });

  auto rec = s.record(seed * 3 + 1);
  // The DJVM side must have content-logged its inputs.
  for (const auto& info : rec.vms) {
    if (info.log) {
      EXPECT_GT(info.log->network.content_bytes(), 0u) << info.name;
    }
  }
  auto rep = s.replay(rec, seed * 7 + 5);
  core::verify(rec, rep);
}

INSTANTIATE_TEST_SUITE_P(Sides, OpenWorldSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(1, 2, 3, 4)));

// ---------------------------------------------------------------------------
// Checkpoint sweep: every (phase-count, resume-phase) combination resumes
// to the recorded final state.
// ---------------------------------------------------------------------------

class CheckpointSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CheckpointSweep, ResumeReproduces) {
  auto [phases, resume_from] = GetParam();
  if (resume_from > phases) GTEST_SKIP();

  auto run = [phases = phases](vm::Mode mode, const record::VmLog* vm_log,
                               const checkpoint::CheckpointLog* cp_log,
                               int start_phase, record::VmLog* vm_out,
                               checkpoint::CheckpointLog* cp_out) {
    auto network = std::make_shared<net::Network>();
    vm::VmConfig cfg;
    cfg.vm_id = 1;
    cfg.mode = mode;
    std::shared_ptr<const record::VmLog> replay_log;
    if (mode == vm::Mode::kReplay) {
      replay_log = std::make_shared<const record::VmLog>(*vm_log);
    }
    vm::Vm v(network, cfg, replay_log);
    v.attach_main();
    vm::SharedVar<std::uint64_t> acc(v, 7);
    checkpoint::Checkpointer cp(v);
    cp.track_var("acc", acc);
    if (start_phase > 0) {
      cp.resume_at(static_cast<std::uint32_t>(start_phase - 1), *cp_log);
      cp.barrier(static_cast<std::uint32_t>(start_phase - 1));
    }
    for (int phase = start_phase; phase < phases; ++phase) {
      std::vector<vm::VmThread> workers;
      for (int w = 0; w < 2; ++w) {
        workers.emplace_back(v, [&acc, phase] {
          for (int i = 0; i <= phase * 5 + 5; ++i) {
            acc.set(acc.get() * 3 + 1);  // racy
          }
        });
      }
      for (auto& w : workers) w.join();
      cp.barrier(static_cast<std::uint32_t>(phase));
    }
    std::uint64_t final_value = acc.unsafe_peek();
    v.detach_current();
    if (mode == vm::Mode::kRecord) {
      *vm_out = v.finish_record();
      *cp_out = cp.log();
    } else {
      v.finish_replay();
    }
    return final_value;
  };

  record::VmLog vm_log;
  checkpoint::CheckpointLog cp_log;
  std::uint64_t recorded =
      run(vm::Mode::kRecord, nullptr, nullptr, 0, &vm_log, &cp_log);
  std::uint64_t resumed = run(vm::Mode::kReplay, &vm_log, &cp_log,
                              resume_from, nullptr, nullptr);
  EXPECT_EQ(resumed, recorded);
}

INSTANTIATE_TEST_SUITE_P(PhasesByResume, CheckpointSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(0, 1, 2, 3)));

// ---------------------------------------------------------------------------
// Chaos x world sweep: chaotic distributed recordings replay across worlds.
// ---------------------------------------------------------------------------

class ChaosWorldSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosWorldSweep, MixedWorldChaoticReplay) {
  SessionConfig cfg;
  cfg.net.seed = GetParam();
  cfg.tuning.chaos_prob = 0.08;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(300)};
  Session s(cfg);
  s.add_vm("server", 1, true, [](vm::Vm& v) {
    vm::ServerSocket listener(v, 5100);
    vm::SharedVar<std::uint64_t> fold(v, 0);
    for (int i = 0; i < 4; ++i) {
      auto sock = listener.accept();
      Bytes msg = testutil::read_exactly(*sock, 2);
      fold.set(fold.get() * 17 + msg[0] + msg[1]);
      sock->output_stream().write(msg);
      sock->close();
    }
    listener.close();
  });
  s.add_vm("djvm-client", 2, true, [](vm::Vm& v) {
    for (int i = 0; i < 2; ++i) {
      auto sock = testutil::connect_retry(v, {1, 5100});
      sock->output_stream().write(Bytes{1, static_cast<std::uint8_t>(i)});
      testutil::read_exactly(*sock, 2);
      sock->close();
    }
  });
  s.add_vm("plain-client", 3, false, [](vm::Vm& v) {
    for (int i = 0; i < 2; ++i) {
      auto sock = testutil::connect_retry(v, {1, 5100});
      sock->output_stream().write(Bytes{9, static_cast<std::uint8_t>(i)});
      testutil::read_exactly(*sock, 2);
      sock->close();
    }
  });
  auto rec = s.record(GetParam() * 13 + 2);
  auto rep = s.replay(rec, GetParam() * 17 + 3);
  core::verify(rec, rep);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosWorldSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace djvu
