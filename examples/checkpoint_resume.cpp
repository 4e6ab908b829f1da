// Checkpoint + resume: bounding replay time (the paper's §8 future work,
// implemented in src/checkpoint).
//
// A phased computation records a checkpoint after every phase.  Replay can
// then start from any checkpoint: the framework restores the registered
// shared state, fast-forwards the schedule, and only the phases after the
// checkpoint re-execute — so reproducing a bug in phase 9 no longer costs
// replaying phases 0..8.

#include <chrono>
#include <cstdio>

#include "checkpoint/checkpoint.h"
#include "net/network.h"
#include "vm/thread.h"

namespace {

using namespace djvu;

constexpr int kPhases = 6;
constexpr int kWorkers = 3;
constexpr int kIncrements = 3000;

struct Result {
  std::uint64_t final_value = 0;
  double seconds = 0;
};

Result run(vm::Mode mode, const record::VmLog* vm_log,
           const checkpoint::CheckpointLog* cp_log, int start_phase,
           record::VmLog* vm_log_out, checkpoint::CheckpointLog* cp_log_out) {
  auto network = std::make_shared<net::Network>();
  vm::VmConfig cfg;
  cfg.vm_id = 1;
  cfg.mode = mode;
  cfg.keep_trace = false;
  std::shared_ptr<const record::VmLog> replay_log;
  if (mode == vm::Mode::kReplay) {
    replay_log = std::make_shared<const record::VmLog>(*vm_log);
  }
  vm::Vm v(network, cfg, replay_log);
  v.attach_main();

  auto start = std::chrono::steady_clock::now();
  vm::SharedVar<std::uint64_t> counter(v, 0);
  checkpoint::Checkpointer cp(v);
  cp.track_var("counter", counter);
  if (start_phase > 0) {
    cp.resume_at(static_cast<std::uint32_t>(start_phase - 1), *cp_log);
    cp.barrier(static_cast<std::uint32_t>(start_phase - 1));
  }
  for (int phase = start_phase; phase < kPhases; ++phase) {
    std::vector<vm::VmThread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back(v, [&counter] {
        for (int i = 0; i < kIncrements; ++i) {
          counter.set(counter.get() + 1);  // racy
        }
      });
    }
    for (auto& w : workers) w.join();
    cp.barrier(static_cast<std::uint32_t>(phase));
  }
  Result out;
  out.final_value = counter.unsafe_peek();
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  v.detach_current();
  if (mode == vm::Mode::kRecord) {
    *vm_log_out = v.finish_record();
    *cp_log_out = cp.log();
  } else {
    v.finish_replay();
  }
  return out;
}

}  // namespace

int main() {
  std::printf("%d phases x %d workers x %d racy increments, checkpoint "
              "after each phase\n\n",
              kPhases, kWorkers, kIncrements);

  record::VmLog vm_log;
  checkpoint::CheckpointLog cp_log;
  Result rec = run(vm::Mode::kRecord, nullptr, nullptr, 0, &vm_log, &cp_log);
  std::printf("record        : value=%llu  %.4fs  (%zu checkpoints)\n",
              static_cast<unsigned long long>(rec.final_value), rec.seconds,
              cp_log.checkpoints.size());

  Result full = run(vm::Mode::kReplay, &vm_log, &cp_log, 0, nullptr, nullptr);
  std::printf("full replay   : value=%llu  %.4fs\n",
              static_cast<unsigned long long>(full.final_value),
              full.seconds);

  bool ok = full.final_value == rec.final_value;
  for (int resume = 2; resume < kPhases; resume += 2) {
    Result r =
        run(vm::Mode::kReplay, &vm_log, &cp_log, resume, nullptr, nullptr);
    std::printf("resume phase %d: value=%llu  %.4fs  (%.0f%% of full "
                "replay)\n",
                resume, static_cast<unsigned long long>(r.final_value),
                r.seconds, 100.0 * r.seconds / full.seconds);
    ok = ok && r.final_value == rec.final_value;
  }
  std::printf("\n%s\n", ok ? "all resumed replays reproduce the recorded "
                             "final state"
                           : "MISMATCH");
  return ok ? 0 : 1;
}
