// Trace diff: offline comparison of two execution traces.
//
//   ./examples/trace_diff A.djvuspool B.djvuspool   # diff two saved traces
//   ./examples/trace_diff                           # demo mode
//
// A saved trace is a spool file of gc-ordered trace items
// (Session::save_traces, record::save_trace_spool).  Demo mode records two
// executions of a racy program (under chaos mode, so their schedules
// differ), saves both traces, diffs them — showing exactly
// where the interleavings first diverged — and then diffs a record/replay
// pair to show the identical-traces case.

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/session.h"
#include "record/log_spool.h"
#include "record/trace_io.h"
#include "vm/shared_var.h"
#include "vm/thread.h"

namespace {

using namespace djvu;

core::Session racy_app() {
  core::SessionConfig cfg;
  cfg.tuning.chaos_prob = 0.15;  // force schedule diversity on a quiet machine
  core::Session s(cfg);
  s.add_vm("app", 1, true, [](vm::Vm& v) {
    vm::SharedVar<std::uint64_t> x(v, 0);
    std::vector<vm::VmThread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back(v, [&x] {
        for (int i = 0; i < 30; ++i) x.set(x.get() + 1);
      });
    }
    for (auto& t : threads) t.join();
  });
  return s;
}

void print_diff(const record::TraceDiff& diff) {
  std::printf("%s\n", diff.description.c_str());
  if (diff.identical) return;
  std::printf("context A:\n");
  for (const auto& line : diff.context_a) std::printf("  %s\n", line.c_str());
  std::printf("context B:\n");
  for (const auto& line : diff.context_b) std::printf("  %s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3) {
    // Streaming diff: the files are read in lockstep and abandoned at the
    // first divergence — big traces that differ early cost almost nothing.
    auto diff = record::diff_trace_files(argv[1], argv[2]);
    print_diff(diff);
    return diff.identical ? 0 : 1;
  }

  const char* t = std::getenv("TMPDIR");
  const std::string dir = std::string(t ? t : "/tmp") + "/djvu_trace_diff";
  std::filesystem::create_directories(dir);
  std::printf("demo: two chaotic recordings of a racy counter\n\n");

  auto s1 = racy_app();
  auto rec1 = s1.record(101);
  core::Session::save_traces(rec1, dir);
  const std::string path1 = dir + "/app.djvuspool";
  auto trace1 = record::load_spool(path1).trace;

  auto s2 = racy_app();
  auto rec2 = s2.record(202);
  const std::string path2 = dir + "/app-202.djvuspool";
  record::save_trace_spool({rec2.vm("app").vm_id, rec2.vm("app").trace},
                           path2);

  // The streaming path: both files read in lockstep, abandoned at the
  // first divergence.
  std::printf("--- recording 101 vs recording 202 ---\n");
  print_diff(record::diff_trace_files(path1, path2));

  std::printf("\n--- recording 101 vs its replay ---\n");
  auto s3 = racy_app();
  auto rep = s3.replay(rec1, 999);
  record::TraceFile replay_trace;
  replay_trace.vm_id = rep.vm("app").vm_id;
  replay_trace.records = rep.vm("app").trace;
  const record::TraceDiff replay_diff =
      record::diff_traces(trace1, replay_trace);
  print_diff(replay_diff);

  std::filesystem::remove_all(dir);
  return replay_diff.identical ? 0 : 1;
}
