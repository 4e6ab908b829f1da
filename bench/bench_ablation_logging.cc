// Ablation: logical-schedule-interval encoding vs the alternatives the
// paper positions itself against (§2.2, §7).
//
//   * LSI (this system): one global counter; per-thread maximal runs encode
//     as two varints each — "thousands of critical events ... efficiently
//     encoded by two, not thousands of, counter values".
//   * Exhaustive: one record per critical event (Instant-Replay-style
//     per-access logging, "the space and time overhead for logging the
//     interactions becomes prohibitively large").
//   * Per-object counters (Levrouw et al.): one counter per shared object,
//     per-(thread, object) access runs encoded as two varints each.
//
// The driver synthesizes a critical-event stream with a controllable thread
// switch rate and reports bytes per scheme.  The crossover story: LSI wins
// by orders of magnitude at low switch rates and stays no worse than
// exhaustive logging even at switch rate 1.0.

#include <chrono>
#include <cstdio>
#include <vector>

#include "baseline/per_object.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "net/network.h"
#include "record/log_spool.h"
#include "sched/interval.h"
#include "vm/shared_var.h"
#include "vm/thread.h"
#include "vm/vm.h"

namespace djvu {
namespace {

struct StreamConfig {
  int threads = 8;
  int objects = 16;
  GlobalCount events = 200000;
  double switch_prob = 0.01;  // chance the scheduler switches threads
};

struct Sizes {
  std::size_t lsi = 0;
  std::size_t exhaustive = 0;
  std::size_t per_object = 0;
};

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

Sizes measure(const StreamConfig& cfg, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<sched::IntervalRecorder> lsi(
      static_cast<std::size_t>(cfg.threads));
  // Levrouw: per-object counter; runs detected per (thread, object).
  struct ObjState {
    GlobalCount counter = 0;
    std::vector<sched::IntervalRecorder> per_thread;
  };
  std::vector<ObjState> objects(static_cast<std::size_t>(cfg.objects));
  for (auto& o : objects) {
    o.per_thread.resize(static_cast<std::size_t>(cfg.threads));
  }

  Sizes sizes;
  std::size_t current = 0;
  for (GlobalCount g = 0; g < cfg.events; ++g) {
    if (rng.chance(cfg.switch_prob)) {
      current = static_cast<std::size_t>(rng.next_below(
          static_cast<std::uint64_t>(cfg.threads)));
    }
    auto obj = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(cfg.objects)));
    lsi[current].on_event(g);
    objects[obj].per_thread[current].on_event(objects[obj].counter++);
    // Exhaustive: <thread, gc> per event (Instant-Replay-style).
    sizes.exhaustive += varint_size(current) + varint_size(g);
  }

  for (auto& r : lsi) {
    for (const auto& lsi_iv : r.finish()) {
      sizes.lsi += varint_size(lsi_iv.first) +
                   varint_size(lsi_iv.last - lsi_iv.first);
    }
  }
  for (auto& o : objects) {
    for (auto& r : o.per_thread) {
      for (const auto& iv : r.finish()) {
        sizes.per_object +=
            varint_size(iv.first) + varint_size(iv.last - iv.first);
      }
    }
  }
  return sizes;
}

// ---------------------------------------------------------------------------
// Live head-to-head: DejaVu's global-counter scheme vs the Levrouw-style
// per-object implementation (src/baseline), same racy workload, both
// actually recording and replaying.
// ---------------------------------------------------------------------------

struct LiveRow {
  int threads;
  double dejavu_record_s;
  double levrouw_record_s;
  std::size_t dejavu_log_bytes;
  std::size_t levrouw_log_bytes;
};

LiveRow live_compare(int threads, int objects, int iters) {
  LiveRow row{threads, 0, 0, 0, 0};

  // --- DejaVu (global counter) ---
  {
    auto network = std::make_shared<net::Network>();
    vm::VmConfig cfg;
    cfg.vm_id = 1;
    cfg.mode = vm::Mode::kRecord;
    cfg.keep_trace = false;
    vm::Vm v(network, cfg);
    v.attach_main();
    auto start = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<vm::SharedVar<std::uint64_t>>> vars;
    for (int o = 0; o < objects; ++o) {
      vars.push_back(std::make_unique<vm::SharedVar<std::uint64_t>>(v, 0));
    }
    std::vector<vm::VmThread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(v, [&vars, iters, t, objects] {
        for (int i = 0; i < iters; ++i) {
          auto& var = *vars[static_cast<std::size_t>((t + i) % objects)];
          var.set(var.get() + 1);
        }
      });
    }
    for (auto& t : pool) t.join();
    row.dejavu_record_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    v.detach_current();
    row.dejavu_log_bytes = record::spool_item_bytes(v.finish_record());
  }

  // --- Levrouw (per-object counters) ---
  {
    baseline::LvHost host(baseline::Mode::kRecord);
    host.attach_main();
    auto start = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<baseline::LvSharedVar<std::uint64_t>>> vars;
    for (int o = 0; o < objects; ++o) {
      vars.push_back(
          std::make_unique<baseline::LvSharedVar<std::uint64_t>>(host, 0));
    }
    for (int t = 0; t < threads; ++t) {
      host.spawn([&vars, iters, t, objects] {
        for (int i = 0; i < iters; ++i) {
          auto& var = *vars[static_cast<std::size_t>((t + i) % objects)];
          var.set(var.get() + 1);
        }
      });
    }
    host.join_all();
    row.levrouw_record_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    row.levrouw_log_bytes =
        baseline::serialize(host.finish_record()).size();
    host.detach_current();
  }
  return row;
}

}  // namespace
}  // namespace djvu

int main() {
  using namespace djvu;
  StreamConfig cfg;
  std::printf("Logging-scheme ablation: %d threads, %d shared objects, "
              "%llu critical events\n\n",
              cfg.threads, cfg.objects,
              static_cast<unsigned long long>(cfg.events));
  std::printf("%12s %14s %16s %16s %18s\n", "switch rate", "LSI (bytes)",
              "exhaustive (B)", "per-object (B)", "LSI advantage");
  for (double p : {0.0001, 0.001, 0.01, 0.1, 0.5, 1.0}) {
    cfg.switch_prob = p;
    Sizes s = measure(cfg, 42);
    std::printf("%12g %14zu %16zu %16zu %17.1fx\n", p, s.lsi, s.exhaustive,
                s.per_object,
                static_cast<double>(s.exhaustive) /
                    static_cast<double>(s.lsi));
  }

  std::printf("\nLive head-to-head (record mode, 16 shared objects, "
              "20000 accesses/thread):\n");
  std::printf("%9s %15s %15s %14s %14s\n", "#threads", "dejavu rec(s)",
              "levrouw rec(s)", "dejavu log(B)", "levrouw log(B)");
  for (int threads : {1, 2, 4, 8}) {
    LiveRow row = live_compare(threads, 16, 20000 / threads);
    std::printf("%9d %15.4f %15.4f %14zu %14zu\n", row.threads,
                row.dejavu_record_s, row.levrouw_record_s,
                row.dejavu_log_bytes, row.levrouw_log_bytes);
  }
  return 0;
}
