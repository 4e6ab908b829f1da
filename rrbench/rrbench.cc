// Record/replay benchmark: one workload per process, driven through the
// public core::Session API.
//
//   rrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each repetition runs the workload natively, records it to a spool on
// disk, loads the spool back, and replays it from the spool; the phases
// alternate inside the run and every reported time is a median over the
// repetitions.  --trace 1 additionally runs every phase with spans around
// the application's own gateway calls and prints the per-layer numbers.
// The last line of stdout is one JSON object; README.md in this directory
// documents every workload and metric.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/errors.h"
#include "common/rng.h"
#include "core/session.h"
#include "record/log_spool.h"
#include "record/log_stats.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace rrbench {
namespace {

using namespace djvu;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<float>& v, double q) {
  if (v.empty()) return 0;
  const auto at = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  const std::size_t k = std::min(v.size() - 1, at);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// ---------------------------------------------------------------------------
// Spans.  Off by default; the traced run turns them on around whole phases.
// Each span records its layer, start, end and parent (the enclosing span on
// the same thread, or the phase when none is open).  A thread keeps its spans
// until it exits; the phase's run joins every application thread, so its
// spans are all handed over by the time the phase is folded.

enum Layer : std::uint8_t {
  kShared,
  kMonitor,
  kSockRead,
  kSockWrite,
  kConnect,
  kAccept,
  kLayerCount,
};

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;
  Layer layer = kShared;
};

constexpr std::uint32_t kPhaseParent = UINT32_MAX;

struct SpanBuffer {
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;
};

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// The calling thread's buffer, handed to the tracer when the thread exits.
  SpanBuffer& local() {
    thread_local Local l(*this);
    return l.buf;
  }

  /// Folds the spans of every exited thread into per-layer totals (self
  /// time = duration minus the durations of its direct children) and frees
  /// them.
  std::array<LayerTotals, kLayerCount> fold_and_clear(std::uint64_t* spans) {
    std::array<LayerTotals, kLayerCount> out{};
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::vector<Span>& b : exited_) {
      std::vector<std::uint64_t> child_ns(b.size(), 0);
      for (const Span& s : b) {
        if (s.parent == kPhaseParent) continue;
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
      for (std::size_t i = 0; i < b.size(); ++i) {
        const std::uint64_t dur = b[i].end_ns - b[i].start_ns;
        LayerTotals& t = out[b[i].layer];
        ++t.calls;
        t.self_ns += dur - std::min(dur, child_ns[i]);
      }
      *spans += b.size();
    }
    exited_.clear();
    return out;
  }

 private:
  struct Local {
    explicit Local(Tracer& t) : tracer(t) { buf.spans.reserve(1 << 16); }
    ~Local() {
      std::lock_guard<std::mutex> lock(tracer.mu_);
      tracer.exited_.push_back(std::move(buf.spans));
    }
    Tracer& tracer;
    SpanBuffer buf;
  };

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::vector<Span>> exited_;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) {
    if (!g_tracer.enabled()) return;
    buf_ = &g_tracer.local();
    idx_ = static_cast<std::uint32_t>(buf_->spans.size());
    const std::uint32_t parent =
        buf_->open.empty() ? kPhaseParent : buf_->open.back();
    buf_->spans.push_back(Span{now_ns(), 0, parent, layer});
    buf_->open.push_back(idx_);
  }
  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    buf_->spans[idx_].end_ns = now_ns();
    buf_->open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_ = nullptr;
  std::uint32_t idx_ = 0;
};

// Traced wrappers around the gateway calls the workloads make.

std::uint64_t shared_get(vm::SharedVar<std::uint64_t>& v) {
  ScopedSpan s(kShared);
  return v.get();
}

void shared_set(vm::SharedVar<std::uint64_t>& v, std::uint64_t x) {
  ScopedSpan s(kShared);
  v.set(x);
}

void mon_enter(vm::Monitor& m) {
  ScopedSpan s(kMonitor);
  m.enter();
}

void mon_exit(vm::Monitor& m) {
  ScopedSpan s(kMonitor);
  m.exit();
}

void mon_wait(vm::Monitor& m) {
  ScopedSpan s(kMonitor);
  m.wait();
}

void mon_notify(vm::Monitor& m) {
  ScopedSpan s(kMonitor);
  m.notify();
}

/// Reads exactly n bytes; each read call is one span.
void read_full(vm::Socket& sock, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    std::size_t r;
    {
      ScopedSpan s(kSockRead);
      r = sock.input_stream().read(out + got, n - got);
    }
    if (r == 0) {
      throw Error("EOF after " + std::to_string(got) + " of " +
                  std::to_string(n) + " bytes");
    }
    got += r;
  }
}

void write_all(vm::Socket& sock, const std::uint8_t* data, std::size_t n) {
  ScopedSpan s(kSockWrite);
  sock.output_stream().write(BytesView(data, n));
}

std::unique_ptr<vm::Socket> connect_to(vm::Vm& v, net::SocketAddress addr) {
  ScopedSpan s(kConnect);
  return std::make_unique<vm::Socket>(v, addr);
}

std::unique_ptr<vm::Socket> accept_from(vm::ServerSocket& ls) {
  ScopedSpan s(kAccept);
  return ls.accept();
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t x;
  std::memcpy(&x, p, 8);
  return x;
}

void store_u64(std::uint8_t* p, std::uint64_t x) { std::memcpy(p, &x, 8); }

// ---------------------------------------------------------------------------
// What the application hands back to the benchmark: per-VM checksums, a
// start latch, and the per-operation latency samples of the phase.

struct Probe {
  std::atomic<bool> listening{false};
  std::array<std::atomic<std::uint64_t>, 4> sums{};
  std::mutex mu;
  std::vector<float> latency_us;

  void reset() {
    listening.store(false);
    for (auto& s : sums) s.store(0);
    latency_us.clear();
  }

  void add_latencies(const std::vector<float>& local) {
    std::lock_guard<std::mutex> lock(mu);
    latency_us.insert(latency_us.end(), local.begin(), local.end());
  }

  void await_listening() const {
    while (!listening.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  std::uint64_t checksum(std::size_t vms) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < vms; ++i) h = mix64(h ^ sums[i].load());
    return h;
  }
};

float micros_since(std::uint64_t t0_ns) {
  return static_cast<float>(static_cast<double>(now_ns() - t0_ns) / 1e3);
}

// ---------------------------------------------------------------------------
// Workloads.  Each is built from (seed, scale): scale 1 is the timed size;
// the warm-up and the traced verify use a small fraction of it.

constexpr net::HostId kServerHost = 1;
constexpr net::Port kPort = 9300;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Declares the workload's VMs on `s`; every main reports through probe.
  virtual void add_vms(core::Session& s) = 0;
  /// Number of checksum slots the application fills.
  virtual std::size_t checksum_slots() const = 0;

  Probe probe;
};

// rpc_closed: one server DJVM and two client DJVMs, one application thread
// each.  Closed-loop 128 B request/reply, kRpcsPerConn RPCs per connection;
// the server folds every request into two SharedVars.
class RpcClosed final : public Workload {
 public:
  static constexpr int kRpcsPerConn = 64;
  static constexpr std::size_t kMsg = 128;

  RpcClosed(std::uint64_t seed, double scale)
      : seed_(seed),
        conns_(std::max(1, static_cast<int>(std::lround(kConns * scale)))) {}

  void add_vms(core::Session& s) override {
    s.add_vm("server", kServerHost, true, [this](vm::Vm& v) { server(v); });
    for (int c = 0; c < 2; ++c) {
      s.add_vm("client" + std::to_string(c),
               static_cast<net::HostId>(2 + c), true,
               [this, c](vm::Vm& v) { client(v, c); });
    }
  }
  std::size_t checksum_slots() const override { return 3; }

 private:
  static constexpr int kConns = 600;  // per client

  void server(vm::Vm& v) {
    vm::ServerSocket ls(v, kPort);
    probe.listening.store(true, std::memory_order_release);
    vm::SharedVar<std::uint64_t> folded(v, seed_), served(v, 0);
    std::array<std::uint8_t, kMsg> req{}, rep{};
    for (int c = 0; c < 2 * conns_; ++c) {
      auto sock = accept_from(ls);
      for (int r = 0; r < kRpcsPerConn; ++r) {
        read_full(*sock, req.data(), kMsg);
        const std::uint64_t f =
            mix64(shared_get(folded) ^ load_u64(req.data()) ^
                  load_u64(req.data() + kMsg - 8));
        shared_set(folded, f);
        shared_set(served, shared_get(served) + 1);
        for (std::size_t i = 0; i < kMsg; i += 8) {
          store_u64(rep.data() + i, mix64(f + load_u64(req.data() + i)));
        }
        write_all(*sock, rep.data(), kMsg);
      }
      sock->close();
    }
    ls.close();
    probe.sums[0] = mix64(folded.get() ^ served.get());
  }

  void client(vm::Vm& v, int idx) {
    probe.await_listening();
    std::vector<float> lat;
    lat.reserve(static_cast<std::size_t>(conns_ * kRpcsPerConn));
    std::array<std::uint8_t, kMsg> req{}, rep{};
    std::uint64_t sum = 0;
    Xoshiro256 rng(seed_ * 2 + static_cast<std::uint64_t>(idx));
    for (int c = 0; c < conns_; ++c) {
      auto sock = connect_to(v, {kServerHost, kPort});
      for (int r = 0; r < kRpcsPerConn; ++r) {
        for (std::size_t i = 0; i < kMsg; i += 8) {
          store_u64(req.data() + i, rng.next());
        }
        const std::uint64_t t0 = now_ns();
        write_all(*sock, req.data(), kMsg);
        read_full(*sock, rep.data(), kMsg);
        lat.push_back(micros_since(t0));
        sum = mix64(sum ^ load_u64(rep.data()) ^ load_u64(rep.data() + 64));
      }
      sock->close();
    }
    probe.sums[1 + static_cast<std::size_t>(idx)] = sum;
    probe.add_latencies(lat);
  }

  std::uint64_t seed_;
  int conns_;
};

// handoff_ring: one DJVM, four threads.  A token moves through per-thread
// Monitors; each holder runs a seeded burst of SharedVar updates on one
// accumulator, then hands the token to a seeded next holder.  Every holder
// keeps its own monitor except while waiting on it, so a hand-off can only
// reach a thread that is already waiting: the program, not the OS, orders
// every critical event.  The holder draws the burst and the next holder
// from (seed, hand-off number) as it goes, so set-up only builds the
// session.
class HandoffRing final : public Workload {
 public:
  static constexpr std::size_t kThreads = 4;

  HandoffRing(std::uint64_t seed, double scale)
      : seed_(seed),
        key_(mix64(seed)),
        handoffs_(std::max<std::size_t>(
            16, static_cast<std::size_t>(std::llround(kHandoffs * scale)))) {}

  void add_vms(core::Session& s) override {
    s.add_vm("ring", kServerHost, true, [this](vm::Vm& v) { run(v); });
  }
  std::size_t checksum_slots() const override { return 1; }

 private:
  static constexpr double kHandoffs = 80000;

  struct State {
    explicit State(vm::Vm& v) : acc(v, 0), start(v) {
      for (std::size_t t = 0; t < kThreads; ++t) mon.emplace_back(v);
    }
    vm::SharedVar<std::uint64_t> acc;
    vm::Monitor start;
    std::deque<vm::Monitor> mon;
    // Plain fields, each guarded by a monitor (flag[t] by mon[t], started
    // by start, the rest by whichever thread holds the token).
    std::array<bool, kThreads> flag{};
    std::array<bool, kThreads> started{};
    std::size_t next = 0;
    std::uint64_t handed_at = 0;
    bool done = false;
  };

  // Burst length 1..15 (mean 8) of hand-off k.
  int burst(std::size_t k) const {
    return 1 + static_cast<int>(mix64(key_ + 2 * k) % 15);
  }

  // The holder after `cur`, which holds hand-off k: any other thread.
  std::size_t next_holder(std::size_t k, std::size_t cur) const {
    return (cur + 1 + mix64(key_ + 2 * k + 1) % (kThreads - 1)) % kThreads;
  }

  void hand_to(State& st, std::size_t to) {
    vm::Monitor& m = st.mon[to];
    mon_enter(m);
    st.flag[to] = true;
    st.handed_at = now_ns();
    mon_notify(m);
    mon_exit(m);
  }

  void holder(State& st, std::size_t t) {
    vm::Monitor& mine = st.mon[t];
    mon_enter(mine);
    mon_enter(st.start);
    st.started[t] = true;
    mon_notify(st.start);
    mon_exit(st.start);
    std::vector<float> lat;
    for (;;) {
      while (!st.flag[t]) mon_wait(mine);
      st.flag[t] = false;
      if (st.done) break;
      lat.push_back(micros_since(st.handed_at));
      const std::size_t k = st.next++;
      for (int b = 0; b < burst(k); ++b) {
        shared_set(st.acc, mix64(shared_get(st.acc) + k * 16 + b));
      }
      if (k + 1 < handoffs_) {
        hand_to(st, next_holder(k, t));
        continue;
      }
      // The last holder releases every other thread, each already waiting.
      st.done = true;
      for (std::size_t u = 0; u < kThreads; ++u) {
        if (u != t) hand_to(st, u);
      }
      break;
    }
    mon_exit(mine);
    probe.add_latencies(lat);
  }

  void run(vm::Vm& v) {
    State st(v);
    std::vector<vm::VmThread> threads;
    threads.reserve(kThreads);
    // Holding `start` while creating thread t and waiting for it means the
    // wait always happens, and thread t owns its own monitor before anyone
    // can hand it the token.
    mon_enter(st.start);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back(v, [this, &st, t] { holder(st, t); });
      while (!st.started[t]) mon_wait(st.start);
    }
    mon_exit(st.start);
    hand_to(st, key_ % kThreads);
    for (auto& th : threads) th.join();
    probe.sums[0] = mix64(st.acc.get() ^ seed_);
  }

  std::uint64_t seed_;
  std::uint64_t key_;  // mix64(seed): draws are mix64(key_ + index)
  std::size_t handoffs_;
};

// ingest_open: one server DJVM thread reads 16 KiB messages from a plain
// (non-DJVM) feeder and acks every 64; message contents are logged.
class IngestOpen final : public Workload {
 public:
  static constexpr std::size_t kMsg = 16 << 10;
  static constexpr int kAckEvery = 64;

  IngestOpen(std::uint64_t seed, double scale)
      : seed_(seed),
        msgs_(std::max(kAckEvery,
                       static_cast<int>(std::lround(kMessages * scale)) /
                           kAckEvery * kAckEvery)) {}

  void add_vms(core::Session& s) override {
    s.add_vm("server", kServerHost, true, [this](vm::Vm& v) { server(v); });
    s.add_vm("feeder", 2, false, [this](vm::Vm& v) { feeder(v); });
  }
  std::size_t checksum_slots() const override { return 1; }

 private:
  static constexpr double kMessages = 6144;

  // The server's work per message: one serial mixing chain over its words.
  // It keeps every phase compute-bound, so the phase ratios do not swing
  // with what cross-core wake-ups cost on the host at the time.
  static std::uint64_t fold(std::uint64_t h, const std::uint8_t* p) {
    for (std::size_t i = 0; i < kMsg; i += 8) h = mix64(h ^ load_u64(p + i));
    return h;
  }

  void server(vm::Vm& v) {
    vm::ServerSocket ls(v, kPort);
    probe.listening.store(true, std::memory_order_release);
    auto sock = accept_from(ls);
    std::vector<std::uint8_t> buf(kMsg);
    std::uint64_t h = seed_;
    std::array<std::uint8_t, 8> ack{};
    for (int i = 0; i < msgs_; ++i) {
      read_full(*sock, buf.data(), kMsg);
      h = fold(h, buf.data());
      if (i % kAckEvery == kAckEvery - 1) {
        store_u64(ack.data(), h);
        write_all(*sock, ack.data(), ack.size());
      }
    }
    sock->close();
    ls.close();
    probe.sums[0] = h;
  }

  // The feeder is a plain VM: its calls go straight to the network in every
  // mode, so they are not spanned.  It never runs in replay.
  void feeder(vm::Vm& v) {
    probe.await_listening();
    vm::Socket sock(v, net::SocketAddress{kServerHost, kPort});
    std::vector<std::uint8_t> msg(kMsg);
    std::array<std::uint8_t, 8> ack{};
    std::vector<float> lat;
    lat.reserve(static_cast<std::size_t>(msgs_ / kAckEvery));
    // Each body is generated here, as a real producer would.
    Xoshiro256 rng(seed_);
    std::uint64_t t0 = 0;
    for (int i = 0; i < msgs_; ++i) {
      if (i % kAckEvery == 0) t0 = now_ns();
      for (std::size_t j = 0; j < kMsg; j += 8) {
        store_u64(msg.data() + j, rng.next());
      }
      sock.output_stream().write(msg);
      if (i % kAckEvery == kAckEvery - 1) {
        std::size_t got = 0;
        while (got < ack.size()) {
          const std::size_t r =
              sock.input_stream().read(ack.data() + got, ack.size() - got);
          if (r == 0) throw Error("feeder: EOF before ack");
          got += r;
        }
        lat.push_back(micros_since(t0));
      }
    }
    sock.close();
    probe.add_latencies(lat);
  }

  std::uint64_t seed_;
  int msgs_;
};

// race_pair: one DJVM, two threads racing freely.  Each updates its own
// SharedVar and, every 64 iterations, a shared tally with an unsynchronized
// read-modify-write.  The OS decides the interleaving, so the recorded
// interval count varies run to run.
class RacePair final : public Workload {
 public:
  static constexpr int kPeriod = 64;

  RacePair(std::uint64_t seed, double scale)
      : seed_(seed),
        iters_(std::max(kPeriod,
                        static_cast<int>(std::lround(kIters * scale)))) {}

  void add_vms(core::Session& s) override {
    s.add_vm("pair", kServerHost, true, [this](vm::Vm& v) { run(v); });
  }
  std::size_t checksum_slots() const override { return 1; }

 private:
  static constexpr double kIters = 65536;

  void run(vm::Vm& v) {
    vm::SharedVar<std::uint64_t> own0(v, 0), own1(v, 0), tally(v, 0);
    std::vector<vm::VmThread> threads;
    threads.reserve(2);
    // Both threads start racing together: a spin outside the runtime's
    // view, so it adds no critical event.
    std::atomic<int> arrived{0};
    for (int t = 0; t < 2; ++t) {
      vm::SharedVar<std::uint64_t>& own = t == 0 ? own0 : own1;
      threads.emplace_back(v, [this, &own, &tally, &arrived, t] {
        arrived.fetch_add(1);
        while (arrived.load() < 2) std::this_thread::yield();
        std::vector<float> lat;
        lat.reserve(static_cast<std::size_t>(iters_ / kPeriod));
        std::uint64_t inc = mix64(mix64(seed_) + static_cast<std::uint64_t>(t));
        std::uint64_t t0 = now_ns();
        for (int i = 0; i < iters_; ++i) {
          inc = mix64(inc);
          shared_set(own, shared_get(own) + (inc & 0xffff));
          if (i % kPeriod == kPeriod - 1) {
            shared_set(tally, shared_get(tally) + 1);
            lat.push_back(micros_since(t0));
            t0 = now_ns();
          }
        }
        probe.add_latencies(lat);
      });
    }
    for (auto& th : threads) th.join();
    probe.sums[0] = mix64(own0.get() ^ mix64(own1.get() ^ tally.get()));
  }

  std::uint64_t seed_;
  int iters_;
};

struct WorkloadInfo {
  const char* name;
  bool pinned;            // runs on one CPU (the paper's uniprocessor)
  bool program_ordered;   // native checksum must equal record's
  bool fixed_schedule;    // critical-event count set by program and seed
  const char* op;         // what one latency sample measures
};

constexpr WorkloadInfo kWorkloads[] = {
    {"rpc_closed", true, false, true, "client RPC round trip"},
    {"handoff_ring", true, true, true, "token hand-off until the holder wakes"},
    {"ingest_open", false, true, true,
     "feeder batch of 64 messages until its ack"},
    {"race_pair", false, false, false, "64 iterations of one thread"},
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double scale) {
  if (name == "rpc_closed") return std::make_unique<RpcClosed>(seed, scale);
  if (name == "handoff_ring") return std::make_unique<HandoffRing>(seed, scale);
  if (name == "ingest_open") return std::make_unique<IngestOpen>(seed, scale);
  if (name == "race_pair") return std::make_unique<RacePair>(seed, scale);
  return nullptr;
}

/// One workload instance with its session.  The session is built with every
/// layer at its defaults: the only tuning field set is spool_dir.
struct Instance {
  Instance(const std::string& name, std::uint64_t seed, double scale,
           const std::string& spool_dir, bool keep_trace)
      : workload(make_workload(name, seed, scale)),
        session([&] {
          core::SessionConfig cfg;
          cfg.keep_trace = keep_trace;
          cfg.net.seed = seed;
          // Zero delays (the default) and whole-message reads: a read's
          // byte count is then set by the program, not by a fault draw.
          cfg.net.segmentation.short_read_prob = 0.0;
          cfg.tuning.spool_dir = spool_dir;
          return cfg;
        }()) {
    workload->add_vms(session);
  }

  std::unique_ptr<Workload> workload;
  core::Session session;
};

// ---------------------------------------------------------------------------
// Measurement.

struct Sampler {
  std::map<std::string, std::vector<double>> values;
  void add(const std::string& k, double v) { values[k].push_back(v); }
  double med(const std::string& k) const {
    auto it = values.find(k);
    return it == values.end() ? 0.0 : median(it->second);
  }
};

/// Fixed-size pool of latency samples: the first kCap are kept, each later
/// one replaces a seeded-random slot (reservoir sampling).  The storage is
/// allocated and touched up front, so the pool's memory does not depend on
/// how many repetitions ran.
class Reservoir {
 public:
  static constexpr std::size_t kCap = 1 << 18;

  explicit Reservoir(std::uint64_t seed) : slots_(kCap, 0.0f), rng_(seed) {}

  void add(const std::vector<float>& samples) {
    for (float v : samples) {
      if (seen_ < kCap) {
        slots_[seen_] = v;
      } else if (const std::uint64_t j = rng_.next_below(seen_ + 1); j < kCap) {
        slots_[j] = v;
      }
      ++seen_;
    }
  }

  std::uint64_t seen() const { return seen_; }

  double percentile(double q) const {
    const auto n =
        static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(seen_, kCap));
    std::vector<float> v(slots_.begin(), slots_.begin() + n);
    return rrbench::percentile(v, q);
  }

 private:
  std::vector<float> slots_;
  Xoshiro256 rng_;
  std::uint64_t seen_ = 0;
};

struct RunState {
  explicit RunState(std::uint64_t seed) : lat_native(seed), lat_record(~seed) {}

  const WorkloadInfo* info = nullptr;
  std::string spool_dir;
  std::unique_ptr<Instance> inst;
  Sampler e2e;    // end-to-end numbers, untraced repetitions only
  Sampler layer;  // per-layer numbers
  // Operation latencies of every untraced repetition, pooled per mode.
  Reservoir lat_native, lat_record;
  std::map<std::string, GlobalCount> witness;  // critical events per DJVM
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t spans = 0;
};

double slowest_main(const core::RunResult& r) {
  double m = 0;
  for (const auto& v : r.vms) m = std::max(m, v.wall_seconds);
  return m;
}

struct Phase {
  double wall_s = 0;
  core::RunResult result;
  std::uint64_t checksum = 0;
  std::vector<float> latency_us;
};

const char* mode_name(core::RunSpec::Mode m) {
  switch (m) {
    case core::RunSpec::Mode::kNative: return "native";
    case core::RunSpec::Mode::kRecord: return "record";
    case core::RunSpec::Mode::kReplay: return "replay";
  }
  return "?";
}

constexpr const char* kLayerMetric[kLayerCount] = {
    "shared", "monitor", "sock_read", "sock_write", "connect", "accept"};

/// Folds the spans of one traced phase into the per-layer sampler: mean
/// self time per call of each gateway layer.
void fold_spans(RunState& st, core::RunSpec::Mode mode) {
  const auto totals = g_tracer.fold_and_clear(&st.spans);
  auto mean_ns = [&](Layer l) {
    return totals[l].calls == 0 ? 0.0
                                : static_cast<double>(totals[l].self_ns) /
                                      static_cast<double>(totals[l].calls);
  };
  const std::string tag = mode_name(mode);
  for (Layer l : {kShared, kMonitor}) {
    st.layer.add(std::string("vm.") + kLayerMetric[l] + "_ns." + tag,
                 mean_ns(l));
  }
  // Socket gateways pass straight through to the network in native mode
  // (net.*); in replay the read and accept paths are served by the replay
  // layer (replay.*).
  switch (mode) {
    case core::RunSpec::Mode::kNative:
      st.layer.add("net.read_ns", mean_ns(kSockRead));
      st.layer.add("net.write_ns", mean_ns(kSockWrite));
      st.layer.add("net.connect_ns", mean_ns(kConnect));
      st.layer.add("net.accept_ns", mean_ns(kAccept));
      break;
    case core::RunSpec::Mode::kRecord:
      for (Layer l : {kSockRead, kSockWrite, kConnect, kAccept}) {
        st.layer.add(std::string("vm.") + kLayerMetric[l] + "_ns.record",
                     mean_ns(l));
      }
      break;
    case core::RunSpec::Mode::kReplay:
      st.layer.add("replay.read_ns", mean_ns(kSockRead));
      st.layer.add("replay.accept_ns", mean_ns(kAccept));
      break;
  }
}

void fail(const std::string& why) {
  std::fprintf(stderr, "rrbench: FAILURE: %s\n", why.c_str());
}

/// One repetition: native, record (spooled), load of the spool, replay from
/// the spool, each phase run back to back.  Returns false when an output
/// check failed.
bool repetition(RunState& st, bool traced) {
  Instance& inst = *st.inst;
  Workload& w = *inst.workload;
  using Mode = core::RunSpec::Mode;
  auto phase = [&](Mode mode, auto&& run) {
    w.probe.reset();
    g_tracer.set_enabled(traced);
    Phase p;
    const auto t0 = Clock::now();
    p.result = run();
    p.wall_s = seconds_since(t0);
    g_tracer.set_enabled(false);
    if (traced) fold_spans(st, mode);
    p.checksum = w.probe.checksum(w.checksum_slots());
    p.latency_us = std::move(w.probe.latency_us);
    return p;
  };

  Phase nat = phase(Mode::kNative, [&] { return inst.session.run_native(); });
  Phase rec = phase(Mode::kRecord, [&] { return inst.session.record(); });

  // Load of the spool: every DJVM's file, decoded and folded.
  double load_s = 0;
  std::uint64_t spool_bytes = 0, intervals = 0;
  for (const auto& v : rec.result.vms) {
    if (v.spool_path.empty()) continue;
    const auto t0 = Clock::now();
    record::SpoolContents c = record::load_spool(v.spool_path);
    load_s += seconds_since(t0);
    intervals += record::compute_stats(c.log).intervals;
    spool_bytes += fs::file_size(v.spool_path);
  }

  Phase rep = phase(Mode::kReplay, [&] {
    return inst.session.replay_from(rec.result.recording());
  });

  // Output checks.
  bool ok = true;
  if (rep.checksum != rec.checksum) {
    fail("replay checksum differs from record's");
    ok = false;
  }
  if (st.info->program_ordered && nat.checksum != rec.checksum) {
    fail("record checksum differs from native's on a program-ordered "
         "workload");
    ok = false;
  }
  GlobalCount events = 0;
  for (const auto& v : rec.result.vms) {
    if (!v.djvm) continue;
    events += v.critical_events;
    const GlobalCount replayed = rep.result.vm(v.name).critical_events;
    if (replayed != v.critical_events) {
      fail(v.name + ": replay executed " + std::to_string(replayed) +
           " critical events, record " + std::to_string(v.critical_events));
      ok = false;
    }
    auto [it, fresh] = st.witness.emplace(v.name, v.critical_events);
    if (!fresh && st.info->fixed_schedule && it->second != v.critical_events) {
      fail(v.name + ": critical events strayed from " +
           std::to_string(it->second) + " to " +
           std::to_string(v.critical_events));
      ok = false;
    }
  }
  std::fprintf(stderr,
               "rrbench: %s repetition: native %.4f s, record %.4f s, load "
               "%.4f s, replay %.4f s, %" PRIu64 " events, %" PRIu64
               " intervals\n",
               traced ? "traced" : "untraced", nat.wall_s, rec.wall_s, load_s,
               rep.wall_s, static_cast<std::uint64_t>(events), intervals);

  Sampler& L = st.layer;
  if (traced) {
    L.add("phase.native_s.traced", nat.wall_s);
    L.add("phase.record_s.traced", rec.wall_s);
    L.add("phase.replay_s.traced", rep.wall_s);
    return ok;
  }

  Sampler& e = st.e2e;
  e.add("record_x_native", rec.wall_s / nat.wall_s);
  e.add("replay_x_native", rep.wall_s / nat.wall_s);
  e.add("log_bytes_per_event",
        static_cast<double>(spool_bytes) / static_cast<double>(events));
  st.lat_native.add(nat.latency_us);
  st.lat_record.add(rec.latency_us);

  L.add("phase.native_s", nat.wall_s);
  L.add("phase.record_s", rec.wall_s);
  L.add("phase.replay_s", rep.wall_s);
  L.add("core.run_overhead_s.native", nat.wall_s - slowest_main(nat.result));
  L.add("core.run_overhead_s.record", rec.wall_s - slowest_main(rec.result));
  L.add("core.run_overhead_s.replay", rep.wall_s - slowest_main(rep.result));

  // SchedStats summed over the DJVMs of each phase; SpoolStats over the
  // DJVMs of the record phase (high-water marks: the largest).
  sched::SchedStats rs{}, ps{};
  record::SpoolStats sp{};
  for (const auto& v : rec.result.vms) {
    if (!v.djvm) continue;
    rs.stripe_waits += v.sched.stripe_waits;
    rs.section_wait_micros += v.sched.section_wait_micros;
    sp.chunks_written += v.spool.chunks_written;
    sp.raw_bytes += v.spool.raw_bytes;
    sp.written_bytes += v.spool.written_bytes;
    sp.producer_blocks += v.spool.producer_blocks;
    sp.writer_parks += v.spool.writer_parks;
    sp.ring_records += v.spool.ring_records;
    sp.ring_high_water_bytes =
        std::max(sp.ring_high_water_bytes, v.spool.ring_high_water_bytes);
    sp.queue_high_water_bytes =
        std::max(sp.queue_high_water_bytes, v.spool.queue_high_water_bytes);
  }
  std::uint64_t wakeups = 0, publications = 0;
  for (const auto& v : rep.result.vms) {
    ps.waits_parked += v.sched.waits_parked;
    ps.wakeups_spurious += v.sched.wakeups_spurious;
    ps.total_wait_micros += v.sched.total_wait_micros;
    ps.max_wait_micros = std::max(ps.max_wait_micros, v.sched.max_wait_micros);
    ps.leases_taken += v.sched.leases_taken;
    ps.leased_events += v.sched.leased_events;
    ps.lease_publish_count += v.sched.lease_publish_count;
    wakeups += v.sched.wakeups_delivered + v.sched.wakeups_spurious;
    publications +=
        v.sched.ticks + v.sched.sections + v.sched.lease_publish_count;
  }
  auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  auto ratio = [&](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : d(a) / d(b);
  };
  L.add("sched.critical_events", d(events));
  L.add("sched.intervals", d(intervals));
  L.add("sched.events_per_interval", ratio(events, intervals));
  L.add("sched.stripe_waits", d(rs.stripe_waits));
  L.add("sched.section_wait_us", d(rs.section_wait_micros));
  L.add("sched.waits_parked", d(ps.waits_parked));
  L.add("sched.wait_us", d(ps.total_wait_micros));
  L.add("sched.max_wait_us", d(ps.max_wait_micros));
  L.add("sched.wakeups_per_tick", ratio(wakeups, publications));
  L.add("sched.wakeups_spurious", d(ps.wakeups_spurious));
  L.add("sched.leases_taken", d(ps.leases_taken));
  L.add("sched.leased_events", d(ps.leased_events));
  L.add("sched.lease_publish_count", d(ps.lease_publish_count));
  L.add("sched.replay_us_per_interval",
        intervals == 0 ? 0.0 : rep.wall_s * 1e6 / d(intervals));
  L.add("record.spool_bytes", d(sp.written_bytes));
  L.add("record.raw_bytes", d(sp.raw_bytes));
  L.add("record.chunks", d(sp.chunks_written));
  L.add("record.producer_blocks", d(sp.producer_blocks));
  L.add("record.writer_parks", d(sp.writer_parks));
  L.add("record.ring_records", d(sp.ring_records));
  L.add("record.ring_high_water_bytes", d(sp.ring_high_water_bytes));
  L.add("record.queue_high_water_bytes", d(sp.queue_high_water_bytes));
  L.add("record.load_s", load_s);
  L.add("record.load_mb_s", d(spool_bytes) / 1e6 / load_s);
  return ok;
}

/// The traced correctness check: a small instance with keep_trace on,
/// recorded to its own spool, replayed from it, and compared event by event
/// with core::verify.
bool traced_verify(RunState& st, std::uint64_t seed) {
  const std::string dir = st.spool_dir + "/verify";
  Instance inst(st.info->name, seed, 0.125, dir, /*keep_trace=*/true);
  Probe& probe = inst.workload->probe;
  const std::size_t slots = inst.workload->checksum_slots();
  core::RunResult rec = inst.session.record();
  const std::uint64_t rec_sum = probe.checksum(slots);
  probe.reset();
  core::RunResult rep = inst.session.replay_from(rec.recording());
  core::verify(rec, rep);
  fs::remove_all(dir);
  if (probe.checksum(slots) != rec_sum) {
    fail("traced verify: replay checksum differs from record's");
    return false;
  }
  return true;
}

/// Set-up: build the session and declare its VMs (each workload draws its
/// seeded inputs as it runs).  Returns its seconds.
double setup(RunState& st, std::uint64_t seed) {
  st.inst.reset();
  const auto t0 = Clock::now();
  st.inst = std::make_unique<Instance>(st.info->name, seed, 1.0, st.spool_dir,
                                       /*keep_trace=*/false);
  return seconds_since(t0);
}

/// Lets lazy initialization in the runtime and the OS finish before anything
/// is timed: one record/replay round trip of a 1/16-size instance.
void warm_up(RunState& st, std::uint64_t seed) {
  const std::string dir = st.spool_dir + "/warm";
  Instance warm(st.info->name, seed, 0.0625, dir, /*keep_trace=*/false);
  core::RunResult rec = warm.session.record();
  warm.session.replay_from(rec.recording());
  fs::remove_all(dir);
}

std::string fs_name(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794c7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "[]";
  std::string out = "[";
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    if (out.size() > 1) out += ",";
    out += std::to_string(c);
  }
  return out + "]";
}

/// Pins the calling thread — and every thread it creates afterwards — to
/// the highest-numbered CPU it may run on.
bool pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return false;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  if (last < 0) return false;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string work_dir = ".bench_build/rrbench";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--commit") a.commit = v;
    else if (k == "--work-dir") a.work_dir = v;
    else return false;
  }
  return (argc % 2) == 1 && !a.workload.empty() && a.seconds > 0;
}

/// Prints one metric as a readable line and, when `json` is non-null,
/// appends it to the result object.
void print_metric(std::string* json, const std::string& name, double value,
                  const char* unit) {
  std::printf("%-34s %.10g %s\n", name.c_str(), value, unit);
  if (json == nullptr) return;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->empty() ? "" : ", ", name.c_str(), value, unit);
  *json += buf;
}

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer counters and times read from the program's own exports.
constexpr Metric kCounterMetrics[] = {
    {"sched.critical_events", "count"},
    {"sched.intervals", "count"},
    {"sched.events_per_interval", "count"},
    {"sched.stripe_waits", "count"},
    {"sched.section_wait_us", "us"},
    {"sched.waits_parked", "count"},
    {"sched.wait_us", "us"},
    {"sched.max_wait_us", "us"},
    {"sched.wakeups_per_tick", "count"},
    {"sched.wakeups_spurious", "count"},
    {"sched.leases_taken", "count"},
    {"sched.leased_events", "count"},
    {"sched.lease_publish_count", "count"},
    {"sched.replay_us_per_interval", "us"},
    {"record.spool_bytes", "B"},
    {"record.raw_bytes", "B"},
    {"record.chunks", "count"},
    {"record.producer_blocks", "count"},
    {"record.writer_parks", "count"},
    {"record.ring_records", "count"},
    {"record.ring_high_water_bytes", "B"},
    {"record.queue_high_water_bytes", "B"},
    {"record.load_s", "s"},
    {"record.load_mb_s", "MB/s"},
    {"core.run_overhead_s.native", "s"},
    {"core.run_overhead_s.record", "s"},
    {"core.run_overhead_s.replay", "s"},
    {"phase.native_s", "s"},
    {"phase.record_s", "s"},
    {"phase.replay_s", "s"},
};

int run(const Args& args) {
  RunState st(args.seed);
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) st.info = &w;
  }
  if (st.info == nullptr) {
    std::fprintf(stderr, "rrbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (st.info->pinned && !pin_to_one_cpu()) {
    std::fprintf(stderr, "rrbench: sched_setaffinity failed\n");
    return 2;
  }
  st.spool_dir = fs::absolute(args.work_dir).string() + "/spool-" +
                 args.workload + "-" + std::to_string(getpid());
  fs::remove_all(st.spool_dir);
  fs::create_directories(st.spool_dir);

  const auto start = Clock::now();
  try {
    warm_up(st, args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrbench: warm-up failed: %s\n", e.what());
    fs::remove_all(st.spool_dir);
    return 1;
  }

  // Repetitions until the time is spent, at least three.  Each starts with
  // a fresh set-up, so set-up time is sampled across the whole run; the
  // traced run follows every untraced repetition with a traced one.
  std::vector<double> setups;
  double longest = 0;
  int reps = 0;
  while (reps < 3 || seconds_since(start) + longest < args.seconds) {
    const auto t0 = Clock::now();
    for (bool traced : {false, true}) {
      if (traced && !args.trace) continue;
      ++st.attempted;
      bool ok = false;
      try {
        if (!traced) setups.push_back(setup(st, args.seed));
        ok = repetition(st, traced);
      } catch (const std::exception& e) {
        fail(std::string("repetition threw: ") + e.what());
        g_tracer.set_enabled(false);
        std::uint64_t dropped = 0;
        g_tracer.fold_and_clear(&dropped);
      }
      if (!ok) ++st.failed;
    }
    longest = std::max(longest, seconds_since(t0));
    ++reps;
  }

  if (!setups.empty()) {
    std::fprintf(stderr, "rrbench: %zu set-ups, %.6f..%.6f s\n", setups.size(),
                 *std::min_element(setups.begin(), setups.end()),
                 *std::max_element(setups.begin(), setups.end()));
  }

  ++st.attempted;
  try {
    if (!traced_verify(st, args.seed)) ++st.failed;
  } catch (const std::exception& e) {
    fail(std::string("traced verify threw: ") + e.what());
    ++st.failed;
  }
  st.inst.reset();
  fs::remove_all(st.spool_dir);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // Environment and the schedule-shape witness.
  std::printf("{\"env\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"commit\": \"%s\", \"hardware_concurrency\": %u, "
              "\"pinned\": %s, \"affinity\": %s, \"spool_fs\": \"%s\", "
              "\"repetitions\": %d, \"op\": \"%s\", \"op_samples\": {"
              "\"native\": %" PRIu64 ", \"record\": %" PRIu64 "}, "
              "\"witness_critical_events\": {",
              st.info->name, args.seed, args.commit.c_str(),
              std::thread::hardware_concurrency(),
              st.info->pinned ? "true" : "false", affinity_list().c_str(),
              fs_name(fs::absolute(args.work_dir).string()).c_str(), reps,
              st.info->op, st.lat_native.seen(), st.lat_record.seen());
  bool first = true;
  for (const auto& [vm, n] : st.witness) {
    std::printf("%s\"%s\": %" PRIu64, first ? "" : ", ", vm.c_str(),
                static_cast<std::uint64_t>(n));
    first = false;
  }
  std::printf("}}}\n");
  print_metric(nullptr, "failed_frac",
               static_cast<double>(st.failed) /
                   static_cast<double>(st.attempted),
               "frac");

  const double p50 = st.lat_record.percentile(0.50);
  const double p99 = st.lat_record.percentile(0.99);
  std::string json;
  std::string* e2e = args.trace ? nullptr : &json;
  std::string* layer = args.trace ? &json : nullptr;
  const Sampler& e = st.e2e;
  const Sampler& L = st.layer;
  print_metric(e2e, "setup_s", median(setups), "s");
  print_metric(e2e, "record_x_native", e.med("record_x_native"), "x");
  print_metric(e2e, "replay_x_native", e.med("replay_x_native"), "x");
  print_metric(e2e, "log_bytes_per_event", e.med("log_bytes_per_event"), "B");
  print_metric(e2e, "peak_rss_mb", peak_rss_mb, "MB");

  print_metric(layer, "op.p50_us", p50, "us");
  print_metric(layer, "op.p99_us", p99, "us");
  print_metric(layer, "op.p50_x_native", p50 / st.lat_native.percentile(0.50),
               "x");
  print_metric(layer, "op.p99_x_native", p99 / st.lat_native.percentile(0.99),
               "x");
  for (const Metric& m : kCounterMetrics) {
    print_metric(layer, m.name, L.med(m.name), m.unit);
  }
  // Seal cost: what a record run adds after its mains return, beyond the
  // thread start and join a native run also pays.
  print_metric(layer, "record.seal_s",
               L.med("core.run_overhead_s.record") -
                   L.med("core.run_overhead_s.native"),
               "s");
  if (args.trace) {
    for (const char* mode : {"native", "record", "replay"}) {
      for (const char* l : {"shared", "monitor"}) {
        const std::string k = std::string("vm.") + l + "_ns." + mode;
        print_metric(layer, k, L.med(k), "ns");
      }
    }
    for (const char* l : {"sock_read", "sock_write", "connect", "accept"}) {
      const std::string k = std::string("vm.") + l + "_ns.record";
      print_metric(layer, k, L.med(k), "ns");
    }
    for (const char* k : {"net.read_ns", "net.write_ns", "net.connect_ns",
                          "net.accept_ns", "replay.read_ns",
                          "replay.accept_ns"}) {
      print_metric(layer, k, L.med(k), "ns");
    }
    // Tracing overhead: traced over untraced phase medians.
    for (const char* mode : {"native", "record", "replay"}) {
      const std::string k = std::string("phase.") + mode + "_s";
      print_metric(layer, std::string("trace.overhead_pct.") + mode,
                   100.0 * (L.med(k + ".traced") / L.med(k) - 1.0), "%");
    }
    print_metric(layer, "trace.spans", static_cast<double>(st.spans),
                 "count");
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              st.failed == 0 ? "true" : "false", st.attempted, st.failed,
              json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace rrbench

int main(int argc, char** argv) {
  rrbench::Args args;
  if (!rrbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rrbench --workload <rpc_closed|handoff_ring|"
                 "ingest_open|race_pair> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--work-dir <dir>]\n");
    return 2;
  }
  return rrbench::run(args);
}
