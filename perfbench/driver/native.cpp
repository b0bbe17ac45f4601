// Native workloads: a 3-rank forked team over real process_vm_readv, one
// rank pinned to each of CPUs 1-3, the driver (which is also the reaping
// parent) on CPU 0. Ranks return everything through one shared mapping.
#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <new>
#include <stdexcept>

#include "bench.h"
#include "cma/probe.h"
#include "nbc/nbc.h"
#include "obs/counters.h"
#include "runtime/process_team.h"
#include "topo/detect.h"

namespace pb {
namespace {

namespace nbc = kacc::nbc;

constexpr int kRanks = 3;
constexpr int kLaunches = 100;    ///< fresh teams timed for setup_s
constexpr int kLaunchRounds = 3;  ///< rounds each fresh team runs
constexpr int kSlots = 7;         ///< per-round record: 6 times + mask
constexpr int kMaskSlot = 6;
constexpr std::size_t kMaxRounds = 1u << 21;
constexpr std::size_t kMaxSpans = 1u << 19;
constexpr int kProbeReps = 2000;
/// Blocking rounds after the traced persistent ones, for per-call layers.
constexpr int kProbeRounds = 200;
/// Largest |traced decomposition / untraced call - 1| the check accepts.
constexpr double kDecompShare = 0.25;

struct Shape {
  std::size_t block = 0;
  bool persistent = false;
  int warmup = 0;        ///< untimed rounds on the long-lived team
  std::size_t traced_cap = 0; ///< rounds in the traced phase at most
};

Shape shape_of(const std::string& w) {
  if (w == "native_small") {
    return {4096, false, 2000, 4000};
  }
  return {1u << 20, true, 200, 1000};
}

/// Everything ranks hand back, in one MAP_SHARED mapping created before
/// the fork; ranks write disjoint cells, the driver reads after the reap.
struct Header {
  double setup_ts[kRanks];
  double init_us[kRanks];
  double rss_kb[kRanks];
  std::uint64_t rounds_a = 0;    ///< untraced timed rounds
  std::uint64_t rounds_b = 0;    ///< traced timed rounds
  std::uint64_t warm_failed[kRanks];
  std::uint64_t warm_calls = 0;
  std::uint64_t nspans[kRanks];
  std::uint64_t steps[kRanks][kOps];
  double op_cnt[kRanks][kOps][4]; ///< traced per-call counter sums
  double round_cnt[kRanks][3];    ///< traced per-round nbc counter sums
  double drift_alarms[kRanks];
  RuntimeProbe probe[kRanks];
};

class Shared {
public:
  Shared() {
    bytes_ = sizeof(Header) + (rec_bytes() + span_bytes()) * kRanks;
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
      throw std::runtime_error("mmap of the result area failed");
    }
    base_ = static_cast<char*>(p);
    new (base_) Header{};
  }
  ~Shared() { ::munmap(base_, bytes_); }
  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  Header& hdr() { return *reinterpret_cast<Header*>(base_); }
  float* rec(int rank, std::size_t round) {
    return reinterpret_cast<float*>(base_ + sizeof(Header) +
                                    rec_bytes() * rank) +
           round * kSlots;
  }
  SpanRec* spans(int rank) {
    return reinterpret_cast<SpanRec*>(
        base_ + sizeof(Header) + rec_bytes() * kRanks + span_bytes() * rank);
  }

private:
  static std::size_t rec_bytes() { return kMaxRounds * kSlots * sizeof(float); }
  static std::size_t span_bytes() { return kMaxSpans * sizeof(SpanRec); }
  char* base_ = nullptr;
  std::size_t bytes_ = 0;
};

std::array<nbc::Request, kOps> init_requests(kacc::Comm& comm, Payload& pl) {
  const bool root = comm.rank() == 0;
  std::array<nbc::Request, kOps> r;
  r[kBcast] = nbc::bcast_init(comm, pl.bcast.data(), pl.block, 0);
  r[kScatter] = nbc::scatter_init(comm, root ? pl.scatter_send.data() : nullptr,
                                  pl.scatter_recv.data(), pl.block, 0);
  r[kGather] = nbc::gather_init(comm, pl.gather_send.data(),
                                root ? pl.gather_recv.data() : nullptr,
                                pl.block, 0);
  r[kAllgather] = nbc::allgather_init(comm, pl.allgather_send.data(),
                                      pl.allgather_recv.data(), pl.block);
  r[kAlltoall] = nbc::alltoall_init(comm, pl.alltoall_send.data(),
                                    pl.alltoall_recv.data(), pl.block);
  r[kAllreduce] = nbc::allreduce_init(
      comm, reinterpret_cast<const double*>(pl.allreduce_send.data()),
      reinterpret_cast<double*>(pl.allreduce_recv.data()), pl.count,
      kacc::coll::ReduceOp::kSum);
  return r;
}

/// One rank's view of a run: its payload, requests and result cells.
struct RankCtx {
  kacc::Comm& comm;
  Shared& sh;
  const Args& args;
  Shape shape;
  Payload pl;
  std::array<nbc::Request, kOps> reqs{};
  std::uint64_t round_id = 0; ///< payload round counter (every round)
  std::vector<SpanRec> spans;

  RankCtx(kacc::Comm& c, Shared& s, const Args& a, Shape sh_)
      : comm(c), sh(s), args(a), shape(sh_),
        pl(c.rank(), c.size(), sh_.block) {}

  int rank() const { return comm.rank(); }

  /// One untraced round; per-op times into `t`, returns the failure mask.
  unsigned round(float* t) {
    pl.fill(args.seed, round_id);
    if (shape.persistent) {
      comm.barrier();
      const double t0 = now_us();
      for (nbc::Request& r : reqs) {
        nbc::start(r);
      }
      // nbc::wait_all is this same loop; timing each return gives the
      // per-request completion times.
      for (int op = 0; op < kOps; ++op) {
        nbc::wait(reqs[static_cast<std::size_t>(op)]);
        if (t != nullptr) {
          t[op] = static_cast<float>(now_us() - t0);
        }
      }
    } else {
      for (int op = 0; op < kOps; ++op) {
        comm.barrier();
        const double t0 = now_us();
        run_op(comm, pl, op);
        if (t != nullptr) {
          t[op] = static_cast<float>(now_us() - t0);
        }
      }
    }
    return pl.verify(args.seed, round_id++);
  }

  void span(std::uint32_t name, std::int32_t parent, std::uint32_t rnd,
            int op, double t0, double t1) {
    spans.push_back({name, parent, rnd, static_cast<std::uint32_t>(op), t0,
                     t1});
  }

  /// Blocking calls made through their public layer sequence, with spans
  /// and per-call counter deltas.
  unsigned traced_blocking_round(float* t, std::uint32_t rnd) {
    Header& h = sh.hdr();
    pl.fill(args.seed, round_id);
    for (int op = 0; op < kOps; ++op) {
      comm.barrier();
      const CounterDelta c0 = counter_values(comm);
      const Decomposed d = run_op_decomposed(comm, pl, op);
      const CounterDelta dc = counter_values(comm) - c0;
      t[op] = static_cast<float>(d.total_us());
      const auto call = static_cast<std::int32_t>(spans.size());
      span(kSpanCall, -1, rnd, op, d.t0, d.t1);
      span(kSpanTune, call, rnd, op, d.tune0, d.tune1);
      span(kSpanCompile, call, rnd, op, d.compile0, d.drain0);
      span(kSpanDrain, call, rnd, op, d.drain0, d.drain1);
      h.steps[rank()][op] = d.steps;
      double* cell = h.op_cnt[rank()][op];
      cell[0] += dc.cma_ops;
      cell[1] += dc.cma_bytes;
      cell[2] += dc.slow_waits;
      cell[3] += dc.backoff_sleeps;
    }
    return pl.verify(args.seed, round_id++);
  }

  unsigned traced_persistent_round(float* t, std::uint32_t rnd) {
    Header& h = sh.hdr();
    pl.fill(args.seed, round_id);
    comm.barrier();
    const CounterDelta c0 = counter_values(comm);
    const double t0 = now_us();
    const auto root = static_cast<std::int32_t>(spans.size());
    span(kSpanRound, -1, rnd, 0, t0, 0.0);
    for (int op = 0; op < kOps; ++op) {
      const double s = now_us();
      nbc::start(reqs[static_cast<std::size_t>(op)]);
      span(kSpanStart, root, rnd, op, s, now_us());
    }
    for (int op = 0; op < kOps; ++op) {
      const double s = now_us();
      nbc::wait(reqs[static_cast<std::size_t>(op)]);
      const double e = now_us();
      span(kSpanWait, root, rnd, op, s, e);
      t[op] = static_cast<float>(e - t0);
    }
    spans[static_cast<std::size_t>(root)].t1 = now_us();
    const CounterDelta dc = counter_values(comm) - c0;
    h.round_cnt[rank()][0] += dc.steps_issued;
    h.round_cnt[rank()][1] += dc.steps_deferred;
    h.round_cnt[rank()][2] += dc.admission_stalls;
    return pl.verify(args.seed, round_id++);
  }

  /// Runs rounds until rank 0 calls time (or the cap); returns the count.
  template <typename RoundFn>
  std::uint64_t timed(double seconds, std::size_t first, std::size_t cap,
                      RoundFn fn) {
    const double end = now_us() + seconds * 1e6;
    std::uint64_t n = 0;
    for (;;) {
      int go = 0;
      if (rank() == 0) {
        go = now_us() < end && n < cap && first + n < kMaxRounds ? 1 : 0;
      }
      comm.ctrl_bcast(&go, sizeof(go), 0);
      if (go == 0) {
        return n;
      }
      const std::size_t idx = first + n;
      float* rec = sh.rec(rank(), idx);
      rec[kMaskSlot] = static_cast<float>(fn(rec, static_cast<std::uint32_t>(idx)));
      ++n;
    }
  }
};

/// Body of the long-lived team that runs the timed rounds.
void main_body(kacc::Comm& comm, Shared& sh, const Args& args, Shape shape) {
  pin_to_index(1 + comm.rank());
  RankCtx ctx(comm, sh, args, shape);
  Header& h = sh.hdr();
  if (shape.persistent) {
    ctx.reqs = init_requests(comm, ctx.pl);
  }
  for (int i = 0; i < shape.warmup; ++i) {
    h.warm_failed[ctx.rank()] += std::popcount(ctx.round(nullptr));
  }
  if (ctx.rank() == 0) {
    h.warm_calls = static_cast<std::uint64_t>(shape.warmup) * kOps;
  }
  const double phase = args.trace ? args.seconds / 2 : args.seconds;
  const std::uint64_t a = ctx.timed(
      phase, 0, kMaxRounds,
      [&](float* t, std::uint32_t) { return ctx.round(t); });
  if (ctx.rank() == 0) {
    h.rounds_a = a;
  }
  if (!args.trace) {
    return;
  }
  const std::uint64_t b = ctx.timed(
      phase, a, shape.traced_cap, [&](float* t, std::uint32_t rnd) {
        return shape.persistent ? ctx.traced_persistent_round(t, rnd)
                                : ctx.traced_blocking_round(t, rnd);
      });
  if (ctx.rank() == 0) {
    h.rounds_b = b;
  }
  if (shape.persistent) {
    // The per-call layer costs of the same six collectives, made blocking
    // through their public layer sequence on the same buffers.
    std::vector<float> scratch(kSlots);
    for (std::uint64_t i = 0; i < kProbeRounds; ++i) {
      ctx.traced_blocking_round(scratch.data(),
                                static_cast<std::uint32_t>(a + b + i));
    }
  }
  h.probe[ctx.rank()] = probe_runtime(comm, kProbeReps);
  h.drift_alarms[ctx.rank()] = static_cast<double>(
      comm.recorder().counters.value(kacc::obs::Counter::kModelDriftAlarms));
  const std::size_t n = std::min(ctx.spans.size(), kMaxSpans);
  std::copy_n(ctx.spans.begin(), n, sh.spans(ctx.rank()));
  h.nspans[ctx.rank()] = n;
}

/// Body of one fresh team: set-up time, the six inits, a few verified
/// rounds and the rank's peak RSS.
void launch_body(kacc::Comm& comm, Shared& sh, const Args& args, Shape shape,
                 int launch) {
  pin_to_index(1 + comm.rank());
  Header& h = sh.hdr();
  comm.barrier();
  h.setup_ts[comm.rank()] = now_us();
  RankCtx ctx(comm, sh, args, shape);
  ctx.round_id = static_cast<std::uint64_t>(launch) << 32;
  if (shape.persistent) {
    comm.barrier();
    const double t0 = now_us();
    ctx.reqs = init_requests(comm, ctx.pl);
    h.init_us[comm.rank()] = now_us() - t0;
  }
  for (int i = 0; i < kLaunchRounds; ++i) {
    h.warm_failed[comm.rank()] += std::popcount(ctx.round(nullptr));
  }
  h.rss_kb[comm.rank()] = max_rss_kb();
}

kacc::TeamOptions team_options(double seconds) {
  kacc::TeamOptions o;
  o.team_timeout_ms = 2 * seconds * 1e3 + 120e3;
  return o;
}

/// Set-up cost of fresh teams, each timed from the launch call until every
/// rank is past its first barrier (plus the six inits when persistent).
struct Launches {
  std::vector<double> setup_s, init_us, rss_kb;
  std::uint64_t attempted = 0, failed = 0;
};

void launch_teams(const kacc::ArchSpec& host, const Args& args,
                  const Shape& shape, int first, int count, Launches& out) {
  for (int i = first; i < first + count; ++i) {
    Shared sh;
    std::fflush(stdout);
    const ForkPinning pinning(1);
    const double t0 = now_us();
    const kacc::TeamResult tr = kacc::run_native_team(
        host, kRanks,
        [&](kacc::Comm& c) { launch_body(c, sh, args, shape, i); },
        team_options(args.seconds));
    if (!tr.all_ok()) {
      throw std::runtime_error("set-up team failed: " + tr.first_failure());
    }
    const Header& h = sh.hdr();
    double done = 0.0, init = 0.0, rss = 0.0;
    std::uint64_t bad = 0;
    for (int k = 0; k < kRanks; ++k) {
      done = std::max(done, h.setup_ts[k]);
      init = std::max(init, h.init_us[k]);
      rss = std::max(rss, h.rss_kb[k]);
      bad = std::max(bad, h.warm_failed[k]);
    }
    out.failed += bad;
    out.setup_s.push_back((done - t0 + init) * 1e-6);
    out.init_us.push_back(init);
    out.rss_kb.push_back(rss);
    out.attempted += kLaunchRounds * kOps;
  }
}

/// Max over ranks of slot `op` of round `r`.
double call_max(Shared& sh, std::size_t r, int op) {
  double m = 0.0;
  for (int k = 0; k < kRanks; ++k) {
    m = std::max(m, static_cast<double>(sh.rec(k, r)[op]));
  }
  return m;
}

struct Phase {
  std::array<std::vector<double>, kOps> op_us;
  std::vector<double> round_us;
  std::uint64_t calls = 0, failed = 0;
};

Phase collect(Shared& sh, std::size_t first, std::size_t n, bool persistent) {
  Phase ph;
  for (std::size_t r = first; r < first + n; ++r) {
    double sum = 0.0;
    unsigned mask = 0;
    for (int op = 0; op < kOps; ++op) {
      const double v = call_max(sh, r, op);
      ph.op_us[static_cast<std::size_t>(op)].push_back(v);
      sum += v;
    }
    for (int k = 0; k < kRanks; ++k) {
      mask |= static_cast<unsigned>(sh.rec(k, r)[kMaskSlot]);
    }
    ph.round_us.push_back(persistent ? call_max(sh, r, kOps - 1) : sum);
    ph.calls += kOps;
    ph.failed += static_cast<std::uint64_t>(std::popcount(mask));
  }
  return ph;
}

void set_op_metrics(Result& res, const Phase& ph) {
  // Host disturbances show as one quarter of the run out of line.
  std::printf("  round_us median by quarter of the run:");
  const std::size_t n = ph.round_us.size();
  for (std::size_t q = 0; q < 4; ++q) {
    std::printf(" %.6g",
                median({ph.round_us.begin() + static_cast<std::ptrdiff_t>(q * n / 4),
                        ph.round_us.begin() +
                            static_cast<std::ptrdiff_t>((q + 1) * n / 4)}));
  }
  std::printf("\n");
  for (int op = 0; op < kOps; ++op) {
    const auto& v = ph.op_us[static_cast<std::size_t>(op)];
    res.set(std::string(op_name(op)) + "_us", median(v), "us");
    print_dist(std::string(op_name(op)) + "_us", v, "us");
  }
  res.set("round_us", median(ph.round_us), "us");
  print_dist("round_us", ph.round_us, "us");
}

/// Per-layer numbers of a traced run from the ranks' spans and counters.
void traced_metrics(Result& res, Shared& sh, const Shape& shape,
                    const Phase& untraced, const Phase& traced,
                    const std::vector<std::vector<SpanRec>>& spans) {
  Header& h = sh.hdr();
  // For every blocking call take the rank whose call took longest (the
  // end-to-end definition) and attribute its span tree to the layers.
  struct Parts {
    double total = -1, tune = 0, compile = 0, drain = 0, launch = 0;
  };
  std::map<std::pair<std::uint32_t, int>, Parts> calls;
  std::array<std::vector<double>, kOps> step_ns;
  std::vector<double> wait_us;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const std::vector<SpanRec>& sp = spans[k];
    const std::vector<double> self = self_times(sp);
    std::map<std::uint32_t, double> wait_by_round;
    for (std::size_t i = 0; i < sp.size(); ++i) {
      const SpanRec& s = sp[i];
      if (s.name == kSpanWait) {
        wait_by_round[s.round] += s.t1 - s.t0;
      }
      if (s.name != kSpanCall) {
        continue;
      }
      const int op = static_cast<int>(s.op);
      Parts p;
      p.total = s.t1 - s.t0;
      p.launch = self[i];
      for (std::size_t j = i + 1; j < sp.size() && j < i + 4; ++j) {
        const double d = sp[j].t1 - sp[j].t0;
        (sp[j].name == kSpanTune      ? p.tune
         : sp[j].name == kSpanCompile ? p.compile
                                      : p.drain) = d;
      }
      const std::size_t steps = h.steps[k][op];
      if (steps > 0) {
        step_ns[static_cast<std::size_t>(op)].push_back(p.drain * 1e3 /
                                                        static_cast<double>(steps));
      }
      Parts& best = calls[{s.round, op}];
      if (p.total > best.total) {
        best = p;
      }
    }
    for (const auto& [rnd, w] : wait_by_round) {
      wait_us.push_back(w);
    }
  }
  std::array<std::vector<double>, kOps> tune, compile, drain, launch;
  for (const auto& [key, p] : calls) {
    const auto op = static_cast<std::size_t>(key.second);
    tune[op].push_back(p.tune);
    compile[op].push_back(p.compile);
    drain[op].push_back(p.drain);
    launch[op].push_back(p.launch);
  }
  const double calls_per_op =
      shape.persistent ? kProbeRounds
                       : static_cast<double>(std::max<std::uint64_t>(h.rounds_b, 1));
  double gap = 0.0;
  std::vector<double> all_step_ns;
  std::printf("traced layer split per call (critical rank medians, us):\n");
  for (int op = 0; op < kOps; ++op) {
    const auto o = static_cast<std::size_t>(op);
    const std::string n = op_name(op);
    const double parts = median(tune[o]) + median(compile[o]) +
                         median(drain[o]) + median(launch[o]);
    res.set("coll.tune_us." + n, median(tune[o]), "us");
    res.set("coll.launch_us." + n, median(launch[o]), "us");
    res.set("nbc.compile_us." + n, median(compile[o]), "us");
    res.set("nbc.drain_us." + n, median(drain[o]), "us");
    double steps = 0, ops = 0, bytes = 0, slow = 0, backoff = 0;
    for (int k = 0; k < kRanks; ++k) {
      steps += static_cast<double>(h.steps[k][op]);
      ops += h.op_cnt[k][op][0];
      bytes += h.op_cnt[k][op][1];
      slow += h.op_cnt[k][op][2];
      backoff += h.op_cnt[k][op][3];
    }
    res.set("nbc.steps." + n, steps, "count");
    res.set("cma.ops." + n, ops / calls_per_op, "count");
    res.set("cma.bytes." + n, bytes / calls_per_op, "bytes");
    res.set("shm.slow_waits." + n, slow / calls_per_op, "count");
    res.set("shm.backoff_sleeps." + n, backoff / calls_per_op, "count");
    const double measured = median(untraced.op_us[o]);
    all_step_ns.insert(all_step_ns.end(), step_ns[o].begin(),
                       step_ns[o].end());
    if (!shape.persistent) {
      gap = std::max(gap, std::fabs(parts / measured - 1.0));
    }
    std::printf("  %-10s tune %8.3f compile %8.3f drain %10.3f launch %7.3f"
                " = %10.3f vs untraced %10.3f\n",
                n.c_str(), median(tune[o]), median(compile[o]),
                median(drain[o]), median(launch[o]), parts, measured);
  }
  res.set("nbc.step_ns", median(all_step_ns), "ns");
  const double rounds_b = static_cast<double>(std::max<std::uint64_t>(h.rounds_b, 1));
  double issued = 0, deferred = 0, stalls = 0, alarms = 0;
  for (int k = 0; k < kRanks; ++k) {
    issued += h.round_cnt[k][0];
    deferred += h.round_cnt[k][1];
    stalls += h.round_cnt[k][2];
    alarms += h.drift_alarms[k];
  }
  res.set("nbc.wait_us", median(wait_us), "us");
  res.set("nbc.steps_issued", issued / rounds_b, "count");
  res.set("nbc.steps_deferred", deferred / rounds_b, "count");
  res.set("nbc.admission_stalls", stalls / rounds_b, "count");
  res.set("obs.drift_alarms", alarms, "count");
  res.set("runtime.barrier_us", h.probe[0].barrier_us, "us");
  res.set("runtime.ctrl_bcast_us", h.probe[0].ctrl_bcast_us, "us");
  res.set("runtime.ctrl_allgather_us", h.probe[0].ctrl_allgather_us, "us");
  res.set("runtime.signal_rtt_us", h.probe[0].signal_rtt_us, "us");
  res.set("runtime.cma_read_us.256p", h.probe[1].cma_read_256p_us, "us");
  const double overhead =
      median(traced.round_us) / median(untraced.round_us) - 1.0;
  res.set("trace.overhead", overhead, "ratio");
  if (shape.persistent) {
    gap = std::fabs(overhead);
  }
  res.set("trace.decomposition_gap", gap, "ratio");
  if (!shape.persistent) {
    std::printf("decomposition check: tune+compile+drain+launch vs untraced "
                "call median, worst gap %.4f (limit %.2f): %s\n",
                gap, kDecompShare, gap <= kDecompShare ? "PASS" : "FAIL");
  }
}

} // namespace

Result run_native(const Args& args) {
  Result res;
  if (!kacc::cma::available()) {
    throw std::runtime_error(std::string("CMA unavailable: ") +
                             kacc::cma::unavailable_reason());
  }
  const Shape shape = shape_of(args.workload);
  pin_to_index(0);
  const kacc::ArchSpec host = kacc::detect_host();
  std::printf("placement: driver and reaping parent on CPU %d, ranks 0-2 on "
              "CPUs %d %d %d; buffers 2 MiB-aligned; %zu bytes per rank\n",
              allowed_cpus()[0], allowed_cpus()[1 % allowed_cpus().size()],
              allowed_cpus()[2 % allowed_cpus().size()],
              allowed_cpus()[3 % allowed_cpus().size()], shape.block);
  if (shape.block >= (1u << 20)) {
    std::printf("note: 1 MiB blocks (3 MiB root buffers) are cache-resident "
                "on this class of host (2 MiB L2 per core, large L3): this "
                "measures page pinning and cached copies, not DRAM "
                "bandwidth\n");
  }

  // Half the set-up launches before the timed team, half after it, so one
  // moment of host interference cannot carry the whole median.
  Launches setup;
  launch_teams(host, args, shape, 0, kLaunches / 2, setup);
  const double driver_rss = max_rss_kb();

  Shared sh;
  std::fflush(stdout);
  kacc::TeamResult tr;
  {
    const ForkPinning pinning(1);
    tr = kacc::run_native_team(
        host, kRanks, [&](kacc::Comm& c) { main_body(c, sh, args, shape); },
        team_options(args.seconds));
  }
  if (!tr.all_ok()) {
    throw std::runtime_error("timed team failed: " + tr.first_failure());
  }
  launch_teams(host, args, shape, kLaunches / 2, kLaunches / 2, setup);
  std::uint64_t failed = setup.failed, attempted = setup.attempted;
  Header& h = sh.hdr();
  std::uint64_t warm_bad = 0;
  for (int k = 0; k < kRanks; ++k) {
    warm_bad = std::max(warm_bad, h.warm_failed[k]);
  }
  const Phase a = collect(sh, 0, h.rounds_a, shape.persistent);
  attempted += a.calls + h.warm_calls;
  failed += a.failed + warm_bad;
  std::printf("untraced: %llu timed rounds after %d warm-up rounds on one "
              "team\n",
              static_cast<unsigned long long>(h.rounds_a), shape.warmup);
  set_op_metrics(res, a);
  res.set("setup_s", median(setup.setup_s), "s");
  print_dist("setup_s", setup.setup_s, "s");
  res.set("peak_rss_mb",
          std::max(median(setup.rss_kb), driver_rss) / 1024.0, "MB");

  if (args.trace) {
    const Phase b = collect(sh, h.rounds_a, h.rounds_b, shape.persistent);
    attempted += b.calls;
    failed += b.failed;
    std::printf("traced: %llu rounds\n",
                static_cast<unsigned long long>(h.rounds_b));
    print_dist("traced round_us", b.round_us, "us");
    std::vector<std::vector<SpanRec>> spans(kRanks);
    for (int k = 0; k < kRanks; ++k) {
      spans[static_cast<std::size_t>(k)].assign(sh.spans(k),
                                                sh.spans(k) + h.nspans[k]);
    }
    Result traced;
    traced_metrics(traced, sh, shape, a, b, spans);
    write_spans(args.workload, spans);
    const CmaProbe cp = probe_cma(kProbeReps);
    traced.set("cma.read_us.1p", cp.read_1p_us, "us");
    traced.set("cma.read_us.256p", cp.read_256p_us, "us");
    traced.set("nbc.init_us", median(setup.init_us), "us");
    if (args.workload == "native_small") {
      probe_sim(args, traced);
    }
    res.metrics = traced.metrics;
    attempted += traced.attempted;
    failed += traced.failed;
  }
  res.attempted = attempted;
  res.failed = failed;
  res.correct = failed == 0;
  return res;
}

} // namespace pb
