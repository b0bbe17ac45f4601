// The simulator layer: the six tuned collectives at 64 KiB and 1 MiB on
// KNL p=64, Broadwell p=28, POWER8 p=160 and KNL-SNC4 p=128 in timing-only
// mode (48 run_sim calls per sweep), with the driver and so every simulated
// rank thread pinned to one CPU; the engine runs one rank at a time anyway.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "bench.h"
#include "obs/counters.h"
#include "runtime/sim_comm.h"
#include "topo/presets.h"

namespace pb {
namespace {

using kacc::obs::Counter;

constexpr int kSimCpu = 1;
constexpr int kSweeps = 2;
constexpr std::size_t kVerifyBlock = 4096;
constexpr std::array<std::size_t, 2> kSizes = {64u << 10, 1u << 20};

struct Preset {
  const char* name;
  kacc::ArchSpec spec;
  int p;
};

std::vector<Preset> presets() {
  return {{"knl", kacc::knl(), 64},
          {"broadwell", kacc::broadwell(), 28},
          {"power8", kacc::power8(), 160},
          {"knl-snc4", kacc::knl_snc4(), 128}};
}

/// One run_sim call of the sweep.
struct Point {
  int preset = 0;
  int op = 0;
  std::size_t block = 0;
  double makespan_us = 0, host_us = 0, sim_ops = 0;
};

struct Sweep {
  std::vector<Point> points;
  double host_s = 0, ctx_switches = 0;
};

double ctx_switches() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
}

Sweep sweep(const std::vector<Preset>& ps) {
  Sweep sw;
  const double c0 = ctx_switches();
  for (std::size_t pi = 0; pi < ps.size(); ++pi) {
    const Preset& pr = ps[pi];
    for (std::size_t block : kSizes) {
      for (int op = 0; op < kOps; ++op) {
        Point pt{static_cast<int>(pi), op, block};
        const double t0 = now_us();
        const kacc::SimRunResult r = kacc::run_sim(
            pr.spec, pr.p,
            [&](kacc::Comm& c) {
              Payload pl(c.rank(), pr.p, block, /*timing_only=*/true,
                         1u << op);
              run_op(c, pl, op);
            },
            /*move_data=*/false);
        pt.host_us = now_us() - t0;
        pt.makespan_us = r.makespan_us;
        for (Counter c :
             {Counter::kCmaReadOps, Counter::kCmaWriteOps,
              Counter::kCtrlBcasts, Counter::kCtrlGathers,
              Counter::kCtrlAllgathers, Counter::kSignalsPosted,
              Counter::kSignalsWaited, Counter::kBarriers,
              Counter::kShmBcastOps, Counter::kPipeSendOps,
              Counter::kPipeRecvOps}) {
          pt.sim_ops += static_cast<double>(kacc::obs::get(r.obs.totals, c));
        }
        sw.host_s += pt.host_us * 1e-6;
        sw.points.push_back(pt);
      }
    }
  }
  sw.ctx_switches = ctx_switches() - c0;
  return sw;
}

/// Data-moving pass at a reduced size: every rank checks every output.
/// Returns the number of (preset, collective) pairs that failed.
std::uint64_t verify_pass(const std::vector<Preset>& ps, std::uint64_t seed) {
  std::uint64_t failed = 0;
  for (const Preset& pr : ps) {
    std::mutex mu;
    unsigned mask = 0;
    kacc::run_sim(pr.spec, pr.p, [&](kacc::Comm& c) {
      Payload pl(c.rank(), pr.p, kVerifyBlock);
      pl.fill(seed, 0);
      for (int op = 0; op < kOps; ++op) {
        run_op(c, pl, op);
      }
      const unsigned bad = pl.verify(seed, 0);
      const std::lock_guard<std::mutex> lock(mu);
      mask |= bad;
    });
    failed += static_cast<std::uint64_t>(std::popcount(mask));
  }
  return failed;
}

} // namespace

void probe_sim(const Args& args, Result& res) {
  pin_to_index(kSimCpu);
  std::printf("simulator: driver and all simulated rank threads on CPU %d; "
              "%d timing-only sweeps of 48 run_sim calls\n",
              allowed_cpus()[kSimCpu % allowed_cpus().size()], kSweeps);
  const std::vector<Preset> ps = presets();
  std::vector<Sweep> sweeps;
  for (int i = 0; i < kSweeps; ++i) {
    sweeps.push_back(sweep(ps));
    std::printf("  sweep %d: %.4f host s\n", i, sweeps.back().host_s);
  }

  // Virtual makespans must repeat bit for bit; host interference only ever
  // slows the identical simulated work, so each point keeps its least time.
  Sweep best = sweeps[0];
  for (const Sweep& sw : sweeps) {
    for (std::size_t i = 0; i < sw.points.size(); ++i) {
      if (sw.points[i].makespan_us != best.points[i].makespan_us) {
        ++res.failed;
      }
      best.points[i].host_us =
          std::min(best.points[i].host_us, sw.points[i].host_us);
    }
  }
  res.attempted += sweeps.size() * best.points.size();
  res.failed += verify_pass(ps, args.seed);
  res.attempted += ps.size() * kOps;

  double host_s = 0.0, ops = 0.0;
  for (const Point& pt : best.points) {
    host_s += pt.host_us * 1e-6;
    ops += pt.sim_ops;
  }
  std::vector<double> csw;
  for (const Sweep& sw : sweeps) {
    csw.push_back(sw.ctx_switches / ops);
  }
  res.set("sim.ops", ops, "count");
  res.set("sim.host_ns_per_op", host_s * 1e9 / ops, "ns");
  res.set("sim.ctx_switches_per_op", median(csw), "count");
  for (std::size_t pi = 0; pi < ps.size(); ++pi) {
    double ms = 0.0;
    for (const Point& pt : best.points) {
      ms += pt.preset == static_cast<int>(pi) ? pt.host_us * 1e-3 : 0.0;
    }
    res.set(std::string("sim.run_ms.") + ps[pi].name, ms, "ms");
  }
  double vround = 0.0;
  std::printf("  virtual makespans (geomean over the grid, us):");
  for (int op = 0; op < kOps; ++op) {
    std::vector<double> vt, err;
    for (const Point& pt : best.points) {
      if (pt.op == op) {
        const Preset& pr = ps[static_cast<std::size_t>(pt.preset)];
        const double pred = tuner_predicted_us(pr.spec, pr.p, op, pt.block);
        vt.push_back(pt.makespan_us);
        err.push_back(std::fabs(pred - pt.makespan_us) / pt.makespan_us);
      }
    }
    res.set(std::string("sim.virtual_us.") + op_name(op), geomean(vt), "us");
    res.set(std::string("model.pred_err.") + op_name(op), median(err),
            "ratio");
    vround += geomean(vt);
    std::printf(" %s %.3f", op_name(op), geomean(vt));
  }
  std::printf("\n");
  res.set("sim.virtual_round_us", vround, "us");
}

} // namespace pb
