// Statistics, placement helpers and the result line.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace pb {

const char* op_name(int op) {
  static const char* kNames[kOps] = {"bcast",     "scatter",  "gather",
                                     "allgather", "alltoall", "allreduce"};
  return kNames[op];
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : v) {
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

void print_dist(const std::string& label, const std::vector<double>& v,
                const char* unit) {
  std::printf("  %-28s median %12.6g %s  [q1 %.6g q3 %.6g]  p99 %12.6g %s"
              "  (n=%zu)\n",
              label.c_str(), median(v), unit, quantile(v, 0.25),
              quantile(v, 0.75), quantile(v, 0.99), unit, v.size());
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          out.push_back(c);
        }
      }
    }
    if (out.empty()) {
      out.push_back(0);
    }
    return out;
  }();
  return cpus;
}

void pin_to_index(int idx) {
  const std::vector<int>& cpus = allowed_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<std::size_t>(idx) % cpus.size()], &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

namespace {
std::atomic<int> g_fork_pin_next{-1}; ///< next child's CPU index; -1 = off

void pin_forked_child() {
  const int idx = g_fork_pin_next.load();
  if (idx >= 0) {
    pin_to_index(idx);
  }
}

void count_fork() {
  const int idx = g_fork_pin_next.load();
  if (idx >= 0) {
    // Runs in the parent after each fork: the next child gets the next CPU.
    g_fork_pin_next.store(idx + 1);
  }
}
} // namespace

ForkPinning::ForkPinning(int first_index) {
  static const int registered =
      ::pthread_atfork(nullptr, &count_fork, &pin_forked_child);
  (void)registered;
  g_fork_pin_next.store(first_index);
}

ForkPinning::~ForkPinning() { g_fork_pin_next.store(-1); }

double max_rss_kb() {
  // VmHWM belongs to the current address space. getrusage's ru_maxrss would
  // also carry the high-water mark of whatever image this process exec'd
  // from (the Python launcher).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> out;
    const auto per_op = [&](const std::string& stem, const char* unit) {
      for (int op = 0; op < kOps; ++op) {
        out.emplace_back(stem + "." + op_name(op), unit);
      }
    };
    per_op("coll.tune_us", "us");
    per_op("coll.launch_us", "us");
    per_op("model.pred_err", "ratio");
    per_op("nbc.compile_us", "us");
    per_op("nbc.steps", "count");
    per_op("nbc.drain_us", "us");
    out.emplace_back("nbc.step_ns", "ns");
    out.emplace_back("nbc.init_us", "us");
    out.emplace_back("nbc.wait_us", "us");
    out.emplace_back("nbc.steps_issued", "count");
    out.emplace_back("nbc.steps_deferred", "count");
    out.emplace_back("nbc.admission_stalls", "count");
    out.emplace_back("runtime.barrier_us", "us");
    out.emplace_back("runtime.ctrl_bcast_us", "us");
    out.emplace_back("runtime.ctrl_allgather_us", "us");
    out.emplace_back("runtime.signal_rtt_us", "us");
    out.emplace_back("runtime.cma_read_us.256p", "us");
    out.emplace_back("cma.read_us.1p", "us");
    out.emplace_back("cma.read_us.256p", "us");
    per_op("cma.ops", "count");
    per_op("cma.bytes", "bytes");
    per_op("shm.slow_waits", "count");
    per_op("shm.backoff_sleeps", "count");
    out.emplace_back("sim.ops", "count");
    out.emplace_back("sim.host_ns_per_op", "ns");
    out.emplace_back("sim.ctx_switches_per_op", "count");
    for (const char* preset : {"knl", "broadwell", "power8", "knl-snc4"}) {
      out.emplace_back(std::string("sim.run_ms.") + preset, "ms");
    }
    per_op("sim.virtual_us", "us");
    out.emplace_back("sim.virtual_round_us", "us");
    out.emplace_back("obs.drift_alarms", "count");
    out.emplace_back("trace.overhead", "ratio");
    out.emplace_back("trace.decomposition_gap", "ratio");
    return out;
  }();
  return names;
}

} // namespace pb
