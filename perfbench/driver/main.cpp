// kacc benchmark driver.
//
//   kacc_perfbench --workload <native_small|native_overlap> --seed N
//                  --seconds S --trace 0|1
//
// Prints information lines, then one JSON result line: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace {

constexpr const char* kEndToEnd[] = {
    "bcast_us",     "scatter_us", "gather_us", "allgather_us", "alltoall_us",
    "allreduce_us", "round_us",   "setup_s",   "peak_rss_mb"};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "kacc_perfbench: %s\nusage: kacc_perfbench --workload "
               "<native_small|native_overlap> "
               "--seed N --seconds S --trace 0|1\n",
               msg);
  std::exit(2);
}

pb::Args parse(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (argc % 2 == 0) {
    usage("flags take one value each");
  }
  if (a.workload != "native_small" && a.workload != "native_overlap") {
    usage("unknown workload");
  }
  if (!(a.seconds > 0.0 && a.seconds <= 3600.0)) {
    usage("--seconds out of range");
  }
  return a;
}

} // namespace

int main(int argc, char** argv) {
  const pb::Args args = parse(argc, argv);
  // The program reads its observability, fault and tuning knobs from
  // KACC_* variables; every run measures the default configuration.
  std::vector<std::string> cleared;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("KACC_", 0) == 0) {
      cleared.push_back(kv.substr(0, kv.find('=')));
    }
  }
  std::string names;
  for (const std::string& name : cleared) {
    ::unsetenv(name.c_str());
    names += " " + name;
  }
  (void)pb::allowed_cpus(); // capture before anything pins
  std::printf("workload %s seed %llu seconds %.3f trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("environment: every KACC_* variable unset%s%s\n",
              names.empty() ? "" : "; cleared:", names.c_str());
  std::printf("payload digest %016llx\n",
              static_cast<unsigned long long>(pb::payload_digest(args.seed)));
  try {
    pb::Result r = pb::run_native(args);
    if (args.trace) {
      std::vector<std::string> absent;
      for (const auto& [name, unit] : pb::per_layer_metrics()) {
        if (r.metrics.count(name) == 0) {
          r.set(name, 0.0, unit);
          absent.push_back(name);
        }
      }
      std::printf("not on this workload's path (reported as 0):");
      for (const std::string& n : absent) {
        std::printf(" %s", n.c_str());
      }
      std::printf("\n");
    } else {
      for (const char* name : kEndToEnd) {
        if (r.metrics.count(name) == 0) {
          throw std::runtime_error(std::string("metric not measured: ") +
                                   name);
        }
      }
    }
    pb::print_result(r);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "kacc_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
