// Shared declarations of the kacc benchmark driver (see perfbench/README.md
// for the workloads and metrics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "runtime/comm.h"

namespace pb {

/// The six tuned collectives every workload runs, in round order.
enum Op : int { kBcast, kScatter, kGather, kAllgather, kAlltoall, kAllreduce };
inline constexpr int kOps = 6;
const char* op_name(int op);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Metric name -> (value, unit), printed as the final JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

// ----- statistics (report.cpp) -----

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double geomean(const std::vector<double>& v);
/// Prints median, quartiles, p99 and sample count as an information line.
void print_dist(const std::string& label, const std::vector<double>& v,
                const char* unit);
/// Prints the result's final JSON line on stdout.
void print_result(const Result& r);

// ----- placement and clocks -----

double now_us();
/// CPUs this process may run on, captured once before any pinning.
const std::vector<int>& allowed_cpus();
/// Pins the calling thread (and its future children) to the idx-th allowed
/// CPU, wrapping when fewer CPUs exist.
void pin_to_index(int idx);
/// While alive, every process this one forks pins itself, in the child,
/// straight after fork: the k-th child to the (first_index + k)-th allowed
/// CPU. A team's ranks so never share the driver's CPU, not even while they
/// start up.
class ForkPinning {
public:
  explicit ForkPinning(int first_index);
  ~ForkPinning();
  ForkPinning(const ForkPinning&) = delete;
  ForkPinning& operator=(const ForkPinning&) = delete;
};
/// Peak resident set of the calling process, in KiB.
double max_rss_kb();

// ----- payloads (layers.cpp) -----

/// Buffers of one rank for the six collectives at `block` bytes per rank,
/// each 2 MiB-aligned so placement relative to page-table lock domains does
/// not depend on the allocator. `timing_only` leaves them untouched (the
/// simulator's timing sweeps never read payloads).
struct Payload {
  /// Allocates the buffers of the collectives in `op_mask` (bit i = Op i).
  Payload(int rank, int p, std::size_t block, bool timing_only = false,
          unsigned op_mask = (1u << kOps) - 1);

  /// Writes round `round`'s inputs for `seed` into this rank's send buffers.
  void fill(std::uint64_t seed, std::uint64_t round);
  /// Checks the outputs the last round left on this rank; bit i set means
  /// collective i delivered wrong bytes here.
  [[nodiscard]] unsigned verify(std::uint64_t seed, std::uint64_t round) const;

  int rank;
  int p;
  std::size_t block;
  std::size_t count; ///< allreduce doubles (block / 8)
  kacc::AlignedBuffer bcast, scatter_send, scatter_recv, gather_send,
      gather_recv, allgather_send, allgather_recv, alltoall_send,
      alltoall_recv, allreduce_send, allreduce_recv;
};

/// Hash of the inputs round 0 of `seed` gives rank 0 of a 3-rank team.
std::uint64_t payload_digest(std::uint64_t seed);

/// One tuned blocking call, exactly as an application makes it.
void run_op(kacc::Comm& comm, Payload& pl, int op);

/// One blocking call made as the launcher's own public sequence: Tuner,
/// compile, drain, with the launcher's validation, obs span and scope
/// around them. Host-clock stamps: the call spans [t0, t1], the tuner
/// [tune0, tune1], the compiler [compile0, drain0] and the drain
/// [drain0, drain1]; what the call covers beyond those three is launch.
struct Decomposed {
  double t0 = 0, tune0 = 0, tune1 = 0, compile0 = 0, drain0 = 0,
         drain1 = 0, t1 = 0;
  std::size_t steps = 0;
  [[nodiscard]] double total_us() const { return t1 - t0; }
};
Decomposed run_op_decomposed(kacc::Comm& comm, Payload& pl, int op);

/// The tuner's model cost of its choice for `op` (no communication).
double tuner_predicted_us(const kacc::ArchSpec& spec, int p, int op,
                          std::size_t block);

/// The calling rank's own counters that the per-layer metrics difference
/// around each call or round.
struct CounterDelta {
  double cma_ops = 0, cma_bytes = 0, slow_waits = 0, backoff_sleeps = 0;
  double steps_issued = 0, steps_deferred = 0, admission_stalls = 0;
};
CounterDelta counter_values(kacc::Comm& comm);
CounterDelta operator-(const CounterDelta& a, const CounterDelta& b);

/// Median host µs of the runtime's control-plane primitives on `comm`
/// (every rank must call): barrier, 64-byte ctrl_bcast and ctrl_allgather,
/// a rank 0 <-> 1 signal round trip, and a 256-page Comm::cma_read of rank
/// 0's memory by rank 1. Valid on rank 0 (cma_read on rank 1).
struct RuntimeProbe {
  double barrier_us = 0, ctrl_bcast_us = 0, ctrl_allgather_us = 0,
         signal_rtt_us = 0, cma_read_256p_us = 0;
};
RuntimeProbe probe_runtime(kacc::Comm& comm, int reps);

/// Raw cma::read_from of 1 and 256 pages from a cma::RemoteTarget child.
struct CmaProbe {
  double read_1p_us = 0, read_256p_us = 0;
};
CmaProbe probe_cma(int reps);

// ----- spans (layers.cpp) -----

/// The benchmark's own spans around public calls; kept in memory and
/// written out when the run ends.
struct SpanRec {
  std::uint32_t name = 0; ///< a SpanName
  std::int32_t parent = -1;
  std::uint32_t round = 0;
  std::uint32_t op = 0;
  double t0 = 0.0, t1 = 0.0;
};
enum SpanName : std::uint32_t {
  kSpanCall,    ///< one blocking call (root span)
  kSpanTune,    ///< Tuner::<op>
  kSpanCompile, ///< nbc::compile_<op>
  kSpanDrain,   ///< nbc::drain
  kSpanRound,   ///< one persistent round (root span)
  kSpanStart,   ///< nbc::start
  kSpanWait,    ///< nbc::wait of one request
  kSpanNames
};
const char* span_name(std::uint32_t n);

/// Writes spans as CSV (rank,name,parent,round,op,t0_us,t1_us) under
/// .bench_build/ in the working directory; best effort.
void write_spans(const std::string& workload,
                 const std::vector<std::vector<SpanRec>>& per_rank);

/// Self time of every span: its duration minus what its children cover.
std::vector<double> self_times(const std::vector<SpanRec>& spans);

// ----- workloads -----

Result run_native(const Args& a);

/// Two timing-only simulator sweeps of the paper's presets plus a
/// data-moving check pass (sim.cpp): adds the sim.* and model.pred_err.*
/// metrics and the checked calls to `res`.
void probe_sim(const Args& a, Result& res);

/// Every per-layer metric name with its unit, in output order; a traced run
/// reports each one (0 where the layer is not on the workload's path).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

} // namespace pb
