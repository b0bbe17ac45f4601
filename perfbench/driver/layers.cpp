// Payloads, the decomposed blocking call, layer probes and span helpers.
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "cma/endpoint.h"
#include "cma/step_probe.h"
#include "coll/allgather.h"
#include "coll/alltoall.h"
#include "coll/bcast.h"
#include "coll/gather.h"
#include "coll/reduce.h"
#include "coll/scatter.h"
#include "coll/tuner.h"
#include "nbc/compile.h"
#include "nbc/schedule.h"

namespace pb {
namespace {

using kacc::AlignedBuffer;
using kacc::obs::Counter;

constexpr std::size_t kAlign = 2u << 20; // one split page-table lock domain
constexpr int kRoot = 0;

AlignedBuffer alloc(bool wanted, std::size_t bytes, bool timing_only) {
  if (!wanted) {
    return {};
  }
  return AlignedBuffer(bytes, timing_only ? 4096 : kAlign, !timing_only);
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed of the block that rank `src` contributes as block `blk` of `op`.
std::uint64_t block_key(std::uint64_t seed, std::uint64_t round, int op,
                        int src, int blk) {
  return mix(mix(seed) ^ mix(round * 0x100000001B3ULL + 1) ^
             (static_cast<std::uint64_t>(op) << 48) ^
             (static_cast<std::uint64_t>(src) << 24) ^
             static_cast<std::uint64_t>(blk));
}

constexpr std::uint64_t kStride = 0x9E3779B97F4A7C15ULL;

void fill_words(std::byte* dst, std::size_t bytes, std::uint64_t key) {
  auto* w = reinterpret_cast<std::uint64_t*>(dst);
  for (std::size_t i = 0; i < bytes / 8; ++i) {
    w[i] = key + i * kStride;
  }
}

bool check_words(const std::byte* src, std::size_t bytes, std::uint64_t key) {
  const auto* w = reinterpret_cast<const std::uint64_t*>(src);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < bytes / 8; ++i) {
    bad |= w[i] ^ (key + i * kStride);
  }
  return bad == 0;
}

/// Integer-valued operand so sums over ranks are exact in any order.
double operand(std::uint64_t key, std::size_t i) {
  return static_cast<double>(((key + i * kStride) >> 40) & 0xFFFFFu);
}

} // namespace

Payload::Payload(int rank_, int p_, std::size_t block_, bool timing_only,
                 unsigned op_mask)
    : rank(rank_), p(p_), block(block_), count(block_ / sizeof(double)) {
  const auto up = static_cast<std::size_t>(p);
  const bool root = rank == kRoot;
  const auto has = [&](int op) { return (op_mask >> op) & 1u; };
  bcast = alloc(has(kBcast), block, timing_only);
  scatter_send = alloc(has(kScatter) && root, block * up, timing_only);
  scatter_recv = alloc(has(kScatter), block, timing_only);
  gather_send = alloc(has(kGather), block, timing_only);
  gather_recv = alloc(has(kGather) && root, block * up, timing_only);
  allgather_send = alloc(has(kAllgather), block, timing_only);
  allgather_recv = alloc(has(kAllgather), block * up, timing_only);
  alltoall_send = alloc(has(kAlltoall), block * up, timing_only);
  alltoall_recv = alloc(has(kAlltoall), block * up, timing_only);
  allreduce_send = alloc(has(kAllreduce), block, timing_only);
  allreduce_recv = alloc(has(kAllreduce), block, timing_only);
}

void Payload::fill(std::uint64_t seed, std::uint64_t round) {
  if (rank == kRoot) {
    fill_words(bcast.data(), block, block_key(seed, round, kBcast, kRoot, 0));
    for (int b = 0; b < p; ++b) {
      fill_words(scatter_send.data() + static_cast<std::size_t>(b) * block,
                 block, block_key(seed, round, kScatter, kRoot, b));
    }
  }
  fill_words(gather_send.data(), block,
             block_key(seed, round, kGather, rank, 0));
  fill_words(allgather_send.data(), block,
             block_key(seed, round, kAllgather, rank, 0));
  for (int b = 0; b < p; ++b) {
    fill_words(alltoall_send.data() + static_cast<std::size_t>(b) * block,
               block, block_key(seed, round, kAlltoall, rank, b));
  }
  auto* d = reinterpret_cast<double*>(allreduce_send.data());
  const std::uint64_t key = block_key(seed, round, kAllreduce, rank, 0);
  for (std::size_t i = 0; i < count; ++i) {
    d[i] = operand(key, i);
  }
}

unsigned Payload::verify(std::uint64_t seed, std::uint64_t round) const {
  unsigned bad = 0;
  const auto at = [&](const AlignedBuffer& b, int i) {
    return b.data() + static_cast<std::size_t>(i) * block;
  };
  if (!check_words(bcast.data(), block,
                   block_key(seed, round, kBcast, kRoot, 0))) {
    bad |= 1u << kBcast;
  }
  if (!check_words(scatter_recv.data(), block,
                   block_key(seed, round, kScatter, kRoot, rank))) {
    bad |= 1u << kScatter;
  }
  for (int src = 0; src < p; ++src) {
    if (rank == kRoot &&
        !check_words(at(gather_recv, src), block,
                     block_key(seed, round, kGather, src, 0))) {
      bad |= 1u << kGather;
    }
    if (!check_words(at(allgather_recv, src), block,
                     block_key(seed, round, kAllgather, src, 0))) {
      bad |= 1u << kAllgather;
    }
    if (!check_words(at(alltoall_recv, src), block,
                     block_key(seed, round, kAlltoall, src, rank))) {
      bad |= 1u << kAlltoall;
    }
  }
  std::vector<std::uint64_t> keys;
  for (int src = 0; src < p; ++src) {
    keys.push_back(block_key(seed, round, kAllreduce, src, 0));
  }
  const auto* d = reinterpret_cast<const double*>(allreduce_recv.data());
  for (std::size_t i = 0; i < count; ++i) {
    double want = 0.0;
    for (std::uint64_t k : keys) {
      want += operand(k, i);
    }
    if (d[i] != want) {
      bad |= 1u << kAllreduce;
      break;
    }
  }
  return bad;
}

std::uint64_t payload_digest(std::uint64_t seed) {
  Payload pl(0, 3, 4096);
  pl.fill(seed, 0);
  std::uint64_t h = 0;
  for (const AlignedBuffer* b :
       {&pl.bcast, &pl.scatter_send, &pl.gather_send, &pl.allgather_send,
        &pl.alltoall_send, &pl.allreduce_send}) {
    const auto* w = reinterpret_cast<const std::uint64_t*>(b->data());
    for (std::size_t i = 0; i < b->size() / 8; ++i) {
      h = mix(h ^ w[i]);
    }
  }
  return h;
}

void run_op(kacc::Comm& comm, Payload& pl, int op) {
  namespace coll = kacc::coll;
  const bool root = comm.rank() == kRoot;
  switch (op) {
    case kBcast:
      coll::bcast(comm, pl.bcast.data(), pl.block, kRoot);
      break;
    case kScatter:
      coll::scatter(comm, root ? pl.scatter_send.data() : nullptr,
                    pl.scatter_recv.data(), pl.block, kRoot);
      break;
    case kGather:
      coll::gather(comm, pl.gather_send.data(),
                   root ? pl.gather_recv.data() : nullptr, pl.block, kRoot);
      break;
    case kAllgather:
      coll::allgather(comm, pl.allgather_send.data(),
                      pl.allgather_recv.data(), pl.block);
      break;
    case kAlltoall:
      coll::alltoall(comm, pl.alltoall_send.data(), pl.alltoall_recv.data(),
                     pl.block);
      break;
    case kAllreduce:
      coll::allreduce(comm,
                      reinterpret_cast<const double*>(pl.allreduce_send.data()),
                      reinterpret_cast<double*>(pl.allreduce_recv.data()),
                      pl.count, coll::ReduceOp::kSum);
      break;
  }
}

Decomposed run_op_decomposed(kacc::Comm& comm, Payload& pl, int op) {
  namespace coll = kacc::coll;
  namespace nbc = kacc::nbc;
  namespace obs = kacc::obs;
  const bool root = comm.rank() == kRoot;
  const int p = comm.size();
  const auto bytes = static_cast<std::int64_t>(pl.block);
  const coll::CollOptions opts{};
  coll::CollOptions eff = opts;
  Decomposed d;
  d.t0 = now_us();
  coll::validate_options(opts);
  // Each case mirrors its launcher in src/coll: tune, count, span, scope,
  // compile, drain, then the schedule, scope and span end in that order.
  const auto run = [&](obs::SpanName name, int span_root, const char* tag,
                       auto compile) {
    comm.recorder().counters.add(Counter::kCollLaunches);
    obs::Span span(comm.recorder(), name, bytes, span_root, tag);
    obs::CollScope scope(comm.recorder(), bytes, span_root, tag);
    d.compile0 = now_us();
    const std::unique_ptr<nbc::Schedule> sched = compile();
    d.drain0 = now_us();
    nbc::drain(comm, *sched);
    d.drain1 = now_us();
    d.steps = sched->steps.size();
  };
  const coll::Tuner tuner;
  switch (op) {
    case kBcast: {
      d.tune0 = now_us();
      const coll::Tuner::Choice c = tuner.bcast(comm.arch(), p, pl.block);
      d.tune1 = now_us();
      eff.throttle = c.throttle;
      run(obs::SpanName::kBcast, kRoot, coll::to_string(c.bcast).c_str(), [&] {
        return nbc::compile_bcast(comm, pl.bcast.data(), pl.block, kRoot,
                                  c.bcast, eff, {});
      });
      break;
    }
    case kScatter: {
      d.tune0 = now_us();
      const coll::Tuner::Choice c = tuner.scatter(comm.arch(), p, pl.block);
      d.tune1 = now_us();
      eff.throttle = c.throttle;
      run(obs::SpanName::kScatter, kRoot, coll::to_string(c.scatter).c_str(),
          [&] {
            return nbc::compile_scatter(
                comm, root ? pl.scatter_send.data() : nullptr,
                pl.scatter_recv.data(), pl.block, kRoot, c.scatter, eff, {});
          });
      break;
    }
    case kGather: {
      d.tune0 = now_us();
      const coll::Tuner::Choice c = tuner.gather(comm.arch(), p, pl.block);
      d.tune1 = now_us();
      eff.throttle = c.throttle;
      run(obs::SpanName::kGather, kRoot, coll::to_string(c.gather).c_str(),
          [&] {
            return nbc::compile_gather(
                comm, pl.gather_send.data(),
                root ? pl.gather_recv.data() : nullptr, pl.block, kRoot,
                c.gather, eff, {});
          });
      break;
    }
    case kAllgather: {
      d.tune0 = now_us();
      const coll::Tuner::Choice c = tuner.allgather(comm.arch(), p, pl.block);
      d.tune1 = now_us();
      if (eff.ring_stride <= 0) {
        eff.ring_stride = c.ring_stride;
      }
      if (c.allgather == coll::AllgatherAlgo::kRingNeighbor) {
        coll::validate_ring_stride(p, eff.ring_stride);
      }
      run(obs::SpanName::kAllgather, -1, coll::to_string(c.allgather).c_str(),
          [&] {
            return nbc::compile_allgather(comm, pl.allgather_send.data(),
                                          pl.allgather_recv.data(), pl.block,
                                          c.allgather, eff, {});
          });
      break;
    }
    case kAlltoall: {
      d.tune0 = now_us();
      const coll::Tuner::Choice c = tuner.alltoall(comm.arch(), p, pl.block);
      d.tune1 = now_us();
      run(obs::SpanName::kAlltoall, -1, coll::to_string(c.alltoall).c_str(),
          [&] {
            return nbc::compile_alltoall(comm, pl.alltoall_send.data(),
                                         pl.alltoall_recv.data(), pl.block,
                                         c.alltoall, opts, {});
          });
      break;
    }
    case kAllreduce: {
      d.tune0 = now_us();
      const coll::Tuner::Choice c = tuner.allreduce(comm.arch(), p, pl.block);
      d.tune1 = now_us();
      run(obs::SpanName::kAllreduce, -1, coll::to_string(c.allreduce).c_str(),
          [&] {
            return nbc::compile_allreduce(
                comm, reinterpret_cast<const double*>(pl.allreduce_send.data()),
                reinterpret_cast<double*>(pl.allreduce_recv.data()), pl.count,
                coll::ReduceOp::kSum, c.allreduce, opts, {});
          });
      break;
    }
  }
  d.t1 = now_us();
  return d;
}

double tuner_predicted_us(const kacc::ArchSpec& spec, int p, int op,
                          std::size_t block) {
  const kacc::coll::Tuner t;
  switch (op) {
    case kBcast: return t.bcast(spec, p, block).predicted_us;
    case kScatter: return t.scatter(spec, p, block).predicted_us;
    case kGather: return t.gather(spec, p, block).predicted_us;
    case kAllgather: return t.allgather(spec, p, block).predicted_us;
    case kAlltoall: return t.alltoall(spec, p, block).predicted_us;
    default: return t.allreduce(spec, p, block).predicted_us;
  }
}

CounterDelta counter_values(kacc::Comm& comm) {
  const kacc::obs::CounterRegistry& c = comm.recorder().counters;
  const auto v = [&](Counter k) { return static_cast<double>(c.value(k)); };
  CounterDelta d;
  d.cma_ops = v(Counter::kCmaReadOps) + v(Counter::kCmaWriteOps);
  d.cma_bytes = v(Counter::kCmaReadBytes) + v(Counter::kCmaWriteBytes);
  d.slow_waits = v(Counter::kSpinSlowWaits);
  d.backoff_sleeps = v(Counter::kBackoffSleeps);
  d.steps_issued = v(Counter::kNbcStepsIssued);
  d.steps_deferred = v(Counter::kNbcStepsDeferred);
  d.admission_stalls = v(Counter::kNbcAdmissionStalls);
  return d;
}

CounterDelta operator-(const CounterDelta& a, const CounterDelta& b) {
  return {a.cma_ops - b.cma_ops,
          a.cma_bytes - b.cma_bytes,
          a.slow_waits - b.slow_waits,
          a.backoff_sleeps - b.backoff_sleeps,
          a.steps_issued - b.steps_issued,
          a.steps_deferred - b.steps_deferred,
          a.admission_stalls - b.admission_stalls};
}

RuntimeProbe probe_runtime(kacc::Comm& comm, int reps) {
  const int rank = comm.rank();
  const auto up = static_cast<std::size_t>(comm.size());
  std::vector<double> barrier, bcast, allgather, rtt, read;
  char msg[64] = {};
  std::vector<char> all(64 * up);
  for (int i = 0; i < reps; ++i) {
    double t = now_us();
    comm.barrier();
    barrier.push_back(now_us() - t);
    t = now_us();
    comm.ctrl_bcast(msg, sizeof(msg), 0);
    bcast.push_back(now_us() - t);
    comm.barrier();
    t = now_us();
    comm.ctrl_allgather(msg, all.data(), sizeof(msg));
    allgather.push_back(now_us() - t);
    comm.barrier();
    if (rank == 0) {
      t = now_us();
      comm.signal(1);
      comm.wait_signal(1);
      rtt.push_back(now_us() - t);
    } else if (rank == 1) {
      comm.wait_signal(0);
      comm.signal(0);
    }
  }
  constexpr std::size_t kBytes = 256 * 4096;
  AlignedBuffer buf(kBytes, kAlign);
  std::uint64_t addr = comm.expose(buf.data());
  comm.ctrl_bcast(&addr, sizeof(addr), 0);
  comm.barrier();
  if (rank == 1) {
    for (int i = 0; i < reps; ++i) {
      const double t = now_us();
      comm.cma_read(0, addr, buf.data(), kBytes);
      read.push_back(now_us() - t);
    }
  }
  comm.barrier();
  return {median(barrier), median(bcast), median(allgather), median(rtt),
          median(read)};
}

CmaProbe probe_cma(int reps) {
  constexpr std::size_t kPage = 4096;
  kacc::cma::RemoteTarget target(256);
  AlignedBuffer local(256 * kPage, kAlign);
  std::vector<double> one, many;
  for (int i = 0; i < reps; ++i) {
    double t = now_us();
    kacc::cma::read_from(target.pid(), target.remote_addr(), local.data(),
                         kPage);
    one.push_back(now_us() - t);
    t = now_us();
    kacc::cma::read_from(target.pid(), target.remote_addr(), local.data(),
                         256 * kPage);
    many.push_back(now_us() - t);
  }
  return {median(one), median(many)};
}

const char* span_name(std::uint32_t n) {
  static const char* kNames[kSpanNames] = {
      "call", "tune", "compile", "drain", "round", "start", "wait"};
  return n < kSpanNames ? kNames[n] : "?";
}

std::vector<double> self_times(const std::vector<SpanRec>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].t1 - spans[i].t0;
  }
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
    }
  }
  return self;
}

void write_spans(const std::string& workload,
                 const std::vector<std::vector<SpanRec>>& per_rank) {
  ::mkdir(".bench_build", 0755);
  std::ofstream out(".bench_build/spans-" + workload + ".csv");
  if (!out) {
    return;
  }
  out << "rank,name,parent,round,op,t0_us,t1_us\n";
  char line[160];
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    for (const SpanRec& s : per_rank[r]) {
      std::snprintf(line, sizeof(line), "%zu,%s,%d,%u,%s,%.3f,%.3f\n", r,
                    span_name(s.name), s.parent, s.round, op_name(s.op % kOps),
                    s.t0, s.t1);
      out << line;
    }
  }
}

} // namespace pb
