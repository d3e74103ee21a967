// Shared types of the benchmark driver: host-time spans recorded around
// every library call, the per-pass measurement record, and the interface
// the three workloads implement. The driver (main.cc) owns the timing
// loop; a workload only knows how to build, run and check itself.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"

namespace ecoscale {
class Machine;
}

namespace perfbench {

/// Metric values by name. Units and directions live in BENCHMARK.json;
/// run.py attaches them and checks that every listed metric is present.
using Values = std::map<std::string, double>;

inline std::uint64_t host_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed by the calling thread.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// A host-time interval on two clocks: wall time, and the calling thread's
/// CPU time, which leaves out the time the host gave its core to other work.
struct HostTime {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;

  HostTime& operator+=(const HostTime& o) {
    wall_ns += o.wall_ns;
    cpu_ns += o.cpu_ns;
    return *this;
  }
};

/// Benchmark-side host spans: one per call into a library layer, kept in
/// memory and written out at exit (traced run). Spans nest; a span's self
/// time is its duration minus its children's. Each span belongs to the
/// pass (one execution of the workload at one thread count) open when it
/// started.
class HostSpans {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t cpu_start_ns = 0;
    std::uint64_t cpu_ns = 0;  // thread CPU time, set at close
    int parent = -1;  // index into spans(), -1 for a pass's top level
    std::size_t pass = 0;
  };
  struct Pass {
    std::size_t threads = 1;
    bool traced = false;
    bool timed = false;  // false for the untimed reference pass
  };

  void begin_pass(std::size_t threads, bool traced, bool timed) {
    passes_.push_back(Pass{threads, traced, timed});
    open_.clear();
  }
  std::size_t open(const char* name) {
    const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    spans_.push_back(Span{name, host_now_ns(), 0, thread_cpu_ns(), 0, parent,
                          passes_.size() - 1});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  /// Closes the innermost open span (which must be `id`); returns its
  /// duration.
  HostTime close(std::size_t id);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Pass>& passes() const { return passes_; }

  /// Median over the timed, untraced passes at `threads` (0: any) of the
  /// summed self time (seconds) of the spans called `name` in that pass; 0
  /// when no such pass has one.
  double median_self_s(const std::string& name, std::size_t threads) const;

 private:
  std::vector<Span> spans_;
  std::vector<Pass> passes_;
  std::vector<std::size_t> open_;
};

/// RAII span: closes on scope exit unless closed explicitly (to read the
/// duration).
class SpanScope {
 public:
  SpanScope(HostSpans& spans, const char* name)
      : spans_(spans), id_(spans.open(name)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (!closed_) spans_.close(id_);
  }
  HostTime close() {
    closed_ = true;
    return spans_.close(id_);
  }

 private:
  HostSpans& spans_;
  std::size_t id_;
  bool closed_ = false;
};

/// What one pass measured. The simulator-side counters are only filled by
/// workloads that run on the sharded engine.
struct PassResult {
  std::uint64_t ops = 0;          // simulated ops the pass executed
  std::uint64_t failed = 0;       // shed or failed ops
  std::uint64_t fingerprint = 0;  // must match across thread counts
  HostTime setup;                 // constructing the inputs and system
  HostTime run;                   // arming plus running: the timed part
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t shard_busy_ns = 0;
  std::uint64_t mailbox_spills = 0;
  std::uint64_t steals = 0;
  HostTime calibration;  // set by the driver around the pass
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The untimed reference run at one simulation thread: fills caches and
  /// lazy set-up, runs the full output checks (appending a message per
  /// failure to `errors`) and records every simulated-time metric — they
  /// are deterministic for the seed. It may pool several instances; the
  /// result sums their counts and carries the fingerprint of the instance
  /// the timed passes replay.
  virtual PassResult reference(HostSpans& spans, Values& values,
                               std::vector<std::string>& errors) = 0;
  /// One timed pass at `threads` host threads on the same inputs.
  virtual PassResult pass(std::size_t threads, HostSpans& spans) = 0;
};

/// Unimem / memory / interconnect counters summed over machines (their
/// PGAS systems, worker caches and networks) and over instances.
struct MachineCounters {
  std::uint64_t local = 0, remote = 0, retries = 0, failovers = 0;
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t byte_hops = 0, packets = 0;
  std::size_t peak_live_intervals = 0;

  void add(ecoscale::Machine& m);
  /// The layer metrics, normalised by `ops` where they are rates.
  void to_values(std::uint64_t ops, Values& values) const;
};

/// A serve-category complete span in simulated time (picoseconds).
struct ServeSpan {
  ecoscale::SimTime start = 0;
  ecoscale::SimDuration dur = 0;
  std::uint16_t tid = 0;
};
/// Runs `body` with obs tracing on for the serve category only and returns
/// the complete spans recorded on this thread: LoadGen's per-request spans
/// and GraphEngine's per-iteration spans carry exact simulated times, where
/// LoadGen's latency histogram keeps ~3% buckets. For the untimed
/// reference pass only; a dropped event is reported in `errors`.
std::vector<ServeSpan> record_serve_spans(const std::function<void()>& body,
                                          std::vector<std::string>& errors);

std::unique_ptr<Workload> make_kv_open(std::uint64_t seed);
std::unique_ptr<Workload> make_kv_repart(std::uint64_t seed);
std::unique_ptr<Workload> make_graph_pgas(std::uint64_t seed);

/// num / den, or 0 when den is 0 (a layer the workload does not use).
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// 64-bit FNV-1a step over the eight bytes of `v`.
inline std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

}  // namespace perfbench
