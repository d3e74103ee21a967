// The two KV serving workloads on the sharded runtime.
//
//  * kv_open: open-loop Zipf-0.99 traffic on a flat 8-node x 4-worker
//    machine, hash-partitioned, at a fixed offered load below the knee.
//    Independent users, so the loop is open; arrivals are simulated, so
//    the generator is never late. About 2.5 engine rounds and exactly one
//    PGAS access per request: the engine-bound workload. The load is 5e5
//    req/s: at 1e6 the worker owning the hottest key runs near saturation
//    and the pooled p999 swings by ~30% with the seed.
//  * kv_repart: closed-loop, phase-rotating, origin-affine traffic (3
//    waiting clients per node) in block mode, with the reactive
//    repartitioner on the {4,2} tree. Block migrations and stale-owner
//    forwards run beside reads, and epoch pauses cut the engine into
//    run_until segments.
//
// Configurations follow bench_serve's knee sweep and bench_repart's phase
// rotation scenario; the request budgets are sized so p999 always has at
// least ten samples beyond it.
#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "bench.h"
#include "percentile.h"
#include "repart/repart.h"
#include "serve/kvstore.h"
#include "serve/latency.h"
#include "serve/loadgen.h"

namespace perfbench {
namespace {

using namespace ecoscale;

constexpr std::size_t kNodes = 8;
constexpr std::size_t kWorkersPerNode = 4;
// kv_open: 8 x 2000 = 16000 requests (16 beyond p999).
constexpr std::size_t kOpenRequestsPerNode = 2000;
constexpr double kOpenOfferedLoad = 5e5;
// kv_repart: 8 nodes x 3 clients x 500 = 12000 requests (12 beyond p999).
constexpr std::size_t kRepartClientsPerNode = 3;
constexpr std::size_t kRepartRequestsPerClient = 500;
constexpr std::size_t kRepartBlocks = 64;
// Instances pooled into the simulated-time metrics of one run.
constexpr std::size_t kReferenceInstances = 16;

/// Owned in construction order, so members destroy in reverse.
struct KvInstance {
  std::unique_ptr<ShardedRuntime> rt;
  std::unique_ptr<serve::KvStore> kv;
  std::unique_ptr<repart::Repartitioner> rp;
  std::unique_ptr<serve::LoadGen> gen;
};

/// Every sample of `s`, ascending, read back through its order statistics
/// (Samples exposes percentiles only; percentile(100 k / (n-1)) is the k-th
/// smallest value).
std::vector<double> sorted_values(const Samples& s) {
  const std::size_t n = s.count();
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(n == 1 ? s.percentile(0.0)
                         : s.percentile(100.0 * static_cast<double>(k) /
                                        static_cast<double>(n - 1)));
  }
  return out;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Simulated-time results summed over the reference instances. Counts
/// (sheds, retries, moves, ...) are totals over all instances.
struct Pooled {
  std::vector<SimDuration> latency;  // answered requests, picoseconds
  std::vector<double> queue_wait_ns;
  std::uint64_t issued = 0, completed = 0;
  SimTime span = 0;  // summed per-instance completion spans
  std::uint64_t windows = 0, stalled = 0;
  std::uint64_t tasks = 0, shed_tasks = 0, forwarded = 0;
  std::uint64_t remote_issues = 0, forwards = 0;
  std::uint64_t epochs = 0, moves = 0, move_byte_hops = 0;
  MachineCounters machines;

  void to_values(Values& v) {
    const double ops = static_cast<double>(issued);
    v["sim_goodput_ops"] = serve::goodput_per_sec(completed, span);
    std::sort(latency.begin(), latency.end());
    const TailReport tail = tail_report(
        latency.size(), [&](double p) { return nearest_rank(latency, p); });
    if (tail.p50.reported) v["sim_p50_us"] = tail.p50.value / 1e6;
    if (tail.p99.reported) v["sim_p99_us"] = tail.p99.value / 1e6;
    if (tail.p999.reported) v["sim_p999_us"] = tail.p999.value / 1e6;
    v["serve.latency_samples"] = static_cast<double>(tail.count);
    v["fail_frac"] = ratio(static_cast<double>(issued - completed), ops);

    v["sim.stall_frac"] = ratio(static_cast<double>(stalled),
                                static_cast<double>(windows * kNodes));
    std::sort(queue_wait_ns.begin(), queue_wait_ns.end());
    const TailReport wait =
        tail_report(queue_wait_ns.size(),
                    [&](double p) { return nearest_rank(queue_wait_ns, p); });
    if (wait.p99.reported) v["runtime.queue_wait_p99_us"] = wait.p99.value / 1e3;
    v["runtime.tasks_per_op"] = ratio(static_cast<double>(tasks), ops);
    v["runtime.shed_tasks"] = static_cast<double>(shed_tasks);
    v["runtime.forwarded_tasks"] = static_cast<double>(forwarded);
    machines.to_values(issued, v);
    v["serve.remote_issue_frac"] =
        ratio(static_cast<double>(remote_issues), ops);
    v["serve.forwards_per_op"] = ratio(static_cast<double>(forwards), ops);
    v["repart.epochs_per_op"] = ratio(static_cast<double>(epochs), ops);
    v["repart.moves"] = static_cast<double>(moves);
    v["repart.move_byte_hops"] = static_cast<double>(move_byte_hops);
  }
};

class KvWorkload final : public Workload {
 public:
  KvWorkload(bool repart, std::uint64_t seed) : repart_(repart), seed_(seed) {}

  /// Runs kReferenceInstances independent instances (instance 0 is the
  /// timed passes' traffic) and pools their simulated-time results: one
  /// 16k-request instance holds one or two burst episodes in its tail, so
  /// a single instance's p999 would swing with the seed.
  PassResult reference(HostSpans& spans, Values& values,
                       std::vector<std::string>& errors) override {
    PassResult total;
    Pooled pooled;
    for (std::size_t i = 0; i < kReferenceInstances; ++i) {
      PassResult out;
      KvInstance inst;
      const std::vector<ServeSpan> requests = record_serve_spans(
          [&] {
            inst = build(1, instance_seed(i), spans, out);
            execute(inst, spans, out);
          },
          errors);
      check_and_pool(inst, requests, pooled, errors);
      if (i == 0) total.fingerprint = out.fingerprint;
      total.ops += out.ops;
      total.failed += out.failed;
      total.events += out.events;
      total.rounds += out.rounds;
    }
    pooled.to_values(values);
    return total;
  }

  PassResult pass(std::size_t threads, HostSpans& spans) override {
    PassResult out;
    KvInstance inst = build(threads, instance_seed(0), spans, out);
    execute(inst, spans, out);
    return out;
  }

 private:
  std::size_t budget() const {
    return repart_ ? kNodes * kRepartClientsPerNode * kRepartRequestsPerClient
                   : kNodes * kOpenRequestsPerNode;
  }

  /// Instance 0 runs on the workload seed itself; the others on seeds
  /// derived from it.
  std::uint64_t instance_seed(std::size_t i) const {
    return i == 0 ? seed_ : splitmix64(seed_ * kReferenceInstances + i);
  }

  KvInstance build(std::size_t threads, std::uint64_t seed, HostSpans& spans,
                   PassResult& out) const {
    KvInstance inst;
    SpanScope setup(spans, "setup");
    {
      SpanScope span(spans, "setup.runtime");
      ShardedRuntimeConfig rc;
      rc.nodes = kNodes;
      rc.workers_per_node = kWorkersPerNode;
      rc.threads = threads;
      rc.runtime.placement = PlacementPolicy::kAlwaysSoftware;
      rc.runtime.distribution = DistributionPolicy::kHomeOnly;
      if (repart_) {
        rc.internode_radices = {4, 2};
        rc.runtime.repartition_epoch = microseconds(30);
        rc.runtime.repartition_max_moves = 64;
        rc.runtime.repartition_imbalance = 0.5;
        rc.runtime.repartition_alpha = 0.7;
        rc.runtime.repartition_cooldown = 2;
        rc.runtime.repartition_min_gain = 128;
      } else {
        rc.runtime.admission_limit = 64;
      }
      inst.rt = std::make_unique<ShardedRuntime>(rc);
    }
    {
      SpanScope span(spans, "setup.store");
      serve::KvConfig kc;
      serve::LoadGenConfig lg;
      lg.seed = seed;
      if (repart_) {
        kc.key_space = 1ull << 13;
        kc.value_bytes = 256;
        kc.service_items = 600;
        kc.repart_blocks = kRepartBlocks;
        lg.mode = serve::LoadGenConfig::Mode::kClosedLoop;
        lg.clients_per_node = kRepartClientsPerNode;
        lg.requests_per_client = kRepartRequestsPerClient;
        lg.zipf_skew = 0.9;
        lg.origin_affinity = 0.9;
        lg.phase_period = microseconds(400);
      } else {
        kc.key_space = 1ull << 14;
        kc.value_bytes = 64;
        kc.service_items = 2000;
        lg.mode = serve::LoadGenConfig::Mode::kOpenLoop;
        lg.offered_load = kOpenOfferedLoad;
        lg.requests_per_node = kOpenRequestsPerNode;
        lg.zipf_skew = 0.99;
      }
      inst.kv = std::make_unique<serve::KvStore>(*inst.rt, kc);
      if (repart_) {
        inst.rp = std::make_unique<repart::Repartitioner>(
            *inst.rt, kRepartBlocks, inst.kv->initial_block_owners());
        inst.kv->attach_repartitioner(inst.rp.get());
        inst.rp->install();
      }
      inst.gen = std::make_unique<serve::LoadGen>(*inst.rt, *inst.kv, lg);
    }
    out.setup = setup.close();
    return inst;
  }

  void execute(KvInstance& inst, HostSpans& spans, PassResult& out) const {
    {
      SpanScope arm(spans, "arm");
      inst.gen->start();
      out.run += arm.close();
    }
    {
      SpanScope run(spans, "run");
      inst.rt->run();
      out.run += run.close();
    }
    SpanScope fold(spans, "fold");
    const serve::LoadGen::Report report = inst.gen->report();
    const ShardedRuntime::Stats st = inst.rt->stats();
    out.ops = report.issued;
    out.failed = report.issued - report.completed;
    out.fingerprint = fnv_word(
        report.fingerprint,
        inst.rp != nullptr ? inst.rp->stats().plan_fingerprint : 0);
    out.events = st.events;
    out.rounds = st.windows;
    out.shard_busy_ns = inst.rt->engine().shard_wall_time_ns();
    out.mailbox_spills = st.mailbox_spills;
    out.steals = st.steals;
  }

  /// The output checks of one reference instance; pools its simulated
  /// results.
  void check_and_pool(KvInstance& inst, const std::vector<ServeSpan>& requests,
                      Pooled& pooled, std::vector<std::string>& errors) const {
    const serve::LoadGen::Report report = inst.gen->report();
    const ShardedRuntime::Stats st = inst.rt->stats();

    if (report.issued != budget()) {
      errors.push_back("issued " + std::to_string(report.issued) +
                       " of a budget of " + std::to_string(budget()));
    }
    if (report.issued != report.completed + report.shed) {
      errors.push_back("issued != completed + shed");
    }
    std::vector<const serve::KvApplyRecord*> records;
    for (std::size_t n = 0; n < kNodes; ++n) {
      for (const serve::KvApplyRecord& r : inst.kv->apply_log(n)) {
        records.push_back(&r);
      }
    }
    if (records.size() != report.completed) {
      errors.push_back("apply records " + std::to_string(records.size()) +
                       " != completed " + std::to_string(report.completed));
    }
    replay(records, errors);

    // Exact latencies of the answered requests (lane tid 0; sheds are 1),
    // each percentile cross-checked against LoadGen's own histogram.
    std::vector<SimDuration> latency;
    for (const ServeSpan& r : requests) {
      if (r.tid == 0) latency.push_back(r.dur);
    }
    std::sort(latency.begin(), latency.end());
    if (latency.size() != report.completed) {
      errors.push_back("traced request spans " +
                       std::to_string(latency.size()) + " != completed " +
                       std::to_string(report.completed));
    } else if (!latency.empty()) {
      for (const double p : {50.0, 99.0, 99.9}) {
        if (LatencyHistogram::index_of(nearest_rank(latency, p)) !=
            LatencyHistogram::index_of(report.latency.percentile(p))) {
          errors.push_back("traced latency percentile disagrees with the "
                           "LoadGen histogram");
        }
      }
    }
    pooled.latency.insert(pooled.latency.end(), latency.begin(), latency.end());

    pooled.issued += report.issued;
    pooled.completed += report.completed;
    pooled.span += report.last_completion;
    pooled.windows += st.windows;
    pooled.stalled += st.stalled_shard_windows;
    pooled.tasks += st.tasks;
    pooled.shed_tasks += st.shed_tasks;
    for (std::size_t n = 0; n < kNodes; ++n) {
      const RuntimeStats rs = inst.rt->runtime(n).stats();
      pooled.forwarded += rs.forwarded_tasks;
      const std::vector<double> node = sorted_values(rs.queue_wait_ns);
      pooled.queue_wait_ns.insert(pooled.queue_wait_ns.end(), node.begin(),
                                  node.end());
      pooled.machines.add(inst.rt->machine(n));
    }
    const serve::KvStore::CrossStats cross = inst.kv->cross_stats();
    pooled.remote_issues += cross.remote_issues;
    pooled.forwards += cross.forwards;
    // Inter-node traffic rides the sharded runtime, not the per-node
    // machines' networks: forwarded posts and the store's value byte-hops.
    pooled.machines.byte_hops += cross.byte_hops;
    pooled.machines.packets += st.cross_posts;
    if (inst.rp != nullptr) {
      const repart::Repartitioner::Stats& plan = inst.rp->stats();
      pooled.epochs += plan.epochs;
      pooled.moves += plan.moves;
      pooled.move_byte_hops += plan.move_byte_hops;
    }
  }

  /// Per-key replay of every node's apply log against a reference map, in
  /// apply-time order across nodes (a migrated key's history spans its old
  /// and new owner): every GET must return, and every DELETE must find,
  /// what the last SET/DELETE left.
  static void replay(std::vector<const serve::KvApplyRecord*>& records,
                     std::vector<std::string>& errors) {
    std::stable_sort(records.begin(), records.end(),
                     [](const serve::KvApplyRecord* a,
                        const serve::KvApplyRecord* b) {
                       if (a->key != b->key) return a->key < b->key;
                       return a->at < b->at;
                     });
    std::uint64_t mismatches = 0;
    std::uint64_t first_bad_key = 0;
    bool present = false;
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const serve::KvApplyRecord& r = *records[i];
      if (i == 0 || records[i - 1]->key != r.key) {
        present = false;
        value = 0;
      }
      bool ok = true;
      switch (r.op) {
        case serve::KvOp::kGet:
          ok = r.found == present && r.returned == (present ? value : 0);
          break;
        case serve::KvOp::kSet:
          present = true;
          value = r.value;
          break;
        case serve::KvOp::kDelete:
          ok = r.found == present;
          present = false;
          value = 0;
          break;
      }
      if (!ok && mismatches++ == 0) first_bad_key = r.key;
    }
    if (mismatches > 0) {
      std::ostringstream os;
      os << "apply-log replay: " << mismatches
         << " records disagree with the reference map (first key "
         << first_bad_key << ")";
      errors.push_back(os.str());
    }
  }

  bool repart_;
  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_kv_open(std::uint64_t seed) {
  return std::make_unique<KvWorkload>(false, seed);
}
std::unique_ptr<Workload> make_kv_repart(std::uint64_t seed) {
  return std::make_unique<KvWorkload>(true, seed);
}

}  // namespace perfbench
