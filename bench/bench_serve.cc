// bench_serve — serving workloads on the sharded runtime (DESIGN.md
// §7.9): a partitioned PGAS key-value store under open-loop Zipfian
// load, plus the graph-analytics suite over the global address space.
//
//  * throughput vs offered load: goodput and p50/p99/p999 across a sweep
//    of offered loads — the saturation knee where queueing takes over,
//  * determinism: the knee point re-run at --sim-threads 1 vs N must
//    produce byte-identical fingerprints (latency histograms + apply
//    logs + shed counts, reduction-tree folded),
//  * admission control at 10x overload: bounded p999 and counted sheds
//    with a queue-depth limit vs unbounded queueing without,
//  * key skew: the same offered load from uniform to strongly Zipfian,
//  * request batching: doorbell amortization (batch_size) against
//    per-task dispatch overhead,
//  * graph suite: BFS / PageRank / CC over a skewed CSR graph in UNIMEM,
//    validated against the functional references every run.
//
// `--offered-load R` pins the sweep to one operating point; `--zipf S`
// overrides the default 0.99 key skew (bench_util.h shared parsing).
// Deterministic columns (hashes, counts, sim-time latencies) are
// committed in bench/baselines/bench_serve.json; latency percentiles are
// gated with x-ceilings there (scripts/update_baselines.py).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/table.h"
#include "serve/graph.h"
#include "serve/kvstore.h"
#include "serve/latency.h"
#include "serve/loadgen.h"

namespace ecoscale {
namespace {

using serve::LoadGen;
using serve::LoadGenConfig;

constexpr std::size_t kNodes = 8;
constexpr std::size_t kWorkersPerNode = 4;
constexpr std::size_t kRequestsPerNode = 600;

struct KvRunConfig {
  double offered_load = 2e6;
  double zipf = 0.99;
  std::size_t admission_limit = 64;
  std::size_t batch_size = 1;
  SimDuration dispatch_overhead = 0;
  std::size_t sim_threads = 1;
  std::size_t requests_per_node = kRequestsPerNode;
};

struct KvRunResult {
  LoadGen::Report report;
  serve::TailSummary tail;
  double goodput = 0.0;
  std::uint64_t byte_hops = 0;
  std::uint64_t shed = 0;
  double hottest_pct = 0.0;  // busiest node's share of applied requests
  /// Payload bytes of requests applied away from their origin node —
  /// traffic that crossed the inter-node interconnect.
  std::uint64_t remote_bytes = 0;
};

KvRunResult run_kv(const KvRunConfig& cfg) {
  ShardedRuntimeConfig rc;
  rc.nodes = kNodes;
  rc.workers_per_node = kWorkersPerNode;
  rc.threads = cfg.sim_threads;
  rc.runtime.placement = PlacementPolicy::kAlwaysSoftware;
  rc.runtime.distribution = DistributionPolicy::kHomeOnly;
  rc.runtime.admission_limit = cfg.admission_limit;
  rc.runtime.batch_size = cfg.batch_size;
  rc.runtime.dispatch_overhead = cfg.dispatch_overhead;
  ShardedRuntime rt(rc);

  serve::KvConfig kv_cfg;
  kv_cfg.key_space = 1ull << 14;
  kv_cfg.value_bytes = 64;
  kv_cfg.service_items = 2000;  // CPU-bound service, ~µs per request
  serve::KvStore kv(rt, kv_cfg);

  LoadGenConfig lg;
  lg.mode = LoadGenConfig::Mode::kOpenLoop;
  lg.offered_load = cfg.offered_load;
  lg.requests_per_node = cfg.requests_per_node;
  lg.zipf_skew = cfg.zipf;
  LoadGen gen(rt, kv, lg);
  gen.start();
  rt.run();

  KvRunResult out;
  out.report = gen.report();
  out.tail = serve::summarize(out.report.latency);
  out.goodput =
      serve::goodput_per_sec(out.report.completed, out.report.last_completion);
  out.shed = out.report.shed;
  std::uint64_t applied = 0;
  std::uint64_t hottest = 0;
  for (std::size_t n = 0; n < rt.node_count(); ++n) {
    out.byte_hops += rt.machine(n).pgas().network().byte_hops();
    const std::uint64_t count = kv.apply_log(n).size();
    applied += count;
    hottest = std::max(hottest, count);
    for (const serve::KvApplyRecord& rec : kv.apply_log(n)) {
      // LoadGen request ids stride by node count: origin = (id-1) % nodes.
      const std::size_t origin =
          static_cast<std::size_t>((rec.request - 1) % rt.node_count());
      if (origin != n) out.remote_bytes += kv_cfg.value_bytes;
    }
  }
  if (applied > 0) {
    out.hottest_pct =
        100.0 * static_cast<double>(hottest) / static_cast<double>(applied);
  }
  ECO_CHECK_MSG(out.report.issued ==
                    out.report.completed + out.report.shed,
                "every issued request must complete or shed");
  return out;
}

std::uint64_t fnv_words(const std::uint64_t* words, std::size_t count) {
  std::uint64_t h = kFnvSeed;
  for (std::size_t i = 0; i < count; ++i) h = fnv_mix(h, words[i]);
  return h;
}

}  // namespace
}  // namespace ecoscale

int main(int argc, char** argv) {
  using namespace ecoscale;
  bench::init(argc, argv);
  bench::print_header(
      "bench_serve",
      "PGAS key-value serving + graph analytics: tail latency, admission "
      "control, deterministic under --sim-threads N");

  const std::size_t sim_threads = bench::sim_threads();
  const double zipf =
      bench::options().zipf >= 0.0 ? bench::options().zipf : 0.99;

  // --- throughput vs offered load (saturation knee) -----------------------
  std::vector<double> loads;
  if (bench::options().offered_load > 0.0) {
    loads.push_back(bench::options().offered_load);
  } else {
    loads = {2.5e5, 5e5, 1e6, 2e6, 4e6, 8e6, 1.6e7};
  }
  Table knee_table({"offered/s", "issued", "completed", "shed",
                    "goodput/sec", "p50 ns", "p99 ns", "p999 ns", "hash"});
  std::vector<KvRunResult> sweep;
  for (const double load : loads) {
    KvRunConfig cfg;
    cfg.offered_load = load;
    cfg.zipf = zipf;
    cfg.sim_threads = sim_threads;
    sweep.push_back(run_kv(cfg));
    const KvRunResult& r = sweep.back();
    knee_table.add_row(
        {fmt_sci(load, 2), fmt_u64(r.report.issued),
         fmt_u64(r.report.completed), fmt_u64(r.shed),
         fmt_sci(r.goodput, 3), fmt_fixed(r.tail.p50_ns, 1),
         fmt_fixed(r.tail.p99_ns, 1), fmt_fixed(r.tail.p999_ns, 1),
         fmt_u64(r.report.fingerprint)});
  }
  bench::print_table(
      knee_table,
      "open-loop Zipfian load on the partitioned KV store (8 nodes x 4\n"
      "workers, admission limit 64): goodput tracks offered load until\n"
      "the knee, then tails grow and admission control sheds:");
  // The knee: the first sweep point where goodput falls visibly short of
  // the offered load — queueing has taken over (deepest point otherwise).
  std::size_t knee = sweep.size() - 1;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (sweep[i].goodput < 0.7 * loads[i]) {
      knee = i;
      break;
    }
  }
  const double knee_load = loads[knee];

  // --- determinism gate: --sim-threads 1 vs N -----------------------------
  KvRunConfig det_cfg;
  det_cfg.offered_load = knee_load;
  det_cfg.zipf = zipf;
  det_cfg.sim_threads = 1;
  const KvRunResult det_seq = run_kv(det_cfg);
  det_cfg.sim_threads = sim_threads;
  const KvRunResult det_par = run_kv(det_cfg);
  Table det_table({"sim threads", "completed", "shed", "hash"});
  det_table.add_row({"1", fmt_u64(det_seq.report.completed),
                     fmt_u64(det_seq.shed),
                     fmt_u64(det_seq.report.fingerprint)});
  det_table.add_row({fmt_u64(sim_threads), fmt_u64(det_par.report.completed),
                     fmt_u64(det_par.shed),
                     fmt_u64(det_par.report.fingerprint)});
  bench::print_table(det_table,
                     "knee-point run at 1 vs N simulation threads (latency\n"
                     "histograms + apply logs + shed counts must fold to\n"
                     "the same fingerprint):");
  if (det_seq.report.fingerprint != det_par.report.fingerprint) {
    std::cerr << "FATAL: serve fingerprint differs across sim threads\n";
    return 1;
  }

  // --- admission control at 10x overload ----------------------------------
  const double overload = 10.0 * sweep[knee].goodput;
  KvRunConfig over_on;
  over_on.offered_load = overload;
  over_on.zipf = zipf;
  over_on.admission_limit = 48;
  over_on.sim_threads = sim_threads;
  KvRunConfig over_off = over_on;
  over_off.admission_limit = 0;
  const KvRunResult on = run_kv(over_on);
  const KvRunResult off = run_kv(over_off);
  Table over_table({"admission", "completed", "shed", "p99 ns", "p999 ns",
                    "max ns"});
  over_table.add_row({"limit 48", fmt_u64(on.report.completed),
                      fmt_u64(on.shed), fmt_fixed(on.tail.p99_ns, 1),
                      fmt_fixed(on.tail.p999_ns, 1),
                      fmt_fixed(on.tail.max_ns, 1)});
  over_table.add_row({"unbounded", fmt_u64(off.report.completed),
                      fmt_u64(off.shed), fmt_fixed(off.tail.p99_ns, 1),
                      fmt_fixed(off.tail.p999_ns, 1),
                      fmt_fixed(off.tail.max_ns, 1)});
  bench::print_table(
      over_table,
      "10x overload: with a queue-depth limit the p999 of *answered*\n"
      "requests stays bounded and the excess is shed; without one every\n"
      "request queues and the tail absorbs the whole backlog:");
  if (on.shed == 0) {
    std::cerr << "FATAL: 10x overload shed nothing through admission "
                 "control\n";
    return 1;
  }
  if (on.tail.p999_ns * 2.0 > off.tail.p999_ns) {
    std::cerr << "FATAL: admission control did not bound p999 under "
                 "overload (on "
              << on.tail.p999_ns << " ns vs off " << off.tail.p999_ns
              << " ns)\n";
    return 1;
  }

  // --- key skew ------------------------------------------------------------
  Table skew_table({"zipf", "goodput/sec", "p99 ns", "shed", "hottest %"});
  double skew_p99_uniform = 0.0;
  double skew_p99_hot = 0.0;
  for (const double s : {0.0, 0.6, 0.99, 1.2}) {
    KvRunConfig cfg;
    cfg.offered_load = knee_load;
    cfg.zipf = s;
    cfg.sim_threads = sim_threads;
    const KvRunResult r = run_kv(cfg);
    if (s == 0.0) skew_p99_uniform = r.tail.p99_ns;
    if (s == 1.2) skew_p99_hot = r.tail.p99_ns;
    skew_table.add_row({fmt_fixed(s, 2), fmt_sci(r.goodput, 3),
                        fmt_fixed(r.tail.p99_ns, 1), fmt_u64(r.shed),
                        fmt_fixed(r.hottest_pct, 1)});
  }
  bench::print_table(
      skew_table,
      "key-popularity skew at the knee load: hot keys concentrate on\n"
      "their owning workers, queueing raises the tail even though the\n"
      "aggregate offered load is unchanged:");

  // --- request batching ----------------------------------------------------
  Table batch_table({"batch", "goodput/sec", "p50 ns", "p99 ns", "hash"});
  for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
    KvRunConfig cfg;
    cfg.offered_load = knee_load;
    cfg.zipf = zipf;
    cfg.batch_size = batch;
    cfg.dispatch_overhead = nanoseconds(500);
    cfg.sim_threads = sim_threads;
    const KvRunResult r = run_kv(cfg);
    batch_table.add_row({fmt_u64(batch), fmt_sci(r.goodput, 3),
                         fmt_fixed(r.tail.p50_ns, 1),
                         fmt_fixed(r.tail.p99_ns, 1),
                         fmt_u64(r.report.fingerprint)});
  }
  bench::print_table(
      batch_table,
      "500 ns dispatch overhead per batch window: batching amortizes the\n"
      "doorbell across up to batch_size queued requests:");

  // --- graph analytics suite ----------------------------------------------
  MachineConfig mc;
  mc.nodes = kNodes;
  mc.workers_per_node = kWorkersPerNode;
  Machine machine(mc);
  const serve::CsrGraph graph =
      serve::make_skewed_graph(2048, 6.0, 0.8, 0xEC05);
  serve::GraphEngine eng(machine, graph);

  const serve::BfsResult bfs = eng.bfs(0);
  const auto ref_bfs = serve::reference_bfs(graph, 0);
  const serve::PagerankResult pr = eng.pagerank(8);
  const auto ref_pr = serve::reference_pagerank(graph, 8);
  const serve::CcResult cc = eng.connected_components();
  const auto ref_cc = serve::reference_cc(graph);

  bool graph_ok = bfs.dist.size() == ref_bfs.size() &&
                  std::equal(bfs.dist.begin(), bfs.dist.end(),
                             ref_bfs.begin());
  graph_ok = graph_ok && pr.rank.size() == ref_pr.size() &&
             std::equal(pr.rank.begin(), pr.rank.end(), ref_pr.begin());
  graph_ok = graph_ok && cc.label.size() == ref_cc.size() &&
             std::equal(cc.label.begin(), cc.label.end(), ref_cc.begin());
  if (!graph_ok) {
    std::cerr << "FATAL: graph engine diverged from the functional "
                 "references\n";
    return 1;
  }

  std::vector<std::uint64_t> bfs_words(bfs.dist.begin(), bfs.dist.end());
  std::vector<std::uint64_t> cc_words(cc.label.begin(), cc.label.end());
  Table graph_table({"algorithm", "iterations", "sim ms", "edge reads",
                     "remote %", "byte hops", "hash"});
  graph_table.add_row(
      {"bfs", fmt_u64(bfs.stats.iterations),
       fmt_fixed(static_cast<double>(bfs.stats.time) / 1e9, 3),
       fmt_u64(bfs.stats.edge_reads),
       fmt_fixed(100.0 * bfs.stats.remote_fraction(), 1),
       fmt_u64(bfs.stats.byte_hops),
       fmt_u64(fnv_words(bfs_words.data(), bfs_words.size()))});
  graph_table.add_row(
      {"pagerank", fmt_u64(pr.stats.iterations),
       fmt_fixed(static_cast<double>(pr.stats.time) / 1e9, 3),
       fmt_u64(pr.stats.edge_reads),
       fmt_fixed(100.0 * pr.stats.remote_fraction(), 1),
       fmt_u64(pr.stats.byte_hops),
       fmt_u64(fnv_words(
           reinterpret_cast<const std::uint64_t*>(pr.rank.data()),
           pr.rank.size()))});
  graph_table.add_row(
      {"cc", fmt_u64(cc.stats.iterations),
       fmt_fixed(static_cast<double>(cc.stats.time) / 1e9, 3),
       fmt_u64(cc.stats.edge_reads),
       fmt_fixed(100.0 * cc.stats.remote_fraction(), 1),
       fmt_u64(cc.stats.byte_hops),
       fmt_u64(fnv_words(cc_words.data(), cc_words.size()))});
  bench::print_table(
      graph_table,
      "graph analytics over the global address space (2048 vertices,\n"
      "skewed degrees, 32 workers): every run is checked against the\n"
      "single-threaded functional references:");

  // --- machine-readable summary -------------------------------------------
  const KvRunResult& kr = sweep[knee];
  std::cout << "SERVE_JSON {"
            << "\"knee_offered_per_sec\": " << knee_load
            << ", \"knee_goodput_per_sec\": " << kr.goodput
            << ", \"knee_p50_ns\": " << kr.tail.p50_ns
            << ", \"knee_p99_ns\": " << kr.tail.p99_ns
            << ", \"knee_p999_ns\": " << kr.tail.p999_ns
            << ", \"kv_remote_bytes\": " << kr.remote_bytes
            << ", \"graph_byte_hops\": " << bfs.stats.byte_hops
            << ", \"overload_shed\": " << on.shed
            << ", \"overload_p999_on_ns\": " << on.tail.p999_ns
            << ", \"overload_p999_off_ns\": " << off.tail.p999_ns
            << ", \"skew_p99_uniform_ns\": " << skew_p99_uniform
            << ", \"skew_p99_hot_ns\": " << skew_p99_hot
            << ", \"det_match\": "
            << (det_seq.report.fingerprint == det_par.report.fingerprint ? 1
                                                                         : 0)
            << ", \"bfs_remote_fraction\": " << bfs.stats.remote_fraction()
            << ", \"graph_ok\": " << (graph_ok ? 1 : 0) << "}\n";
  return 0;
}
