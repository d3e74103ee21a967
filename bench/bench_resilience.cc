// EXP-RES — resilience (paper abstract: "To further increase energy
// efficiency, as well as to provide resilience, the Workers employ
// reconfigurable accelerators…").
//
// Every number here comes from the *live* runtime: a FaultInjector drives
// worker crashes, a permanent node loss, a link-degradation window and
// fabric SEUs through the simulator while the full scheduler (model-based
// placement, lazy distribution, UNIMEM, UNILOGIC) keeps running. Recovery
// is heartbeat detection + re-execution on survivors; UNIMEM pages owned
// by a dead node fail over after bounded retries. Run with --trace to
// export fault / detect / retry / failover events for
// scripts/trace_summary.py.
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "hls/dse.h"
#include "runtime/scheduler.h"

namespace ecoscale {
namespace {

constexpr TaskId kTasks = 128;

struct LiveRun {
  RuntimeStats stats;
  std::size_t completed = 0;
  std::uint64_t crashes = 0;
  std::uint64_t node_losses = 0;
  std::uint64_t seu_hits = 0;
  std::uint64_t link_faults = 0;
  std::uint64_t pgas_retries = 0;
  std::uint64_t pgas_failovers = 0;
  std::uint64_t pool_dead_remotes = 0;
  std::uint64_t pool_fallbacks = 0;
};

/// One deterministic 128-task workload (2 nodes x 4 workers) under the
/// given fault script. When `orphan_pgas_page` is set, a page homed on
/// node 1 is touched from node 0 *after* the run — against a lost node 1
/// this exercises the UNIMEM retry + ownership-failover path.
LiveRun run_live(const FaultConfig& faults, bool orphan_pgas_page = false) {
  MachineConfig mc;
  mc.nodes = 2;
  mc.workers_per_node = 4;
  Machine machine(mc);
  Simulator sim;
  RuntimeConfig rc;
  rc.placement = PlacementPolicy::kModelBased;
  rc.distribution = DistributionPolicy::kLazyLocal;
  rc.faults = faults;
  RuntimeSystem runtime(machine, sim, rc);
  const auto kernel = make_montecarlo_kernel();
  runtime.register_kernel(kernel, emit_variants(kernel, 2));
  const GlobalAddress remote_page =
      machine.pgas().alloc(/*node=*/1, /*worker=*/0, 4096);

  Rng rng(5);
  for (TaskId i = 0; i < kTasks; ++i) {
    Task t;
    t.id = i;
    t.kernel = kernel.id;
    t.items = 50000 + rng.uniform_u64(100000);
    t.features.items = static_cast<double>(t.items);
    t.home = WorkerCoord{static_cast<NodeId>(rng.uniform_u64(2)),
                         static_cast<WorkerId>(rng.uniform_u64(4))};
    t.release = rng.uniform_u64(milliseconds(3));
    runtime.submit(t);
  }
  runtime.run();

  LiveRun out;
  out.completed = runtime.results().size();
  ECO_CHECK_MSG(out.completed == kTasks,
                "live fault run lost tasks: recovery must complete all work");
  if (orphan_pgas_page) {
    // The page's owning node is gone: the first access retries, times out,
    // and re-homes the page to a survivor; later accesses are local again.
    const WorkerCoord reader{0, 0};
    SimTime now = sim.now();
    for (int i = 0; i < 4; ++i) {
      now = machine.pgas().load(reader, remote_page, 64, now).finish;
    }
  }
  out.stats = runtime.stats();
  if (const FaultInjector* inj = runtime.faults()) {
    out.crashes = inj->crashes();
    out.node_losses = inj->node_losses();
    out.seu_hits = inj->seu_hits();
    out.link_faults = inj->link_faults();
  }
  out.pgas_retries = machine.pgas().remote_retries();
  out.pgas_failovers = machine.pgas().page_failovers();
  for (NodeId n = 0; n < machine.node_count(); ++n) {
    out.pool_dead_remotes += machine.pool(n).failed_remote_attempts();
    out.pool_fallbacks += machine.pool(n).local_fallbacks();
  }
  return out;
}

}  // namespace
}  // namespace ecoscale

int main(int argc, char** argv) {
  using namespace ecoscale;
  bench::init(argc, argv);
  bench::print_header("EXP-RES",
                      "end-to-end fault injection & recovery in the live "
                      "runtime (abstract's resilience claim)");

  // --- crash-rate sweep ------------------------------------------------
  Table t({"crash rate (1/s)", "completed", "crashes", "detections",
           "re-exec", "wasted energy", "makespan", "vs clean"});
  double clean_makespan = 0.0;
  for (const double rate : {0.0, 500.0, 2000.0}) {
    FaultConfig fc;
    fc.enabled = rate > 0.0;
    fc.worker_crash_per_second = rate;
    const auto out = run_live(fc);
    const double makespan_ms = to_milliseconds(out.stats.makespan);
    if (rate == 0.0) clean_makespan = makespan_ms;
    t.add_row({fmt_fixed(rate, 0),
               fmt_u64(out.completed) + "/" + fmt_u64(kTasks),
               fmt_u64(out.crashes), fmt_u64(out.stats.detections),
               fmt_u64(out.stats.reexecutions),
               fmt_energy_pj(out.stats.wasted_energy),
               fmt_fixed(makespan_ms, 2) + " ms",
               fmt_ratio(makespan_ms / clean_makespan)});
  }
  bench::print_table(
      t,
      "128 mixed tasks over 2 nodes x 4 workers under per-worker Poisson\n"
      "crashes injected through the simulator. The heartbeat monitor\n"
      "detects each crash detect_timeout later and re-executes the lost\n"
      "attempt on a survivor; every task completes, and the energy the\n"
      "destroyed attempts burnt is itemised as wasted:");

  // --- combined-fault (chaos) run ---------------------------------------
  FaultConfig chaos;
  chaos.enabled = true;
  chaos.worker_crash_per_second = 500.0;
  chaos.seu_per_second = 2000.0;
  chaos.node_losses.push_back({/*node=*/1, /*at=*/milliseconds(1)});
  chaos.link_degrades.push_back(
      {/*level=*/1, /*at=*/microseconds(500), /*duration=*/milliseconds(2),
       /*factor=*/8.0});
  const auto out = run_live(chaos, /*orphan_pgas_page=*/true);

  Table c({"fault domain", "injected", "recovery response"});
  c.add_row({"worker crash", fmt_u64(out.crashes),
             fmt_u64(out.stats.detections) + " detected, " +
                 fmt_u64(out.stats.reexecutions) + " re-executed"});
  c.add_row({"node loss", fmt_u64(out.node_losses) + " node",
             fmt_u64(out.stats.task_failovers) + " task failovers"});
  c.add_row({"link degrade", fmt_u64(out.link_faults) + " window",
             "absorbed (bandwidth-scaled serialization)"});
  c.add_row({"fabric SEU", fmt_u64(out.seu_hits) + " hits",
             "scrubbed by next-call reconfiguration"});
  c.add_row({"dead UNIMEM owner", fmt_u64(out.pgas_retries) + " retries",
             fmt_u64(out.pgas_failovers) + " page failovers"});
  c.add_row({"dead UNILOGIC target",
             fmt_u64(out.pool_dead_remotes) + " failed remotes",
             fmt_u64(out.pool_fallbacks) + " local fallbacks"});
  bench::print_table(
      c,
      "Chaos run: Poisson crashes + permanent loss of node 1 at 1 ms +\n"
      "8x link degradation window + fabric SEUs, same 128-task workload.\n"
      "All tasks still complete (" +
          std::to_string(out.completed) + "/" + std::to_string(kTasks) +
          "); a page orphaned on the lost node is re-homed to a survivor\n"
          "after bounded retries:");

  Table e({"metric", "value"});
  e.add_row({"makespan",
             fmt_fixed(to_milliseconds(out.stats.makespan), 2) + " ms"});
  e.add_row({"useful + overhead energy", fmt_energy_pj(out.stats.energy)});
  e.add_row({"wasted (destroyed attempts)",
             fmt_energy_pj(out.stats.wasted_energy)});
  bench::print_table(
      e,
      "Energy under chaos. Crashes destroy partial progress, which is\n"
      "charged as wasted energy rather than silently dropped:");
  ECO_CHECK_MSG(out.stats.wasted_energy > 0.0,
                "chaos run must destroy some in-flight progress");
  ECO_CHECK_MSG(out.pgas_failovers > 0,
                "orphaned page must fail over to a survivor");
  return 0;
}
