#include <gtest/gtest.h>

#include <algorithm>

#include "hls/dse.h"
#include "runtime/allocator.h"
#include "runtime/chain.h"
#include "runtime/machine.h"
#include "runtime/scheduler.h"
#include "runtime/task.h"

namespace ecoscale {
namespace {

MachineConfig small_machine() {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  return cfg;
}

TEST(Machine, ConstructionWiresEverything) {
  Machine m(small_machine());
  EXPECT_EQ(m.worker_count(), 4u);
  EXPECT_EQ(m.node_count(), 2u);
  EXPECT_EQ(m.pool(0).size(), 2u);
  EXPECT_EQ(m.pgas().worker_count(), 4u);
  EXPECT_EQ(m.mpi().size(), 2u);
  EXPECT_EQ(m.worker(WorkerCoord{1, 1}).coord(), (WorkerCoord{1, 1}));
}

// --- allocator -------------------------------------------------------------

TEST(Allocator, LocalPlacesEverythingAtAnchor) {
  Machine m(small_machine());
  TopologyAllocator alloc(m.pgas());
  const auto buf = alloc.allocate(mebibytes(1), Distribution::kLocal,
                                  {WorkerCoord{1, 0}});
  EXPECT_EQ(buf.size(), mebibytes(1));
  ASSERT_EQ(buf.partitions().size(), 1u);
  EXPECT_EQ(buf.home_of(0), (WorkerCoord{1, 0}));
  EXPECT_EQ(buf.home_of(mebibytes(1) - 1), (WorkerCoord{1, 0}));
}

TEST(Allocator, BlockSplitsAcrossWorkers) {
  Machine m(small_machine());
  TopologyAllocator alloc(m.pgas());
  std::vector<WorkerCoord> workers;
  for (std::size_t i = 0; i < 4; ++i) workers.push_back(m.pgas().coord(i));
  const auto buf = alloc.allocate(mebibytes(4), Distribution::kBlock, workers);
  EXPECT_EQ(buf.partitions().size(), 4u);
  EXPECT_EQ(buf.home_of(0), workers[0]);
  EXPECT_EQ(buf.home_of(mebibytes(4) - 1), workers[3]);
  // Offsets tile the buffer.
  Bytes expect = 0;
  for (const auto& p : buf.partitions()) {
    EXPECT_EQ(p.offset, expect);
    expect += p.size;
  }
  EXPECT_EQ(expect, mebibytes(4));
}

TEST(Allocator, CyclicRoundRobinsPages) {
  Machine m(small_machine());
  TopologyAllocator alloc(m.pgas());
  std::vector<WorkerCoord> workers{{0, 0}, {0, 1}};
  const auto buf =
      alloc.allocate(4 * kPageSize, Distribution::kCyclic, workers);
  EXPECT_EQ(buf.partitions().size(), 4u);
  EXPECT_EQ(buf.home_of(0 * kPageSize), workers[0]);
  EXPECT_EQ(buf.home_of(1 * kPageSize), workers[1]);
  EXPECT_EQ(buf.home_of(2 * kPageSize), workers[0]);
}

TEST(Allocator, AddressOfMapsThroughPartition) {
  Machine m(small_machine());
  TopologyAllocator alloc(m.pgas());
  const auto buf = alloc.allocate(2 * kPageSize, Distribution::kBlock,
                                  {WorkerCoord{0, 0}, WorkerCoord{1, 1}});
  const auto a = buf.address_of(10);
  EXPECT_EQ(a.home(), (WorkerCoord{0, 0}));
  const auto b = buf.address_of(kPageSize + 10);
  EXPECT_EQ(b.home(), (WorkerCoord{1, 1}));
  EXPECT_THROW(buf.address_of(2 * kPageSize), CheckError);
}

TEST(Allocator, MigratePartitionMovesOwnership) {
  Machine m(small_machine());
  TopologyAllocator alloc(m.pgas());
  auto buf = alloc.allocate(2 * kPageSize, Distribution::kLocal,
                            {WorkerCoord{0, 0}});
  const auto r = alloc.migrate_partition(buf, 0, 1, 0);
  EXPECT_EQ(r.bytes_moved, 2 * kPageSize);
  EXPECT_GT(r.finish, 0u);
  const PageId page = page_of(buf.partitions()[0].base);
  EXPECT_TRUE(m.pgas().directory().cacheable_at(page, 1));
}

// --- runtime scheduler ----------------------------------------------------------

struct SchedRig {
  explicit SchedRig(RuntimeConfig cfg = {}) : machine(small_machine()) {
    runtime = std::make_unique<RuntimeSystem>(machine, sim, cfg);
    kernel = make_montecarlo_kernel();
    runtime->register_kernel(kernel, emit_variants(kernel, 2));
  }

  Task make_task(TaskId id, std::uint64_t items, WorkerCoord home,
                 SimTime release = 0) const {
    Task t;
    t.id = id;
    t.kernel = kernel.id;
    t.items = items;
    t.features.items = static_cast<double>(items);
    t.features.bytes =
        static_cast<double>(items * (kernel.bytes_in + kernel.bytes_out));
    t.home = home;
    t.release = release;
    return t;
  }

  Machine machine;
  Simulator sim;
  std::unique_ptr<RuntimeSystem> runtime;
  KernelIR kernel;
};

TEST(Runtime, CompletesAllTasks) {
  SchedRig rig;
  for (TaskId i = 0; i < 12; ++i) {
    rig.runtime->submit(rig.make_task(i, 5000, {0, 0}, microseconds(i)));
  }
  rig.runtime->run();
  EXPECT_EQ(rig.runtime->results().size(), 12u);
  const auto s = rig.runtime->stats();
  EXPECT_GT(s.makespan, 0u);
  EXPECT_GT(s.energy, 0.0);
  EXPECT_EQ(s.sw_tasks + s.hw_tasks, 12u);
}

TEST(Runtime, AlwaysSoftwareNeverTouchesFabric) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kAlwaysSoftware;
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 8; ++i) {
    rig.runtime->submit(rig.make_task(i, 100000, {0, 0}));
  }
  rig.runtime->run();
  const auto s = rig.runtime->stats();
  EXPECT_EQ(s.sw_tasks, 8u);
  EXPECT_EQ(s.hw_tasks, 0u);
}

TEST(Runtime, AlwaysHardwareUsesFabric) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kAlwaysHardware;
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 8; ++i) {
    rig.runtime->submit(rig.make_task(i, 100000, {0, 0}));
  }
  rig.runtime->run();
  const auto s = rig.runtime->stats();
  EXPECT_EQ(s.hw_tasks, 8u);
}

TEST(Runtime, ThresholdSplitsBySize) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kSizeThreshold;
  cfg.size_threshold = 10000;
  SchedRig rig(cfg);
  rig.runtime->submit(rig.make_task(0, 100, {0, 0}));
  rig.runtime->submit(rig.make_task(1, 50000, {0, 1}));
  rig.runtime->run();
  const auto& results = rig.runtime->results();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    if (r.id == 0) {
      EXPECT_EQ(r.device, DeviceClass::kCpu);
    }
    if (r.id == 1) {
      EXPECT_NE(r.device, DeviceClass::kCpu);
    }
  }
}

TEST(Runtime, ModelBasedLearnsToOffloadBigTasks) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kModelBased;
  SchedRig rig(cfg);
  // A long stream of identical big tasks: after warmup the model should
  // send them to hardware.
  for (TaskId i = 0; i < 60; ++i) {
    rig.runtime->submit(
        rig.make_task(i, 200000, {0, 0}, milliseconds(i)));
  }
  rig.runtime->run();
  const auto s = rig.runtime->stats();
  EXPECT_GT(s.hw_tasks, s.sw_tasks);
}

TEST(Runtime, LazySpillsOnlyWhenDeep) {
  RuntimeConfig cfg;
  cfg.distribution = DistributionPolicy::kLazyLocal;
  cfg.spill_depth = 4;
  SchedRig rig(cfg);
  // 3 tasks: below the spill depth, nothing forwards.
  for (TaskId i = 0; i < 3; ++i) {
    rig.runtime->submit(rig.make_task(i, 50000, {0, 0}));
  }
  rig.runtime->run();
  EXPECT_EQ(rig.runtime->stats().forwarded_tasks, 0u);
}

TEST(Runtime, LazySpillsUnderBurst) {
  RuntimeConfig cfg;
  cfg.distribution = DistributionPolicy::kLazyLocal;
  cfg.spill_depth = 2;
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 16; ++i) {
    rig.runtime->submit(rig.make_task(i, 200000, {0, 0}));
  }
  rig.runtime->run();
  const auto s = rig.runtime->stats();
  EXPECT_GT(s.forwarded_tasks, 0u);
  EXPECT_GT(s.monitor_messages, 0u);
}

// Lazy spilling is a bounded cascade: a task forwards at most three times
// and then queues wherever it is, however deep that queue is.
TEST(Runtime, LazySpillCascadeIsBounded) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kAlwaysSoftware;
  cfg.distribution = DistributionPolicy::kLazyLocal;
  cfg.spill_depth = 1;
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 16; ++i) {
    rig.runtime->submit(rig.make_task(i, 200000, {0, 0}));
  }
  rig.runtime->run();
  const auto s = rig.runtime->stats();
  EXPECT_EQ(rig.runtime->results().size(), 16u);
  // One forward message per spill hop, at most three hops per task.
  EXPECT_GT(s.forwarded_tasks, 0u);
  EXPECT_GT(s.monitor_messages, s.forwarded_tasks);
  EXPECT_LE(s.monitor_messages, 3 * s.forwarded_tasks);
}

const TaskResult& result_of(const RuntimeSystem& rt, TaskId id) {
  const auto& results = rt.results();
  const auto it =
      std::find_if(results.begin(), results.end(),
                   [id](const TaskResult& r) { return r.id == id; });
  ECO_CHECK_MSG(it != results.end(), "task has no result");
  return *it;
}

TEST(Runtime, ForwardedFlagMarksLazySpillsOnly) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kAlwaysSoftware;
  cfg.distribution = DistributionPolicy::kLazyLocal;
  cfg.spill_depth = 2;
  SchedRig rig(cfg);
  // Task 0 runs, task 1 queues behind it (depth 1 < 2), task 2 finds the
  // queue at depth 2 and spills to a neighbour.
  for (TaskId i = 0; i < 3; ++i) {
    rig.runtime->submit(rig.make_task(i, 200000, {0, 0}));
  }
  rig.runtime->run();
  EXPECT_FALSE(result_of(*rig.runtime, 0).forwarded);
  EXPECT_EQ(result_of(*rig.runtime, 0).executed_on, 0u);
  EXPECT_FALSE(result_of(*rig.runtime, 1).forwarded);
  EXPECT_EQ(result_of(*rig.runtime, 1).executed_on, 0u);
  EXPECT_TRUE(result_of(*rig.runtime, 2).forwarded);
  EXPECT_NE(result_of(*rig.runtime, 2).executed_on, 0u);
  EXPECT_EQ(rig.runtime->stats().forwarded_tasks, 1u);
}

TEST(Runtime, ForwardedFlagMarksCentralizedRoutes) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kAlwaysSoftware;
  cfg.distribution = DistributionPolicy::kCentralized;
  SchedRig rig(cfg);
  // Task 0 finds every queue empty and stays home; task 1 sees home busy
  // and is routed to the first idle worker.
  for (TaskId i = 0; i < 2; ++i) {
    rig.runtime->submit(rig.make_task(i, 200000, {0, 0}));
  }
  rig.runtime->run();
  EXPECT_FALSE(result_of(*rig.runtime, 0).forwarded);
  EXPECT_EQ(result_of(*rig.runtime, 0).executed_on, 0u);
  EXPECT_TRUE(result_of(*rig.runtime, 1).forwarded);
  EXPECT_EQ(result_of(*rig.runtime, 1).executed_on, 1u);
  EXPECT_EQ(rig.runtime->stats().forwarded_tasks, 1u);
}

TEST(Runtime, FailoverKeepsFirstArrivalForwardedFlag) {
  // Same two tasks, but workers 0 and 1 crash for good while both run.
  // The heartbeat monitor re-queues each victim on a survivor; a failover
  // re-arrival is not a forward, so each keeps the flag of its first
  // arrival: task 0 (served at home) stays unforwarded although it
  // completes elsewhere, task 1 (routed) stays forwarded.
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kAlwaysSoftware;
  cfg.distribution = DistributionPolicy::kCentralized;
  cfg.faults.enabled = true;
  for (const std::size_t w : {0u, 1u}) {
    cfg.faults.scripted_crashes.push_back(
        CrashEvent{w, microseconds(10), /*permanent=*/true, 0});
  }
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 2; ++i) {
    rig.runtime->submit(rig.make_task(i, 200000, {0, 0}));
  }
  rig.runtime->run();
  ASSERT_EQ(rig.runtime->recovery_log().size(), 2u);
  const TaskResult& home = result_of(*rig.runtime, 0);
  const TaskResult& routed = result_of(*rig.runtime, 1);
  EXPECT_GE(home.executed_on, 2u);
  EXPECT_GE(routed.executed_on, 2u);
  EXPECT_FALSE(home.forwarded);
  EXPECT_TRUE(routed.forwarded);
  EXPECT_EQ(rig.runtime->stats().forwarded_tasks, 1u);
}

TEST(Runtime, LazyTalksLessThanPollingOracle) {
  RuntimeConfig lazy_cfg;
  lazy_cfg.distribution = DistributionPolicy::kLazyLocal;
  RuntimeConfig poll_cfg;
  poll_cfg.distribution = DistributionPolicy::kPollLeastLoaded;
  SchedRig lazy(lazy_cfg);
  SchedRig poll(poll_cfg);
  for (TaskId i = 0; i < 32; ++i) {
    lazy.runtime->submit(lazy.make_task(i, 100000, {0, 0}));
    poll.runtime->submit(poll.make_task(i, 100000, {0, 0}));
  }
  lazy.runtime->run();
  poll.runtime->run();
  EXPECT_LT(lazy.runtime->stats().monitor_messages,
            poll.runtime->stats().monitor_messages);
  // The burst at one worker drives lazy diffusion.
  EXPECT_GT(lazy.runtime->stats().forwarded_tasks, 0u);
}

TEST(Runtime, PollPolicyCostScalesWithWorkers) {
  RuntimeConfig cfg;
  cfg.distribution = DistributionPolicy::kPollLeastLoaded;
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 10; ++i) {
    rig.runtime->submit(rig.make_task(i, 1000, {0, 0}));
  }
  rig.runtime->run();
  // 2 messages per non-self worker per task = 2*3*10.
  EXPECT_EQ(rig.runtime->stats().monitor_messages, 60u);
}

TEST(Runtime, RejectsUnregisteredKernel) {
  SchedRig rig;
  Task t = rig.make_task(0, 10, {0, 0});
  t.kernel = 9999;
  EXPECT_THROW(rig.runtime->submit(t), CheckError);
}

TEST(Runtime, QueueWaitGrowsUnderLoad) {
  SchedRig rig;
  for (TaskId i = 0; i < 20; ++i) {
    rig.runtime->submit(rig.make_task(i, 500000, {0, 0}));
  }
  rig.runtime->run();
  auto s = rig.runtime->stats();
  EXPECT_GT(s.queue_wait_ns.max(), s.queue_wait_ns.min());
}

// --- chaining -----------------------------------------------------------------

TEST(Chain, ChainedMovesLessDramTraffic) {
  Worker w({0, 0}, WorkerConfig{});
  const KernelIR kernels[] = {make_stencil5_kernel(), make_sha_like_kernel(),
                              make_spmv_kernel()};
  std::vector<AcceleratorModule> stages;
  for (const auto& k : kernels) {
    stages.push_back(emit_variants(k, 1).front());
  }
  const auto chained = run_chained(w, stages, kernels, 100000, 0);
  Worker w2({0, 1}, WorkerConfig{});
  const auto staged = run_staged(w2, stages, kernels, 100000, 0);
  ASSERT_TRUE(chained.fits);
  ASSERT_TRUE(staged.fits);
  EXPECT_LT(chained.dram_bytes, staged.dram_bytes);
  EXPECT_GT(chained.ops_per_dram_byte, staged.ops_per_dram_byte);
  EXPECT_LT(chained.energy, staged.energy);
}

TEST(Chain, SingleStageDegenerate) {
  Worker w({0, 0}, WorkerConfig{});
  const KernelIR kernels[] = {make_stencil5_kernel()};
  const std::vector<AcceleratorModule> stages{
      emit_variants(kernels[0], 1).front()};
  const auto chained = run_chained(w, stages, kernels, 1000, 0);
  ASSERT_TRUE(chained.fits);
  EXPECT_EQ(chained.dram_bytes,
            1000 * (stages[0].bytes_in_per_item +
                    stages[0].bytes_out_per_item));
}

TEST(Chain, OversizedChainReportsNoFit) {
  WorkerConfig cfg;
  cfg.fabric.fabric_width = 2;
  cfg.fabric.fabric_height = 2;
  Worker w({0, 0}, cfg);
  const KernelIR kernels[] = {make_montecarlo_kernel(),
                              make_montecarlo_kernel()};
  AcceleratorModule big = emit_variants(kernels[0], 1).front();
  big.shape = ModuleShape{4, 4};
  const std::vector<AcceleratorModule> stages{big, big};
  const auto r = run_chained(w, stages, kernels, 100, 0);
  EXPECT_FALSE(r.fits);
}

}  // namespace
}  // namespace ecoscale
