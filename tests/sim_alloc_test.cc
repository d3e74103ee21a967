// Allocation accounting for the simulation hot path.
//
// This binary overrides the global allocation functions with counting
// versions and asserts the kernel's core promise: once warm, scheduling and
// retiring events performs no heap allocation — captures at or under
// InlineAction::kInlineBytes live inline in recycled slab slots, and larger
// captures are served by the recycled block pool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "interconnect/network.h"
#include "interconnect/topology.h"
#include "obs/trace.h"
#include "runtime/sharded.h"
#include "serve/kvstore.h"
#include "sharded_test_peer.h"
#include "sim/inline_action.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "unimem/pgas.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacements stay out of line: GCC would otherwise inline a delete
// into a caller whose pointer came from operator new, see std::free meet
// an operator-new pointer, and report -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                     std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace ecoscale {
namespace {

// A capture that exactly fills the inline buffer when combined with
// nothing else: 64 bytes of payload.
struct InlinePayload {
  std::uint64_t w[8];
};
static_assert(sizeof(InlinePayload) == InlineAction::kInlineBytes);

// Forces the spill path: larger than the inline buffer, smaller than a
// pool block.
struct SpillPayload {
  std::uint64_t w[16];
};
static_assert(sizeof(SpillPayload) > InlineAction::kInlineBytes);

template <typename Payload>
void pump(Simulator& sim, std::uint64_t events, std::uint64_t* sink) {
  struct Actor {
    Simulator* sim;
    std::uint64_t* budget;
    std::uint64_t* sink;
    void fire() {
      if (*budget == 0) return;
      --*budget;
      Actor* self = this;
      Payload p{};
      p.w[0] = *budget;
      sim->schedule_after(1 + (*budget % 7), [self, p] {
        *self->sink += p.w[0];
        self->fire();
      });
    }
  };
  std::uint64_t budget = events;
  std::array<Actor, 8> actors;
  actors.fill(Actor{&sim, &budget, sink});
  for (auto& a : actors) a.fire();
  sim.run();
}

TEST(SimulatorAllocation, SteadyStateSchedulingIsAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;
  // Warm up: grow the heap/slab vectors and fault in everything once.
  pump<InlinePayload>(sim, 20000, &sink);
  const std::uint64_t before = g_allocations.load();
  pump<InlinePayload>(sim, 100000, &sink);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "scheduling inline-capture events allocated on the hot path";
}

TEST(SimulatorAllocation, SpilledCapturesRecycleThroughPool) {
  Simulator sim;
  std::uint64_t sink = 0;
  pump<SpillPayload>(sim, 20000, &sink);  // warm pool + vectors
  const std::uint64_t before = g_allocations.load();
  const auto pool_before = detail::ActionBlockPool::stats();
  pump<SpillPayload>(sim, 100000, &sink);
  const std::uint64_t after = g_allocations.load();
  const auto pool_after = detail::ActionBlockPool::stats();
  EXPECT_EQ(after, before)
      << "spilled captures should be served by the recycled block pool";
  EXPECT_EQ(pool_after.pool_misses, pool_before.pool_misses);
  EXPECT_GT(pool_after.pool_hits, pool_before.pool_hits);
}

// Drive a mixed local/remote/atomic PGAS access pattern for `ops`
// operations, advancing time and releasing the retired past at epoch
// boundaries (the contract long-running workloads follow).
void pgas_pump(PgasSystem& sys, std::span<const GlobalAddress> local,
               std::span<const GlobalAddress> remote, std::uint64_t ops,
               SimTime& now) {
  constexpr std::uint64_t kEpoch = 4096;
  const WorkerCoord who{0, 0};
  for (std::uint64_t i = 0; i < ops; ++i) {
    now += nanoseconds(100);
    const GlobalAddress addr = (i & 1) ? remote[i % remote.size()]
                                       : local[i % local.size()];
    if ((i & 7) == 7) {
      sys.atomic_rmw(who, addr, AtomicOp::kFetchAdd, 1, now);
    } else if (i & 2) {
      sys.store(who, addr, 64, now);
    } else {
      sys.load(who, addr, 64, now);
    }
    if ((i & (kEpoch - 1)) == 0) sys.release(now);
  }
}

TEST(SimulatorAllocation, PgasAccessLoopIsAllocationFreeOnceWarm) {
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  PgasSystem sys(cfg);
  std::vector<GlobalAddress> local, remote;
  for (std::size_t i = 0; i < 16; ++i) {
    local.push_back(sys.alloc(0, i % 2, 4096) + (i * 8) % 4096);
    remote.push_back(sys.alloc(1, i % 2, 4096) + (i * 8) % 4096);
  }
  SimTime now = 0;
  // Warm up: resolve routes, grow calendars/caches/energy tables, fault in
  // the backing pages the atomics touch.
  pgas_pump(sys, local, remote, 3 * 4096, now);
  const std::uint64_t before = g_allocations.load();
  pgas_pump(sys, local, remote, 10 * 4096, now);
  EXPECT_EQ(g_allocations.load(), before)
      << "steady-state PGAS loads/stores/atomics allocated on the hot path";
}

TEST(SimulatorAllocation, NetworkSendLoopIsAllocationFreeOnceWarm) {
  Network net(make_tree({4, 4}), NetworkConfig{});
  const std::size_t endpoints = 16;
  const auto pump = [&](std::uint64_t ops, SimTime& now) {
    constexpr std::uint64_t kEpoch = 4096;
    for (std::uint64_t i = 0; i < ops; ++i) {
      now += nanoseconds(100);
      const std::size_t src = i % endpoints;
      const std::size_t dst = (i * 7 + 3) % endpoints;
      Packet p{PacketType::kWrite, WorkerCoord{0, 0}, WorkerCoord{0, 0}, 64};
      net.send(src, dst, p, now);
      if ((i & (kEpoch - 1)) == 0) net.release(now);
    }
  };
  SimTime now = 0;
  pump(3 * 4096, now);  // warm: all 16x16 routes resolved, calendars sized
  const std::uint64_t before = g_allocations.load();
  pump(10 * 4096, now);
  EXPECT_EQ(g_allocations.load(), before)
      << "steady-state Network::send allocated on the hot path";
}

#if !defined(ECO_TRACE_DISABLED)
TEST(SimulatorAllocation, TracedPgasAndNetworkLoopsStayAllocationFree) {
  // The tracing promise: with a session armed, the instrumented hot paths
  // still allocate nothing once warm — an emit is one POD store into the
  // preallocated per-thread ring, and ring wrap-around evicts in place.
  // The ring is deliberately smaller than the event volume so the test
  // covers the wrap path too.
  obs::TraceOptions topts;
  topts.ring_capacity = 1u << 15;
  topts.counter_sample_every = 16;
  obs::TraceSession::instance().start(topts);

  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  PgasSystem sys(cfg);
  std::vector<GlobalAddress> local, remote;
  for (std::size_t i = 0; i < 16; ++i) {
    local.push_back(sys.alloc(0, i % 2, 4096) + (i * 8) % 4096);
    remote.push_back(sys.alloc(1, i % 2, 4096) + (i * 8) % 4096);
  }
  Network net(make_tree({4, 4}), NetworkConfig{});
  const auto net_pump = [&](std::uint64_t ops, SimTime& now) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      now += nanoseconds(100);
      Packet p{PacketType::kWrite, WorkerCoord{0, 0}, WorkerCoord{0, 0}, 64};
      net.send(i % 16, (i * 7 + 3) % 16, p, now);
      if ((i & 4095) == 0) net.release(now);
    }
  };

  // Warm up: routes, calendars, and this thread's trace ring registration
  // (the one allocating step).
  SimTime now = 0;
  pgas_pump(sys, local, remote, 3 * 4096, now);
  net_pump(3 * 4096, now);
  ASSERT_GT(obs::TraceSession::instance().events_recorded(), 0u)
      << "instrumented paths emitted nothing; the test is not tracing";

  const std::uint64_t before = g_allocations.load();
  pgas_pump(sys, local, remote, 10 * 4096, now);
  net_pump(10 * 4096, now);
  EXPECT_EQ(g_allocations.load(), before)
      << "tracing-enabled steady state allocated on the hot path";
  EXPECT_GT(obs::TraceSession::instance().events_dropped(), 0u)
      << "ring never wrapped; shrink the ring so eviction is exercised";
  obs::TraceSession::instance().stop();
}
#endif  // !ECO_TRACE_DISABLED

// --- sharded parallel engine ------------------------------------------------

// Cross-posting actor for the multi-threaded engine: self-reschedules on
// its own shard and sends every fourth fire to its ring neighbor. All
// captures fit InlineAction's inline buffer, no outbox grows past its
// reserve, and the inbox scratch is reserved at construction — so once
// warm, a round (plan, claim, execute, gate, gather, sort, insert, fold,
// gate) must not allocate at all.
struct ShardPumpActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shard = 0;
  std::size_t shards = 0;
  std::uint64_t left = 0;
  // Per-shard sink slots: slot d is only ever written by whichever thread
  // is executing shard d's window (cross-posts land on the destination's
  // slot), so the accumulation needs no synchronization of its own.
  std::uint64_t* sinks = nullptr;

  void fire() {
    Simulator& sim = eng->shard(shard);
    sinks[shard] += sim.now();
    if (left == 0) return;
    --left;
    if ((left & 3) == 0 && shards > 1) {
      const std::size_t to = (shard + 1) % shards;
      std::uint64_t* s = &sinks[to];
      ShardedSimulator* e = eng;
      eng->post(shard, to, sim.now() + 200 + (left % 64),
                [e, to, s] { *s += e->shard(to).now(); });
    }
    sim.schedule_after(50 + (left % 50), [this] { fire(); });
  }
};

// Eight shards of ShardPumpActors on a 4-thread engine, each actor good for
// `fires_per_actor` fires. The pump is too sparse for the engine to pick
// parallel stretches itself, so it is pinned to the parallel path.
struct ShardPump {
  ShardedSimulator engine{[] {
    ShardedConfig sc;
    sc.shards = 8;
    sc.lookahead = 200;
    sc.threads = 4;  // the promise must hold with --sim-threads > 1
    return sc;
  }()};
  std::array<std::uint64_t, 8> sinks{};
  std::array<ShardPumpActor, 8> actors;

  explicit ShardPump(std::uint64_t fires_per_actor) {
    EXPECT_EQ(engine.threads_used(), 4u);
    ShardedSimulatorTestPeer::pin_parallel(engine);
    for (std::size_t s = 0; s < 8; ++s) {
      actors[s].eng = &engine;
      actors[s].shard = s;
      actors[s].shards = 8;
      actors[s].left = fires_per_actor;
      actors[s].sinks = sinks.data();
      ShardPumpActor* a = &actors[s];
      engine.shard(s).schedule_at(static_cast<SimTime>(1 + s),
                                  [a] { a->fire(); });
    }
  }
};

std::uint64_t sharded_run_allocs(std::uint64_t fires_per_actor) {
  const std::uint64_t before = g_allocations.load();
  ShardPump pump(fires_per_actor);
  ShardedSimulator& engine = pump.engine;
  engine.run();
  EXPECT_EQ(engine.mailbox_spills(), 0u)
      << "an outbox grew past its reserve; growth allocates and voids the "
         "comparison";
  EXPECT_GT(engine.messages(), 0u);
  EXPECT_GT(engine.parallel_rounds(), 0u);
  return g_allocations.load() - before;
}

TEST(SimulatorAllocation, ShardedEngineWindowsAreAllocationFreeOnceWarm) {
  // Per-engine costs (construction, scratch reservations, the worker pool
  // spawned by the first run, event-slab warm-up) are identical for
  // identical configs, so running 4x the windows must allocate exactly as
  // much as running 1x — anything per-window shows up as the difference.
  sharded_run_allocs(2000);  // warm process-wide pools and TLS once
  const std::uint64_t base = sharded_run_allocs(2000);
  const std::uint64_t scaled = sharded_run_allocs(8000);
  EXPECT_EQ(scaled, base)
      << "the parallel engine allocated per window in steady state";
}

TEST(SimulatorAllocation, ShardedSegmentsAreAllocationFreeOnceWarm) {
  // The repartitioner's epoch loop: one engine paused and resumed by
  // run_until(). The worker pool outlives every segment, so once warm,
  // k segments and 4k segments must allocate the same — a per-segment
  // cost (such as spawning the workers again) shows up as the difference.
  ShardPump pump(100000);
  ShardedSimulator& engine = pump.engine;
  SimTime bound = 0;
  const auto segments = [&](int k) {
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < k; ++i) {
      EXPECT_FALSE(engine.run_until(bound += 500));
    }
    return g_allocations.load() - before;
  };
  segments(50);  // warm: pool, slabs, TLS
  const std::uint64_t base = segments(25);
  const std::uint64_t scaled = segments(100);
  EXPECT_EQ(scaled, base)
      << "the parallel engine allocated per run_until() segment";
  EXPECT_EQ(engine.mailbox_spills(), 0u);
  EXPECT_GT(engine.parallel_rounds(), 0u);
}

// Sixteen pump actors per shard whose pace alternates with simulated time:
// a fire every ~25 ticks in the first quarter of each kPeriod-tick period,
// a fire every ~4000 ticks in the rest. The dense quarters retire hundreds
// of events per round and run in parallel stretches; the sparse rest
// retires a few per round, over enough rounds to outlast a maximal
// stretch, and runs solo. So each period switches the mode twice.
struct PhasePump {
  static constexpr SimTime kPeriod = 160000;
  struct Actor {
    ShardedSimulator* eng = nullptr;
    std::size_t shard = 0;
    std::uint64_t left = 0;
    std::uint64_t* sinks = nullptr;

    void fire() {
      Simulator& sim = eng->shard(shard);
      sinks[shard] += sim.now();
      if (left == 0) return;
      --left;
      if ((left & 3) == 0) {
        const std::size_t to = (shard + 1) % 8;
        std::uint64_t* s = &sinks[to];
        ShardedSimulator* e = eng;
        eng->post(shard, to, sim.now() + 200 + (left % 64),
                  [e, to, s] { *s += e->shard(to).now(); });
      }
      const bool dense = sim.now() % kPeriod < kPeriod / 4;
      sim.schedule_after(dense ? 10 + left % 30 : 3000 + left % 2000,
                         [this] { fire(); });
    }
  };

  ShardedSimulator engine{[] {
    ShardedConfig sc;
    sc.shards = 8;
    sc.lookahead = 200;
    sc.threads = 4;
    return sc;
  }()};
  std::array<std::uint64_t, 8> sinks{};
  std::vector<Actor> actors{8 * 16};

  PhasePump() {
    for (std::size_t i = 0; i < actors.size(); ++i) {
      Actor& a = actors[i];
      a.eng = &engine;
      a.shard = i % 8;
      a.left = ~std::uint64_t{0};
      a.sinks = sinks.data();
      engine.shard(a.shard).schedule_at(static_cast<SimTime>(1 + i % 16),
                                        [p = &a] { p->fire(); });
    }
  }
};

TEST(SimulatorAllocation, SoloStretchesAndModeSwitchesAreAllocationFree) {
  // One unpinned engine, paused once per period: every segment runs solo
  // and parallel stretches and switches between them twice. Once warm,
  // k periods and 4k periods must allocate the same — anything per stretch
  // or per switch shows up as the difference.
  PhasePump pump;
  ShardedSimulator& engine = pump.engine;
  SimTime bound = 0;
  const auto periods = [&](int k) {
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < k; ++i) {
      EXPECT_FALSE(engine.run_until(bound += PhasePump::kPeriod));
    }
    return g_allocations.load() - before;
  };
  periods(4);  // warm: pool, slabs, TLS
  const std::uint64_t rounds0 = engine.windows();
  const std::uint64_t parallel0 = engine.parallel_rounds();
  const std::uint64_t base = periods(2);
  const std::uint64_t scaled = periods(8);
  EXPECT_EQ(scaled, base)
      << "the engine allocated per stretch or per mode switch";
  const std::uint64_t parallel = engine.parallel_rounds() - parallel0;
  EXPECT_GT(parallel, 0u);
  EXPECT_LT(parallel, engine.windows() - rounds0);  // solo rounds ran too
  EXPECT_EQ(engine.mailbox_spills(), 0u);
}

// --- a served KV request ----------------------------------------------------

// Closed-loop KV traffic on ShardedRuntime + KvStore: kClients clients per
// origin node, each issuing its next request from inside the response
// handler (on the origin shard) until the phase's budget is spent. A
// request is the whole serving path: issue -> post to the owner -> queue ->
// dispatch -> apply (timed PGAS access) -> response back at the origin.
struct KvLoop {
  static constexpr std::size_t kNodes = 4;
  static constexpr std::size_t kClients = 4;

  std::unique_ptr<ShardedRuntime> rt;
  std::unique_ptr<serve::KvStore> kv;
  // Per origin, touched only by events on the origin's shard: requests
  // the phase may still issue, key stream state, issued count.
  std::array<std::uint64_t, kNodes> budgets{};
  std::array<std::uint64_t, kNodes> states{1, 2, 3, 4};
  std::array<std::uint64_t, kNodes> ids{};

  explicit KvLoop(std::size_t threads) {
    ShardedRuntimeConfig rc;
    rc.nodes = kNodes;
    rc.workers_per_node = 2;
    rc.threads = threads;
    rc.runtime.placement = PlacementPolicy::kAlwaysSoftware;
    rc.runtime.distribution = DistributionPolicy::kHomeOnly;
    rt = std::make_unique<ShardedRuntime>(rc);
    if (threads > 1) ShardedSimulatorTestPeer::pin_parallel(rt->engine());
    serve::KvConfig kc;
    kc.key_space = 4096;
    kc.service_items = 64;
    kv = std::make_unique<serve::KvStore>(*rt, kc);
    kv->set_response_handler(
        [this](std::size_t origin, const serve::KvResponse&) {
          issue(origin);
        });
  }

  void issue(std::size_t origin) {
    std::uint64_t& budget = budgets[origin];
    if (budget == 0) return;
    --budget;
    std::uint64_t& state = states[origin];
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t key = (state >> 33) % kv->config().key_space;
    const serve::KvOp op =
        (state >> 20) % 4 == 0 ? serve::KvOp::kSet : serve::KvOp::kGet;
    // Ids are unique per origin (origin in the low bits).
    const TaskId id = (ids[origin]++ * kNodes + origin) + 1;
    kv->issue(origin, op, key, state >> 40, id);
  }

  /// Serve `per_origin` requests from every origin node; returns the heap
  /// allocations made meanwhile.
  std::uint64_t phase(std::uint64_t per_origin) {
    const std::uint64_t before = g_allocations.load();
    // The clients start together at the simulated frontier, from events
    // on their origin shards: no request lands in a drained shard's past.
    const SimTime start = rt->engine().now();
    for (std::size_t o = 0; o < kNodes; ++o) {
      budgets[o] = per_origin;
      rt->shard(o).schedule_at(start, [this, o] {
        for (std::size_t c = 0; c < kClients; ++c) issue(o);
      });
    }
    rt->run();
    for (std::size_t o = 0; o < kNodes; ++o) EXPECT_EQ(budgets[o], 0u);
    return g_allocations.load() - before;
  }
};

void expect_warm_kv_requests_allocation_free(std::size_t threads) {
  KvLoop loop(threads);
  constexpr std::uint64_t kPerOrigin = 2500;
  loop.phase(kPerOrigin);  // warm: slabs, pools, calendars, caches, TLS
  const std::uint64_t allocs = loop.phase(kPerOrigin);
  const std::uint64_t requests = kPerOrigin * KvLoop::kNodes;
  EXPECT_GE(loop.rt->stats().tasks, requests);
  EXPECT_LT(static_cast<double>(allocs) / static_cast<double>(requests), 0.01)
      << allocs << " heap allocations over " << requests
      << " warm KV requests at " << threads << " threads";
  if (threads > 1) {
    EXPECT_GT(loop.rt->engine().parallel_rounds(), 0u);
  }
}

TEST(SimulatorAllocation, WarmKvRequestIsAllocationFreeAtOneThread) {
  expect_warm_kv_requests_allocation_free(1);
}

TEST(SimulatorAllocation, WarmKvRequestIsAllocationFreePinnedParallel) {
  expect_warm_kv_requests_allocation_free(4);
}

TEST(SimulatorAllocation, ColdStartAllocatesOnlyStorageGrowth) {
  // Sanity: the warm-up itself does allocate (vector growth, pool fill) —
  // this guards against the counters being dead.
  const std::uint64_t before = g_allocations.load();
  Simulator sim;
  std::uint64_t sink = 0;
  pump<InlinePayload>(sim, 1000, &sink);
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace ecoscale
