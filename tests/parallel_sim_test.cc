// Tests for the sharded parallel simulation engine (sim/parallel.h): the
// conservative post() contract, the error contract, the canonical window
// merge (including outbox bursts past the reserve), the round gate's
// parked path and the worker pool's lifecycle, and — the load-bearing
// property — byte-identical determinism across --sim-threads 1, 2 and 8,
// both for a raw engine workload and for a mixed UNIMEM+UNILOGIC workload
// on ShardedRuntime.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/units.h"
#include "hls/dse.h"
#include "hls/ir.h"
#include "interconnect/network.h"
#include "interconnect/topology.h"
#include "obs/trace.h"
#include "runtime/sharded.h"
#include "serve/kvstore.h"
#include "serve/loadgen.h"
#include "sharded_test_peer.h"
#include "sim/parallel.h"
#include "unimem/pgas.h"

namespace ecoscale {
namespace {

// FNV-1a over a stream of u64 words (the same recipe the kernel
// determinism lock in sim_test.cc uses).
struct TraceHasher {
  std::uint64_t h = kFnvSeed;
  void mix(std::uint64_t v) { h = fnv_mix(h, v); }
  void mix_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

// --- post() contract --------------------------------------------------------

TEST(ShardedSimulator, PostOutsideARunningActionIsRejected) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 10;
  ShardedSimulator engine(sc);
  EXPECT_THROW(engine.post(0, 1, 100, [] {}), CheckError);
}

TEST(ShardedSimulator, PostInsideTheLookaheadWindowIsRejected) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 100;
  ShardedSimulator engine(sc);
  engine.shard(0).schedule_at(50, [&engine] {
    engine.post(0, 1, engine.shard(0).now() + 99, [] {});  // < lookahead
  });
  EXPECT_THROW(engine.run(), CheckError);
}

TEST(ShardedSimulator, ActionExceptionPropagatesFromWorkerThreads) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 10;
  sc.threads = 4;
  ShardedSimulator engine(sc);
  ShardedSimulatorTestPeer::pin_parallel(engine);
  for (std::size_t s = 0; s < 4; ++s) {
    engine.shard(s).schedule_at(5, [] {});
  }
  engine.shard(3).schedule_at(7, [] {
    throw std::runtime_error("shard 3 exploded");
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
  EXPECT_GT(engine.parallel_rounds(), 0u);
}

// The documented error contract: when several shards throw in the same
// round, run() still returns on every thread and rethrows the lowest shard
// id's exception.
TEST(ShardedSimulator, LowestShardIdExceptionWinsAcrossThreads) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 10;
  sc.threads = 4;
  ShardedSimulator engine(sc);
  ShardedSimulatorTestPeer::pin_parallel(engine);
  for (std::size_t s = 0; s < 4; ++s) {
    engine.shard(s).schedule_at(5, [] {});
  }
  engine.shard(3).schedule_at(7, [] {
    throw std::runtime_error("shard 3 exploded");
  });
  engine.shard(1).schedule_at(7, [] {
    throw std::runtime_error("shard 1 exploded");
  });
  try {
    engine.run();
    FAIL() << "run() swallowed the shard exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 1 exploded");
  }
  EXPECT_GT(engine.parallel_rounds(), 0u);
}

// Only the run's error is rethrown, and every shard's error is cleared with
// it: shard 3's exception from the same failed run must not surface from
// the next, clean run() of the engine.
TEST(ShardedSimulator, FailedRunLeavesNoStaleShardError) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ShardedConfig sc;
    sc.shards = 4;
    sc.lookahead = 10;
    sc.threads = threads;
    ShardedSimulator engine(sc);
    if (threads > 1) ShardedSimulatorTestPeer::pin_parallel(engine);
    for (std::size_t s = 0; s < 4; ++s) {
      engine.shard(s).schedule_at(5, [] {});
    }
    engine.shard(3).schedule_at(7, [] {
      throw std::runtime_error("shard 3 exploded");
    });
    engine.shard(1).schedule_at(7, [] {
      throw std::runtime_error("shard 1 exploded");
    });
    try {
      engine.run();
      FAIL() << "run() swallowed the shard exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1 exploded") << threads << " threads";
    }
    bool ran = false;
    engine.shard(0).schedule_at(100, [&ran] { ran = true; });
    EXPECT_NO_THROW(engine.run()) << threads << " threads";
    EXPECT_TRUE(ran) << threads << " threads";
  }
}

// A second failed run on the same engine reports its own lowest error,
// not one left over from the first: shard 2's exception is rethrown even
// though shard 3 also failed the run before.
TEST(ShardedSimulator, EachFailedRunRethrowsItsOwnError) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ShardedConfig sc;
    sc.shards = 4;
    sc.lookahead = 10;
    sc.threads = threads;
    ShardedSimulator engine(sc);
    if (threads > 1) ShardedSimulatorTestPeer::pin_parallel(engine);
    for (std::size_t s = 0; s < 4; ++s) {
      engine.shard(s).schedule_at(5, [] {});
    }
    engine.shard(3).schedule_at(7, [] {
      throw std::runtime_error("shard 3 exploded");
    });
    engine.shard(1).schedule_at(7, [] {
      throw std::runtime_error("shard 1 exploded");
    });
    EXPECT_THROW(engine.run(), std::runtime_error) << threads << " threads";
    for (std::size_t s = 0; s < 4; ++s) {
      engine.shard(s).schedule_at(100, [] {});
    }
    engine.shard(2).schedule_at(102, [] {
      throw std::runtime_error("shard 2 exploded");
    });
    try {
      engine.run();
      FAIL() << "run() swallowed shard 2's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 2 exploded") << threads << " threads";
    }
    EXPECT_NO_THROW(engine.run()) << threads << " threads";
  }
}

// A post that lands in its destination's past (possible across a run()
// seam, where shard clocks have drifted apart) fails in the exchange, not
// in a window. It must end the run like a throwing action: run() rethrows
// at one thread and at four, whichever thread owns the destination, and no
// thread is left waiting at the gate.
TEST(ShardedSimulator, PostIntoTheDestinationsPastFailsTheRun) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t dst : {std::size_t{0}, std::size_t{3}}) {
      ShardedConfig sc;
      sc.shards = 4;
      sc.lookahead = 10;
      sc.threads = threads;
      ShardedSimulator engine(sc);
      ShardedSimulatorTestPeer::pin_parallel(engine);
      engine.shard(dst).schedule_at(10000, [] {});
      engine.shard(1).schedule_at(10, [] {});
      engine.run();  // shard dst's clock ends far ahead of shard 1's
      engine.shard(1).schedule_at(20, [&engine, dst] {
        engine.post(1, dst, engine.shard(1).now() + 10, [] {});
      });
      EXPECT_THROW(engine.run(), CheckError)
          << threads << " threads, destination " << dst;
      if (threads > 1) {
        EXPECT_GT(engine.parallel_rounds(), 0u);
      }
    }
  }
}

// The same failure in a solo stretch: left to its stretch policy, a
// four-thread engine runs this sparse workload on the calling thread, and
// the exchange there must fail the run the same way.
TEST(ShardedSimulator, PostIntoTheDestinationsPastFailsASoloStretch) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 10;
  sc.threads = 4;
  ShardedSimulator engine(sc);
  engine.shard(3).schedule_at(10000, [] {});
  engine.shard(1).schedule_at(10, [] {});
  engine.run();
  engine.shard(1).schedule_at(20, [&engine] {
    engine.post(1, 3, engine.shard(1).now() + 10, [] {});
  });
  EXPECT_THROW(engine.run(), CheckError);
  EXPECT_EQ(engine.parallel_rounds(), 0u);
}

// --- canonical merge order --------------------------------------------------

// One delivery as the destination saw it: its clock, the posting shard and
// that shard's post index.
struct Delivery {
  SimTime time;
  std::size_t src;
  std::size_t index;
  bool operator==(const Delivery& o) const {
    return time == o.time && src == o.src && index == o.index;
  }
};

// Seven shards each post 300 messages to shard 0, all for the same
// delivery time, in one round. Equal-time events run in insertion order, so
// shard 0 must see them by source shard, then post order — whichever thread
// ran each source. 2100 posts also overrun an outbox reserve at 1 thread.
TEST(ShardedSimulator, SameTimeMessagesDeliverBySourceThenPostOrder) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kPerSource = 300;
  constexpr SimTime kDeliver = 500;
  std::vector<Delivery> expected;
  for (std::size_t s = 1; s < kShards; ++s) {
    for (std::size_t i = 0; i < kPerSource; ++i) {
      expected.push_back(Delivery{kDeliver, s, i});
    }
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    ShardedConfig sc;
    sc.shards = kShards;
    sc.lookahead = 100;
    sc.threads = threads;
    ShardedSimulator engine(sc);
    ShardedSimulatorTestPeer::pin_parallel(engine);
    std::vector<Delivery> got;
    ShardedSimulator* e = &engine;
    std::vector<Delivery>* sink = &got;
    for (std::size_t s = 1; s < kShards; ++s) {
      engine.shard(s).schedule_at(10, [e, sink, s] {
        for (std::size_t i = 0; i < kPerSource; ++i) {
          e->post(s, 0, kDeliver, [e, sink, s, i] {
            sink->push_back(Delivery{e->shard(0).now(), s, i});
          });
        }
      });
    }
    engine.run();
    EXPECT_EQ(engine.messages(), expected.size());
    EXPECT_TRUE(got == expected);
    if (threads == 1) {
      EXPECT_GT(engine.mailbox_spills(), 0u);
    } else {
      EXPECT_GT(engine.parallel_rounds(), 0u);
    }
  }
}

// Every shard posts to its three peers with interleaved destinations and
// out-of-order delivery times, so each outbox holds many (src, dst) pairs
// unsorted. Every destination must receive exactly its own messages, at
// their delivery times, ordered by (time, source shard, post order).
TEST(ShardedSimulator, InterleavedPairsDeliverInTimeSourceSeqOrder) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kPosts = 40;
  auto dest_of = [](std::size_t s, std::size_t i) {
    return (s + 1 + i % (kShards - 1)) % kShards;
  };
  auto time_of = [](std::size_t s, std::size_t i) {
    return static_cast<SimTime>(200 + ((kPosts - i) * 3 + s) % 5 * 10);
  };
  std::vector<std::vector<Delivery>> expected(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t i = 0; i < kPosts; ++i) {
      expected[dest_of(s, i)].push_back(Delivery{time_of(s, i), s, i});
    }
  }
  for (auto& list : expected) {
    std::sort(list.begin(), list.end(),
              [](const Delivery& a, const Delivery& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.src != b.src) return a.src < b.src;
                return a.index < b.index;
              });
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    ShardedConfig sc;
    sc.shards = kShards;
    sc.lookahead = 100;
    sc.threads = threads;
    ShardedSimulator engine(sc);
    ShardedSimulatorTestPeer::pin_parallel(engine);
    // Each list is written only by its own destination shard's actions.
    std::vector<std::vector<Delivery>> got(kShards);
    ShardedSimulator* e = &engine;
    std::vector<Delivery>* sinks = got.data();
    for (std::size_t s = 0; s < kShards; ++s) {
      engine.shard(s).schedule_at(10, [e, sinks, dest_of, time_of, s] {
        for (std::size_t i = 0; i < kPosts; ++i) {
          const std::size_t to = dest_of(s, i);
          e->post(s, to, time_of(s, i), [e, sinks, to, s, i] {
            sinks[to].push_back(Delivery{e->shard(to).now(), s, i});
          });
        }
      });
    }
    engine.run();
    EXPECT_EQ(engine.messages(), kShards * kPosts);
    for (std::size_t d = 0; d < kShards; ++d) {
      EXPECT_TRUE(got[d] == expected[d]) << "destination " << d;
    }
    if (threads > 1) {
      EXPECT_GT(engine.parallel_rounds(), 0u);
    }
  }
}

// --- deterministic cross-shard workload -------------------------------------

// Per-shard actor mesh: every shard runs self-rescheduling actors that mix
// their execution order into the shard's own hash; a deterministic fraction
// of fires post a message to another shard, which mixes into the
// *destination's* hash when it executes there. All mutable state is
// per-shard, so any hash difference across thread counts is an engine
// ordering bug.
struct MeshActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shard = 0;
  std::size_t shards = 0;
  TraceHasher* hashes = nullptr;  // one per shard, indexed by shard id
  std::uint64_t remaining = 0;
  Rng rng{0};
  // Between these times the actor fires every ~3000 ticks, not every ~50.
  SimTime sparse_begin = 0;
  SimTime sparse_end = 0;

  void fire() {
    Simulator& sim = eng->shard(shard);
    TraceHasher& hash = hashes[shard];
    hash.mix(sim.now());
    hash.mix(remaining);
    if (remaining == 0) return;
    --remaining;
    if (rng.uniform_u64(4) == 0 && shards > 1) {
      const std::size_t to =
          (shard + 1 + rng.uniform_u64(shards - 1)) % shards;
      const SimTime t =
          sim.now() + eng->lookahead() + rng.uniform_u64(300);
      ShardedSimulator* e = eng;
      TraceHasher* dest = &hashes[to];
      const std::uint64_t payload = rng.uniform_u64(1u << 30);
      const std::size_t from = shard;
      eng->post(shard, to, t, [e, to, dest, payload, from] {
        dest->mix(e->shard(to).now());
        dest->mix(payload);
        dest->mix(from);
      });
    }
    const bool sparse = sim.now() >= sparse_begin && sim.now() < sparse_end;
    sim.schedule_after(sparse ? 2000 + rng.uniform_u64(2000)
                              : 1 + rng.uniform_u64(97),
                       [this] { fire(); });
  }
};

// Four MeshActors per shard, each running `fires_per_actor` fires from its
// own seed. The actors must outlive the engine's run.
std::vector<std::unique_ptr<MeshActor>> seed_mesh(
    ShardedSimulator& engine, std::vector<TraceHasher>& hashes,
    std::uint64_t fires_per_actor) {
  const std::size_t shards = engine.shard_count();
  std::vector<std::unique_ptr<MeshActor>> actors;
  for (std::size_t s = 0; s < shards; ++s) {
    for (int a = 0; a < 4; ++a) {
      actors.push_back(std::make_unique<MeshActor>());
      MeshActor& actor = *actors.back();
      actor.eng = &engine;
      actor.shard = s;
      actor.shards = shards;
      actor.hashes = hashes.data();
      actor.remaining = fires_per_actor;
      actor.rng = Rng(0xBEEF + s * 16 + a);
      engine.shard(s).schedule_at(1 + a, [&actor] { actor.fire(); });
    }
  }
  return actors;
}

// The per-shard hashes folded with the engine's deterministic counters.
std::uint64_t mesh_fingerprint(const ShardedSimulator& engine,
                               const std::vector<TraceHasher>& hashes) {
  TraceHasher combined;
  for (const TraceHasher& h : hashes) combined.mix(h.h);
  combined.mix(engine.events_processed());
  combined.mix(engine.messages());
  combined.mix(engine.windows());
  EXPECT_GT(engine.messages(), 0u);
  return combined.h;
}

std::uint64_t mesh_workload_hash(std::size_t shards, std::size_t threads,
                                 std::uint64_t fires_per_actor,
                                 std::size_t burst = 0,
                                 std::uint64_t* spills_out = nullptr) {
  ShardedConfig sc;
  sc.shards = shards;
  sc.lookahead = 200;
  sc.threads = threads;
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(shards);
  const auto actors = seed_mesh(engine, hashes, fires_per_actor);
  if (burst > 0) {
    // One event on shard 0 posts `burst` messages in a single window,
    // spread over every other shard with colliding delivery times.
    ShardedSimulator* e = &engine;
    TraceHasher* hs = hashes.data();
    engine.shard(0).schedule_at(150, [e, hs, shards, burst] {
      const SimTime now = e->shard(0).now();
      for (std::size_t i = 0; i < burst; ++i) {
        const std::size_t to = 1 + i % (shards - 1);
        TraceHasher* dest = &hs[to];
        e->post(0, to, now + e->lookahead() + i % 7, [e, to, dest, i] {
          dest->mix(e->shard(to).now());
          dest->mix(i);
        });
      }
    });
  }
  engine.run();
  if (spills_out != nullptr) *spills_out = engine.mailbox_spills();
  return mesh_fingerprint(engine, hashes);
}

TEST(ShardedSimulator, ByteIdenticalAcrossSimThreads1_2_8) {
  const std::uint64_t h1 = mesh_workload_hash(8, 1, 400);
  const std::uint64_t h2 = mesh_workload_hash(8, 2, 400);
  const std::uint64_t h8 = mesh_workload_hash(8, 8, 400);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, h8);
}

// Outbox burst: one event posts more messages than an outbox reserves, so
// the posting thread's outbox grows mid-window; the burst must still merge
// canonically. Spill *counts* are a wall-clock-side metric that varies with
// how many shards share an outbox (i.e. with the thread count), so only the
// hashes must match.
TEST(ShardedSimulator, MailboxWraparoundAtWindowBoundariesIsDeterministic) {
  const std::size_t burst = ShardedSimulator::kOutboxReserve + 476;
  std::uint64_t spills1 = 0;
  std::uint64_t spills4 = 0;
  const std::uint64_t h1 = mesh_workload_hash(4, 1, 800, burst, &spills1);
  const std::uint64_t h4 = mesh_workload_hash(4, 4, 800, burst, &spills4);
  EXPECT_EQ(h1, h4);
  EXPECT_GT(spills1, 0u);
  EXPECT_GT(spills4, 0u);
}

TEST(ShardedSimulator, ThreadsClampedToShardCount) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 10;
  sc.threads = 16;
  ShardedSimulator engine(sc);
  EXPECT_EQ(engine.threads_used(), 2u);
}

// --- per-pair post contract -------------------------------------------------

TEST(ShardedSimulator, PerPairContractUsesTheOracle) {
  ShardedConfig sc;
  sc.shards = 3;
  sc.lookahead = 10;
  // A metric: 50 on the (0,1) edge, 300 elsewhere. Triangle inequality
  // holds (300 <= 50 + 300), which the engine spot-checks at construction.
  sc.pair_lookahead = [](std::size_t from, std::size_t to) -> SimDuration {
    return (from == 0 && to == 1) ? 50 : 300;
  };
  ShardedSimulator engine(sc);
  EXPECT_EQ(engine.pair_lookahead(0, 1), 50);
  EXPECT_EQ(engine.pair_lookahead(1, 0), 300);
  EXPECT_EQ(engine.pair_lookahead(0, 2), 300);
  // A post riding the cheap pair is legal right at its bound...
  engine.shard(0).schedule_at(5, [&engine] {
    engine.post(0, 1, engine.shard(0).now() + 50, [] {});
  });
  engine.run();
  EXPECT_EQ(engine.messages(), 1u);
  // ...but the same delay toward an expensive pair is a contract breach.
  ShardedSimulator strict(sc);
  strict.shard(0).schedule_at(5, [&strict] {
    strict.post(0, 2, strict.shard(0).now() + 299, [] {});
  });
  EXPECT_THROW(strict.run(), CheckError);
}

TEST(ShardedSimulator, TriangleInequalityViolationIsRejected) {
  ShardedConfig sc;
  sc.shards = 3;
  sc.lookahead = 10;
  // 0->2 direct (500) costs more than relaying via 1 (10 + 10): a relayed
  // event could outrun the direct bound, so construction must refuse.
  sc.pair_lookahead = [](std::size_t from, std::size_t to) -> SimDuration {
    return (from == 0 && to == 2) ? 500 : 10;
  };
  EXPECT_THROW(ShardedSimulator{sc}, CheckError);
}

TEST(ShardedSimulator, OffStrideTriangleViolationIsCaughtBySampling) {
  // 48 shards put the strided triangle check on stride 2 — even indices
  // only — so a violation confined to odd shards slips through it.
  // Odd->odd pairs cost 500 with 10-cost relays through any even shard: a
  // gross metric violation living entirely off the stride grid, which the
  // seeded random triple sweep must still catch.
  ShardedConfig sc;
  sc.shards = 48;
  sc.lookahead = 10;
  sc.pair_lookahead = [](std::size_t from, std::size_t to) -> SimDuration {
    return (from % 2 == 1 && to % 2 == 1) ? 500 : 10;
  };
  EXPECT_THROW(ShardedSimulator{sc}, CheckError);
}

TEST(ShardedSimulator, OverstatedSourceFloorIsRejected) {
  // Above the dense pair cap the horizons trust the per-source floors, so
  // a floor that exceeds a real pair latency must fail at construction
  // instead of silently over-advancing shards. Below it (8 shards through
  // the public constructor) the floors come from the dense matrix and
  // source_floor is never read.
  ShardedConfig sc;
  sc.shards = 8;
  sc.lookahead = 10;
  sc.pair_lookahead = [](std::size_t, std::size_t) -> SimDuration {
    return 100;
  };
  sc.source_floor = [](std::size_t) -> SimDuration { return 150; };
  static_assert(ShardedSimulator::kDensePairCap >= 8);
  const ShardedSimulator dense(sc);
  EXPECT_TRUE(ShardedSimulatorTestPeer::has_pair_matrix(dense));
  EXPECT_THROW(ShardedSimulatorTestPeer::with_dense_pair_cap(sc, 4),
               CheckError);
  // An honest floor (== the uniform pair latency) constructs fine.
  sc.source_floor = [](std::size_t) -> SimDuration { return 100; };
  const ShardedSimulator collapsed =
      ShardedSimulatorTestPeer::with_dense_pair_cap(sc, 4);
  EXPECT_FALSE(ShardedSimulatorTestPeer::has_pair_matrix(collapsed));
}

// kDensePairCap keeps the boundary the config default used to set: the
// pair oracle is materialized as a dense matrix up to 512 shards and
// collapses to per-source floors from 513.
TEST(ShardedSimulator, PairMatrixStaysDenseUpTo512Shards) {
  static_assert(ShardedSimulator::kDensePairCap == 512);
  ShardedConfig sc;
  sc.lookahead = 10;
  sc.pair_lookahead = [](std::size_t, std::size_t) -> SimDuration {
    return 100;
  };
  sc.shards = 512;
  EXPECT_TRUE(
      ShardedSimulatorTestPeer::has_pair_matrix(ShardedSimulator(sc)));
  sc.shards = 513;
  EXPECT_FALSE(
      ShardedSimulatorTestPeer::has_pair_matrix(ShardedSimulator(sc)));
}

// The collapsed per-source-floor horizons are a conservative stand-in for
// the dense matrix, so the same workload must execute identically on
// either path, at one thread and at four. Window counts may differ (the
// horizons do); the per-shard traces and counters may not.
TEST(ShardedSimulator, CollapsedFloorsRunTheDenseMatrixWorkloadIdentically) {
  const auto run = [](std::size_t dense_pair_cap, std::size_t threads) {
    ShardedConfig sc;
    sc.shards = 8;
    sc.lookahead = 200;
    sc.threads = threads;
    sc.pair_lookahead = [](std::size_t, std::size_t) -> SimDuration {
      return 200;
    };
    sc.source_floor = [](std::size_t) -> SimDuration { return 200; };
    ShardedSimulator engine =
        ShardedSimulatorTestPeer::with_dense_pair_cap(sc, dense_pair_cap);
    EXPECT_EQ(ShardedSimulatorTestPeer::has_pair_matrix(engine),
              dense_pair_cap >= sc.shards);
    ShardedSimulatorTestPeer::pin_parallel(engine);
    std::vector<TraceHasher> hashes(sc.shards);
    const auto actors = seed_mesh(engine, hashes, 300);
    engine.run();
    if (threads > 1) {
      EXPECT_GT(engine.parallel_rounds(), 0u);
    }
    TraceHasher combined;
    for (const TraceHasher& h : hashes) combined.mix(h.h);
    combined.mix(engine.events_processed());
    combined.mix(engine.messages());
    return combined.h;
  };
  const std::uint64_t dense = run(ShardedSimulator::kDensePairCap, 1);
  EXPECT_EQ(run(2, 1), dense);
  EXPECT_EQ(run(2, 4), dense);
  EXPECT_EQ(run(ShardedSimulator::kDensePairCap, 4), dense);
}

// --- self-chain echo: ping-pong back to the global-min shard ----------------

// Regression for the adaptive-horizon self-chain hole: shard 0 holds the
// global floor with dense local work far beyond the echo time, shard 1 is
// idle and shard 2's only event is distant, so the round-start peer bound
// leaves shard 0's first window nearly unbounded. Shard 0 pings shard 1,
// which pongs straight back at the pair bound. Without the post-time echo
// cap shard 0 runs its local work past the pong's delivery time in round
// 1 and the merge two rounds later schedules an event in its past.
void ping_pong_echo_run(
    const std::function<void(ShardedConfig&)>& tweak, SimDuration hop,
    std::size_t dense_pair_cap = ShardedSimulator::kDensePairCap) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedConfig sc;
    sc.shards = 3;
    sc.lookahead = 100;
    sc.threads = threads;
    tweak(sc);
    ShardedSimulator engine =
        ShardedSimulatorTestPeer::with_dense_pair_cap(sc, dense_pair_cap);
    ShardedSimulatorTestPeer::pin_parallel(engine);
    for (SimTime t = 10; t <= 5000; t += 10) {
      engine.shard(0).schedule_at(t, [] {});
    }
    engine.shard(2).schedule_at(1000000, [] {});  // distant, not idle
    SimTime pong_at = 0;
    engine.shard(0).schedule_at(10, [&engine, &pong_at, hop] {
      engine.post(0, 1, engine.shard(0).now() + hop,
                  [&engine, &pong_at, hop] {
                    engine.post(1, 0, engine.shard(1).now() + hop,
                                [&engine, &pong_at] {
                                  pong_at = engine.shard(0).now();
                                });
                  });
    });
    engine.run();
    EXPECT_EQ(pong_at, 10 + 2 * hop);
    if (threads > 1) {
      EXPECT_GT(engine.parallel_rounds(), 0u);
    }
  }
}

TEST(ShardedSimulator, EchoToGlobalMinShardUniformLookahead) {
  ping_pong_echo_run([](ShardedConfig&) {}, 100);
}

TEST(ShardedSimulator, EchoToGlobalMinShardDensePairOracle) {
  ping_pong_echo_run(
      [](ShardedConfig& sc) {
        sc.lookahead = 10;
        sc.pair_lookahead = [](std::size_t, std::size_t) -> SimDuration {
          return 100;
        };
      },
      100);
}

TEST(ShardedSimulator, EchoToGlobalMinShardCollapsedFloors) {
  ping_pong_echo_run(
      [](ShardedConfig& sc) {
        sc.lookahead = 10;
        sc.pair_lookahead = [](std::size_t, std::size_t) -> SimDuration {
          return 100;
        };
        sc.source_floor = [](std::size_t) -> SimDuration { return 100; };
      },
      100, /*dense_pair_cap=*/2);  // the collapsed per-source-floor path
}

// --- imbalanced topology: one hot shard, many cold burst shards -------------

// A global window's worst case: shard 0 fires continuously (it holds the
// global floor), while shards 1..N-1 wake only in short synchronized
// bursts once per period and sit idle in between. One global window would
// march the whole machine forward one lookahead at a time, so the cold
// shards would stall at (period / lookahead) barriers per period;
// per-shard horizons let the hot shard cross an entire quiet gap in one
// window.
struct HotActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shards = 0;
  TraceHasher* hash = nullptr;
  SimTime stop_at = 0;
  Rng rng{0};

  void fire() {
    Simulator& sim = eng->shard(0);
    hash->mix(sim.now());
    if (sim.now() >= stop_at) return;
    if (rng.uniform_u64(256) == 0 && shards > 1) {
      const std::size_t to = 1 + rng.uniform_u64(shards - 1);
      ShardedSimulator* e = eng;
      eng->post(0, to, sim.now() + 200 + rng.uniform_u64(100),
                [e, to] { /* wake the cold shard mid-gap */
                          (void)e->shard(to).now(); });
    }
    sim.schedule_after(1 + rng.uniform_u64(13), [this] { fire(); });
  }
};

struct ColdActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shard = 0;
  std::size_t shards = 0;
  TraceHasher* hashes = nullptr;
  SimTime period = 0;
  std::uint64_t burst = 0;
  std::uint64_t burst_left = 0;
  int epochs_left = 0;
  SimTime next_burst = 0;
  Rng rng{0};

  void fire() {
    Simulator& sim = eng->shard(shard);
    hashes[shard].mix(sim.now());
    if (burst_left > 0) {
      --burst_left;
      sim.schedule_after(1 + rng.uniform_u64(5), [this] { fire(); });
      return;
    }
    // Burst over: hand one message to the next cold shard, then sleep
    // until the next period boundary.
    const std::size_t to = 1 + (shard % (shards - 1));
    TraceHasher* dest = &hashes[to];
    ShardedSimulator* e = eng;
    eng->post(shard, to, sim.now() + 200 + rng.uniform_u64(50),
              [e, to, dest] { dest->mix(e->shard(to).now()); });
    if (--epochs_left <= 0) return;
    next_burst += period;
    burst_left = burst;
    sim.schedule_at(next_burst, [this] { fire(); });
  }
};

struct ImbalancedResult {
  std::uint64_t hash = 0;
  std::uint64_t windows = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t stalled = 0;
  std::uint64_t steals = 0;
};

using PairOracle = std::function<SimDuration(std::size_t, std::size_t)>;

ImbalancedResult imbalanced_run(std::size_t threads,
                                PairOracle pair_lookahead = {}) {
  constexpr std::size_t kShards = 64;  // shards >> threads: claim queues
  constexpr SimTime kPeriod = 20000;
  constexpr int kEpochs = 6;
  ShardedConfig sc;
  sc.shards = kShards;
  sc.lookahead = 200;
  sc.threads = threads;
  sc.pair_lookahead = std::move(pair_lookahead);
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(kShards);
  HotActor hot;
  hot.eng = &engine;
  hot.shards = kShards;
  hot.hash = &hashes[0];
  hot.stop_at = kPeriod * kEpochs;
  hot.rng = Rng(0x4077);
  engine.shard(0).schedule_at(1, [&hot] { hot.fire(); });
  std::vector<std::unique_ptr<ColdActor>> colds;
  for (std::size_t s = 1; s < kShards; ++s) {
    colds.push_back(std::make_unique<ColdActor>());
    ColdActor& c = *colds.back();
    c.eng = &engine;
    c.shard = s;
    c.shards = kShards;
    c.hashes = hashes.data();
    c.period = kPeriod;
    c.burst = 8;
    c.burst_left = 8;
    c.epochs_left = kEpochs;
    c.next_burst = static_cast<SimTime>(100 + s * 3);
    c.rng = Rng(0xC01D + s);
    engine.shard(s).schedule_at(c.next_burst, [&c] { c.fire(); });
  }
  engine.run();
  ImbalancedResult r;
  TraceHasher combined;
  for (const TraceHasher& h : hashes) combined.mix(h.h);
  combined.mix(engine.events_processed());
  combined.mix(engine.messages());
  combined.mix(engine.windows());
  combined.mix(engine.shard_windows());
  combined.mix(engine.stalled_shard_windows());  // deterministic too
  r.hash = combined.h;
  r.windows = engine.windows();
  r.shard_windows = engine.shard_windows();
  r.stalled = engine.stalled_shard_windows();
  r.steals = engine.steals();
  return r;
}

TEST(ShardedSimulator, ImbalancedTopologyByteIdenticalAcross1_2_8Threads) {
  const ImbalancedResult r1 = imbalanced_run(1);
  const ImbalancedResult r2 = imbalanced_run(2);
  const ImbalancedResult r8 = imbalanced_run(8);
  EXPECT_EQ(r1.hash, r2.hash);
  EXPECT_EQ(r1.hash, r8.hash);
  // Single-threaded runs have nothing to steal from.
  EXPECT_EQ(r1.steals, 0u);
}

TEST(ShardedSimulator, AdaptiveHorizonsCrossQuietGapsInOneWindow) {
  const ImbalancedResult r = imbalanced_run(1);
  // A global window of one lookahead pays ~period/lookahead barriers per
  // quiet gap: 590 rounds and 30211 stalled shard windows on this
  // scenario. Per-shard horizons cross each gap in one round (measured:
  // 131 rounds, 5961 stalls); the ceilings are a quarter of the global
  // counts.
  EXPECT_LE(r.windows, 590u / 4);
  // The starvation regression proper: cold shards no longer spin at
  // barriers with empty horizons while the hot shard inches forward.
  EXPECT_LE(r.stalled, 30211u / 4);
}

// --- lookahead queries ------------------------------------------------------

TEST(Network, MinCrossLatencyOnATwoLevelTree) {
  NetworkConfig nc;
  LinkParams l0;
  l0.hop_latency = nanoseconds(20);
  LinkParams l1;
  l1.hop_latency = nanoseconds(150);
  nc.level_params = {{0, l0}, {1, l1}};
  Network net(make_tree({2, 2}), nc);
  // Same-switch pair: up + down over two level-0 links.
  EXPECT_EQ(net.min_cross_latency(0), nanoseconds(40));
  // Crossing the level-1 tier costs two level-0 and two level-1 hops.
  EXPECT_EQ(net.min_cross_latency(1), nanoseconds(340));
  // Nothing crosses a level that does not exist.
  EXPECT_EQ(net.min_cross_latency(2), 0);
  EXPECT_EQ(net.route_latency(0, 1), nanoseconds(40));
  EXPECT_EQ(net.route_latency(0, 2), nanoseconds(340));
}

TEST(Network, MinLatencyFromIsThePerSourceFloor) {
  NetworkConfig nc;
  LinkParams l0;
  l0.hop_latency = nanoseconds(20);
  LinkParams l1;
  l1.hop_latency = nanoseconds(150);
  nc.level_params = {{0, l0}, {1, l1}};
  // Two switches of two endpoints each: {0,1} under one, {2,3} under the
  // other, switches joined by level-1 links.
  Network net(make_tree({2, 2}), nc);
  for (std::size_t e = 0; e < net.endpoint_count(); ++e) {
    // Nearest peer of any endpoint is its same-switch sibling...
    EXPECT_EQ(net.min_latency_from(e, 0), nanoseconds(40));
    // ...while the nearest *cross-tier* peer sits behind two l1 hops.
    EXPECT_EQ(net.min_latency_from(e, 1), nanoseconds(340));
    // No route from anywhere crosses a level that does not exist.
    EXPECT_EQ(net.min_latency_from(e, 2), 0);
  }
  // The global min_cross_latency is the min over per-source floors.
  EXPECT_EQ(net.min_cross_latency(1), nanoseconds(340));
}

TEST(Network, MinLatencyFromOnALopsidedTree) {
  NetworkConfig nc;
  LinkParams l0;
  l0.hop_latency = nanoseconds(10);
  LinkParams l1;
  l1.hop_latency = nanoseconds(100);
  nc.level_params = {{0, l0}, {1, l1}};
  // Three switches of 3 endpoints: every endpoint's cheapest peer is
  // intra-switch (20), and the per-source cross floor (220) is the same
  // from every source by symmetry — but must be derived per endpoint by
  // the climb, not read off the global min.
  Network net(make_tree({3, 3}), nc);
  for (std::size_t e = 0; e < 9; ++e) {
    EXPECT_EQ(net.min_latency_from(e, 0), nanoseconds(20));
    EXPECT_EQ(net.min_latency_from(e, 1), nanoseconds(220));
  }
}

TEST(PgasSystem, PerPeerShardLookaheadMatchesTheRouteOracle) {
  PgasConfig pc;
  pc.nodes = 4;
  pc.workers_per_node = 2;
  PgasSystem pgas(pc);
  for (std::size_t from = 0; from < 4; ++from) {
    // The per-source floor out of any node is the cheapest of its
    // per-peer latencies — the exact relation the adaptive engine's
    // collapsed-horizon fallback relies on.
    SimDuration cheapest = 0;
    for (std::size_t to = 0; to < 4; ++to) {
      if (from == to) continue;
      const SimDuration pair = pgas.shard_lookahead(from, to);
      // Per-peer bounds can never undercut the global cross-node floor.
      EXPECT_GE(pair, pgas.shard_lookahead());
      if (cheapest == 0 || pair < cheapest) cheapest = pair;
    }
    EXPECT_EQ(pgas.shard_lookahead_floor(from), cheapest);
  }
}

TEST(PgasSystem, ShardLookaheadMatchesInterNodeTier) {
  PgasConfig pc;
  pc.nodes = 4;
  pc.workers_per_node = 2;
  PgasSystem pgas(pc);
  const SimDuration la = pgas.shard_lookahead();
  EXPECT_GT(la, 0);
  // A cross-node route pays at least one l1 hop on top of intra-node hops.
  EXPECT_GE(la, pc.l1_link.hop_latency);
  // And it is a true lower bound on the network's cross-tier latency.
  EXPECT_EQ(la, pgas.network().min_cross_latency(1));
}

TEST(PgasSystem, SingleNodeMachineHasNoCrossTraffic) {
  PgasConfig pc;
  pc.nodes = 1;
  pc.workers_per_node = 4;
  PgasSystem pgas(pc);
  EXPECT_EQ(pgas.shard_lookahead(), 0);
}

// --- mixed UNIMEM+UNILOGIC workload on ShardedRuntime -----------------------

// Per-node epoch generator: every epoch it issues node-local UNIMEM
// traffic, submits local tasks (software + fabric via the UNILOGIC pool),
// and forwards one task to another node through the engine mailboxes.
struct NodeGenerator {
  ShardedRuntime* rt = nullptr;
  std::size_t node = 0;
  std::size_t nodes = 0;
  std::size_t workers = 0;
  int epochs_left = 0;
  TaskId next_id = 0;
  Rng rng{0};
  GlobalAddress buf{};
  TraceHasher* hash = nullptr;
  const std::vector<KernelIR>* kernels = nullptr;

  Task make_task(SimTime release) {
    Task t;
    t.id = next_id++;
    const KernelIR& k = (*kernels)[rng.uniform_u64(kernels->size())];
    t.kernel = k.id;
    t.items = 2000 + rng.uniform_u64(8000);
    t.features.items = static_cast<double>(t.items);
    t.features.bytes =
        static_cast<double>(t.items * (k.bytes_in + k.bytes_out));
    t.home = WorkerCoord{0, static_cast<WorkerId>(rng.uniform_u64(workers))};
    t.release = release;
    return t;
  }

  void fire() {
    Simulator& sim = rt->shard(node);
    PgasSystem& pgas = rt->machine(node).pgas();
    // Node-local UNIMEM traffic (stays inside the shard's domain).
    const auto who =
        WorkerCoord{0, static_cast<WorkerId>(rng.uniform_u64(workers))};
    const auto ld = pgas.load(who, buf, 256, sim.now());
    const auto st = pgas.store(who, buf, 128, ld.finish);
    hash->mix(ld.finish);
    hash->mix(st.finish);
    // Local work for this node's scheduler / UNILOGIC pool.
    for (int i = 0; i < 2; ++i) rt->submit(node, make_task(sim.now()));
    // One cross-node forward through the engine outboxes.
    if (nodes > 1) {
      const std::size_t to = (node + 1 + rng.uniform_u64(nodes - 1)) % nodes;
      rt->post_task(node, to, make_task(0));
    }
    if (--epochs_left > 0) {
      sim.schedule_after(microseconds(30), [this] { fire(); });
    }
  }
};

std::uint64_t sharded_runtime_hash(std::size_t threads,
                                   ShardedRuntime::Stats* stats_out = nullptr,
                                   std::uint64_t* parallel_rounds = nullptr) {
  ShardedRuntimeConfig cfg;
  cfg.nodes = 8;
  cfg.workers_per_node = 2;
  cfg.threads = threads;
  cfg.runtime.placement = PlacementPolicy::kModelBased;
  cfg.runtime.share_fabric = true;
  cfg.runtime.distribution = DistributionPolicy::kLazyLocal;
  ShardedRuntime rt(cfg);
  ShardedSimulatorTestPeer::pin_parallel(rt.engine());
  const std::vector<KernelIR> kernels = {make_stencil5_kernel(),
                                         make_spmv_kernel()};
  for (const auto& k : kernels) rt.register_kernel(k, emit_variants(k, 2));

  std::vector<TraceHasher> hashes(cfg.nodes);
  std::vector<std::unique_ptr<NodeGenerator>> gens;
  for (std::size_t node = 0; node < cfg.nodes; ++node) {
    gens.push_back(std::make_unique<NodeGenerator>());
    NodeGenerator& g = *gens.back();
    g.rt = &rt;
    g.node = node;
    g.nodes = cfg.nodes;
    g.workers = cfg.workers_per_node;
    g.epochs_left = 6;
    g.next_id = 1 + node * 1000000;
    g.rng = Rng(0x5EED + node);
    g.buf = rt.machine(node).pgas().alloc(0, 0, kibibytes(64));
    g.hash = &hashes[node];
    g.kernels = &kernels;
    rt.shard(node).schedule_at(static_cast<SimTime>(1 + node),
                               [&g] { g.fire(); });
  }
  rt.run();

  TraceHasher combined;
  for (std::size_t node = 0; node < cfg.nodes; ++node) {
    combined.mix(hashes[node].h);
    for (const TaskResult& r : rt.runtime(node).results()) {
      combined.mix(r.id);
      combined.mix(r.started);
      combined.mix(r.finished);
      combined.mix(static_cast<std::uint64_t>(r.device));
      combined.mix(r.executed_on);
      combined.mix_double(r.energy);
    }
    combined.mix_double(rt.machine(node).total_energy());
  }
  const ShardedRuntime::Stats s = rt.stats();
  combined.mix(s.makespan);
  combined.mix(s.events);
  combined.mix(s.windows);
  combined.mix(s.cross_posts);
  if (stats_out != nullptr) *stats_out = s;
  if (parallel_rounds != nullptr) {
    *parallel_rounds = rt.engine().parallel_rounds();
  }
  return combined.h;
}

TEST(ShardedRuntime, MixedUnimemUnilogicWorkloadIdenticalAcrossThreads) {
  ShardedRuntime::Stats s1{};
  std::uint64_t par2 = 0;
  std::uint64_t par8 = 0;
  const std::uint64_t h1 = sharded_runtime_hash(1, &s1);
  const std::uint64_t h2 = sharded_runtime_hash(2, nullptr, &par2);
  const std::uint64_t h8 = sharded_runtime_hash(8, nullptr, &par8);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, h8);
  EXPECT_GT(par2, 0u);
  EXPECT_GT(par8, 0u);
  // The workload really was mixed and really did cross node boundaries:
  // 8 nodes x 6 epochs x (2 local + 1 forwarded) tasks.
  EXPECT_EQ(s1.tasks, 8u * 6u * 3u);
  EXPECT_GT(s1.cross_posts, 0u);
  EXPECT_GT(s1.windows, 0u);
  EXPECT_GT(s1.makespan, 0u);
}

// --- run_until(): the epoch-pause primitive ---------------------------------

TEST(ShardedSimulator, RunUntilPausesAtTheExclusiveBoundary) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 5;
  ShardedSimulator engine(sc);
  std::vector<int> fired(2, 0);
  for (std::size_t s = 0; s < 2; ++s) {
    for (SimTime t = 10; t <= 100; t += 10) {
      engine.shard(s).schedule_at(t, [&fired, s] { ++fired[s]; });
    }
  }
  // Exclusive bound: events at 10..40 run, the event at exactly 50 stays
  // pending — and there is still work, so the engine reports "not drained".
  EXPECT_FALSE(engine.run_until(50));
  EXPECT_EQ(fired[0], 4);
  EXPECT_EQ(fired[1], 4);
  // Re-pausing at the same bound is a no-op, not a re-execution.
  EXPECT_FALSE(engine.run_until(50));
  EXPECT_EQ(fired[0], 4);
  // A bound past the last event drains fully and says so.
  EXPECT_TRUE(engine.run_until(1000));
  EXPECT_EQ(fired[0], 10);
  EXPECT_EQ(fired[1], 10);
  EXPECT_EQ(engine.events_processed(), 20u);
}

TEST(ShardedSimulator, ControllerMayScheduleAtThePauseOnAnyShard) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 5;
  ShardedSimulator engine(sc);
  std::vector<std::uint64_t> count(4, 0);
  for (std::size_t s = 0; s < 4; ++s) {
    engine.shard(s).schedule_at(3, [&count, s] { ++count[s]; });
  }
  // A far-out no-op keeps work pending through every pause we want to
  // observe (run_until reports drained as soon as all queues are empty).
  engine.shard(0).schedule_at(65, [] {});
  SimTime bound = 0;
  std::size_t pauses = 0;
  // Controller loop: at every pause, inject one event at the boundary on
  // a rotating shard (legal: nothing is running, and the boundary is at
  // or after every shard's clock). The injected event lands in the *next*
  // segment — the bound is exclusive.
  while (!engine.run_until(bound += 10)) {
    const std::size_t s = pauses % 4;
    engine.shard(s).schedule_at(bound, [&count, s] { ++count[s]; });
    ++pauses;
  }
  EXPECT_EQ(pauses, 6u);
  EXPECT_EQ(std::accumulate(count.begin(), count.end(), 0ull), 10ull);
}

// One segmented run with a mid-run controller: chains of self-scheduling
// events with deterministic cross-posts, paused every 17 ticks; at each
// pause the controller folds the (deterministic) per-shard counters into
// the hash and injects boundary events for the first few epochs. The
// final hash must be byte-identical across thread counts — run_until's
// pause is a consistent cut, never a function of the interleaving.
std::uint64_t segmented_run_hash(std::size_t threads,
                                 std::uint64_t* parallel_rounds = nullptr) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 7;
  sc.threads = threads;
  ShardedSimulator engine(sc);
  ShardedSimulatorTestPeer::pin_parallel(engine);
  std::vector<TraceHasher> hashes(4);
  struct Chain {
    ShardedSimulator* eng;
    std::size_t shard;
    TraceHasher* hashes;
    int remaining;
    Rng rng{0};
    void fire() {
      Simulator& sim = eng->shard(shard);
      hashes[shard].mix(sim.now());
      if (remaining-- <= 0) return;
      if (rng.uniform_u64(3) == 0) {
        const std::size_t to = (shard + 1) % 4;
        TraceHasher* dest = &hashes[to];
        ShardedSimulator* e = eng;
        eng->post(shard, to, sim.now() + eng->lookahead() + rng.uniform_u64(11),
                  [e, to, dest] { dest->mix(e->shard(to).now()); });
      }
      sim.schedule_after(1 + rng.uniform_u64(13), [this] { fire(); });
    }
  };
  std::vector<std::unique_ptr<Chain>> chains;
  for (std::size_t s = 0; s < 4; ++s) {
    chains.push_back(std::make_unique<Chain>());
    Chain& c = *chains.back();
    c.eng = &engine;
    c.shard = s;
    c.hashes = hashes.data();
    c.remaining = 40;
    c.rng = Rng(0xC0DE + s);
    engine.shard(s).schedule_at(1 + static_cast<SimTime>(s), [&c] { c.fire(); });
  }
  TraceHasher controller;
  SimTime bound = 0;
  std::size_t epoch = 0;
  while (!engine.run_until(bound += 17)) {
    ++epoch;
    // Mid-run shard state is stable at the pause: fold it in.
    for (std::size_t s = 0; s < 4; ++s) {
      controller.mix(engine.shard(s).now());
      controller.mix(hashes[s].h);
    }
    if (epoch <= 4) {
      const std::size_t s = epoch % 4;
      engine.shard(s).schedule_at(bound + 1, [&hashes, &engine, s] {
        hashes[s].mix(engine.shard(s).now());
      });
    }
  }
  for (std::size_t s = 0; s < 4; ++s) controller.mix(hashes[s].h);
  controller.mix(engine.events_processed());
  if (parallel_rounds != nullptr) *parallel_rounds = engine.parallel_rounds();
  return controller.h;
}

TEST(ShardedSimulator, SegmentedRunsAreByteIdenticalAcrossThreads) {
  std::uint64_t par2 = 0;
  std::uint64_t par8 = 0;
  const std::uint64_t h1 = segmented_run_hash(1);
  const std::uint64_t h2 = segmented_run_hash(2, &par2);
  const std::uint64_t h8 = segmented_run_hash(8, &par8);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, h8);
  EXPECT_GT(par2, 0u);
  EXPECT_GT(par8, 0u);
}

// --- the round gate's parked path and the worker pool's lifecycle ----------

// The mesh plus a sleeper on the last shard that blocks its host thread for
// 2 ms on every fire — far past the gate's spin and yield budgets — and
// fires every 150 ticks, inside every window that shard runs (its horizon
// is at least the 200-tick lookahead past the floor). Every other thread
// therefore parks at the gate in almost every round; a lost wake-up hangs
// the run instead of changing the hash.
std::uint64_t sleepy_mesh_hash(std::size_t threads) {
  constexpr std::size_t kShards = 8;
  ShardedConfig sc;
  sc.shards = kShards;
  sc.lookahead = 200;
  sc.threads = threads;
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(kShards);
  const auto actors = seed_mesh(engine, hashes, 40);
  struct Sleeper {
    Simulator* sim;
    TraceHasher* hash;
    int left;
    void fire() {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      hash->mix(sim->now());
      if (left-- > 0) sim->schedule_after(150, [this] { fire(); });
    }
  };
  Sleeper sleeper{&engine.shard(kShards - 1), &hashes[kShards - 1], 12};
  engine.shard(kShards - 1).schedule_at(5, [&sleeper] { sleeper.fire(); });
  engine.run();
  EXPECT_EQ(sleeper.left, -1);
  return mesh_fingerprint(engine, hashes);
}

TEST(ShardedSimulator, ParkedGateWaitersWakeEveryRound) {
  const std::uint64_t h1 = sleepy_mesh_hash(1);
  EXPECT_EQ(sleepy_mesh_hash(2), h1);
  EXPECT_EQ(sleepy_mesh_hash(4), h1);
  EXPECT_EQ(sleepy_mesh_hash(8), h1);  // oversubscribes a 4-core host
}

// One engine, 200 run_until() segments, with the controller folding shard
// state into the hash and scheduling an event at every pause: the same
// workers serve every segment, and each segment must still be the same
// consistent cut a single thread takes.
std::uint64_t many_segments_hash(std::size_t threads) {
  constexpr std::size_t kShards = 8;
  constexpr int kSegments = 200;
  ShardedConfig sc;
  sc.shards = kShards;
  sc.lookahead = 200;
  sc.threads = threads;
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(kShards);
  const auto actors = seed_mesh(engine, hashes, 500);
  TraceHasher controller;
  SimTime bound = 0;
  for (int i = 0; i < kSegments; ++i) {
    EXPECT_FALSE(engine.run_until(bound += 60));
    const std::size_t s = static_cast<std::size_t>(i) % kShards;
    controller.mix(engine.shard(s).now());
    controller.mix(hashes[s].h);
    TraceHasher* dest = &hashes[s];
    Simulator* sim = &engine.shard(s);
    sim->schedule_at(bound, [sim, dest] { dest->mix(sim->now()); });
  }
  engine.run();
  controller.mix(mesh_fingerprint(engine, hashes));
  return controller.h;
}

TEST(ShardedSimulator, TwoHundredSegmentsOnOnePoolMatchOneThread) {
  EXPECT_EQ(many_segments_hash(4), many_segments_hash(1));
}

// The destructor stops and joins the pool from every state an engine can
// be left in; a worker that misses the stop hangs the test.
TEST(ShardedSimulator, PoolShutsDownFromEveryEngineState) {
  const auto make = [] {
    ShardedConfig sc;
    sc.shards = 4;
    sc.lookahead = 10;
    sc.threads = 4;
    auto engine = std::make_unique<ShardedSimulator>(sc);
    ShardedSimulatorTestPeer::pin_parallel(*engine);
    return engine;
  };
  { auto idle = make(); }  // never ran: no pool was spawned
  {
    auto engine = make();
    for (std::size_t s = 0; s < 4; ++s) {
      engine->shard(s).schedule_at(5 + s, [] {});
    }
    engine->shard(1).schedule_at(500, [] {});
    EXPECT_FALSE(engine->run_until(100));  // paused with work pending
    engine->run();
    EXPECT_GT(engine->parallel_rounds(), 0u);
  }
  {
    auto engine = make();
    for (std::size_t s = 0; s < 4; ++s) {
      engine->shard(s).schedule_at(5, [] {});
    }
    engine->shard(2).schedule_at(7, [] {
      throw std::runtime_error("shard 2 exploded");
    });
    EXPECT_THROW(engine->run(), std::runtime_error);
    EXPECT_GT(engine->parallel_rounds(), 0u);
  }
}

// --- stretch policy: sparse rounds run solo, dense rounds on the pool ------

// The 8-shard mesh (four actors a shard, lookahead 200), sparse between
// `sparse_begin` and `sparse_end`, run in three segments split at those
// times. Records each segment's rounds and parallel rounds.
struct PhasedRun {
  std::uint64_t hash = 0;
  std::uint64_t parallel_rounds = 0;
  std::uint64_t windows = 0;
  std::uint64_t phase_rounds[3] = {};
  std::uint64_t phase_parallel[3] = {};
};

PhasedRun phased_mesh_run(std::size_t threads, std::uint64_t fires,
                          SimTime sparse_begin, SimTime sparse_end) {
  ShardedConfig sc;
  sc.shards = 8;
  sc.lookahead = 200;
  sc.threads = threads;
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(8);
  const auto actors = seed_mesh(engine, hashes, fires);
  for (const auto& a : actors) {
    a->sparse_begin = sparse_begin;
    a->sparse_end = sparse_end;
  }
  PhasedRun r;
  const SimTime bounds[3] = {sparse_begin, sparse_end,
                             std::numeric_limits<SimTime>::max()};
  for (int phase = 0; phase < 3; ++phase) {
    const std::uint64_t rounds = engine.windows();
    const std::uint64_t parallel = engine.parallel_rounds();
    engine.run_until(bounds[phase]);
    r.phase_rounds[phase] = engine.windows() - rounds;
    r.phase_parallel[phase] = engine.parallel_rounds() - parallel;
  }
  r.hash = mesh_fingerprint(engine, hashes);
  r.parallel_rounds = engine.parallel_rounds();
  r.windows = engine.windows();
  return r;
}

// A KV-like engine load: a few events a round on a handful of shards. The
// pool would only add gate crossings, so no round runs on it.
TEST(StretchPolicy, SparseRunTakesNoParallelRound) {
  const PhasedRun seq = phased_mesh_run(1, 40, 0, 1u << 30);
  const PhasedRun par = phased_mesh_run(4, 40, 0, 1u << 30);
  EXPECT_EQ(par.hash, seq.hash);
  EXPECT_GT(par.windows, 0u);
  EXPECT_EQ(par.parallel_rounds, 0u);
}

// The dense mesh retires hundreds of events a round across every shard:
// after the first solo round, the pool runs (nearly) all of them.
TEST(StretchPolicy, DenseMeshRunsNearlyEveryRoundInParallel) {
  const PhasedRun seq = phased_mesh_run(1, 400, 0, 0);
  const PhasedRun par = phased_mesh_run(4, 400, 0, 0);
  EXPECT_EQ(par.hash, seq.hash);
  EXPECT_EQ(seq.parallel_rounds, 0u);
  EXPECT_GE(par.parallel_rounds * 10, par.windows * 9);
}

// Dense, then sparse for long enough to outlast two maximal stretches, then
// dense again. The mode schedule depends on deterministic counts only, so
// it is the same at every thread count above one, and the results match a
// single thread's.
TEST(StretchPolicy, AlternatingPhasesSwitchModeAndStayIdentical) {
  constexpr std::uint64_t kFires = 600;
  constexpr SimTime kSparseBegin = 10000;
  constexpr SimTime kSparseEnd = 110000;
  const PhasedRun seq = phased_mesh_run(1, kFires, kSparseBegin, kSparseEnd);
  EXPECT_EQ(seq.parallel_rounds, 0u);
  std::uint64_t parallel_rounds = 0;
  for (const std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    const PhasedRun par =
        phased_mesh_run(threads, kFires, kSparseBegin, kSparseEnd);
    EXPECT_EQ(par.hash, seq.hash);
    if (parallel_rounds == 0) parallel_rounds = par.parallel_rounds;
    EXPECT_EQ(par.parallel_rounds, parallel_rounds);
    // Parallel in the first dense phase, solo in the sparse one, parallel
    // again in the last: at least two mode switches.
    EXPECT_GT(par.phase_parallel[0], 0u);
    EXPECT_LT(par.phase_parallel[1], par.phase_rounds[1]);
    EXPECT_GT(par.phase_parallel[2], 0u);
  }
}

// Shards 1 and 3 throw in the same round. Sparse: the round runs solo on
// the calling thread. After a dense segment: it runs in a parallel
// stretch. Either way the lowest shard id's exception is rethrown.
TEST(StretchPolicy, LowestShardExceptionWinsInSoloAndParallelStretches) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 10;
  sc.threads = 4;
  {
    ShardedSimulator engine(sc);
    for (std::size_t s = 0; s < 4; ++s) engine.shard(s).schedule_at(5, [] {});
    engine.shard(3).schedule_at(7, [] { throw std::runtime_error("solo 3"); });
    engine.shard(1).schedule_at(7, [] { throw std::runtime_error("solo 1"); });
    try {
      engine.run();
      FAIL() << "run() swallowed the shard exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "solo 1");
    }
    EXPECT_EQ(engine.parallel_rounds(), 0u);
  }
  sc.shards = 8;
  sc.lookahead = 200;
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(8);
  const auto actors = seed_mesh(engine, hashes, 400);
  EXPECT_FALSE(engine.run_until(4000));
  ASSERT_GT(engine.parallel_rounds(), 0u);
  const std::uint64_t rounds = engine.windows();
  const std::uint64_t parallel = engine.parallel_rounds();
  engine.shard(3).schedule_at(4005, [] { throw std::runtime_error("par 3"); });
  engine.shard(1).schedule_at(4005, [] { throw std::runtime_error("par 1"); });
  try {
    engine.run();
    FAIL() << "run() swallowed the shard exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "par 1");
  }
  // Every round of the throwing segment, the last included, ran parallel.
  EXPECT_GT(engine.windows(), rounds);
  EXPECT_EQ(engine.parallel_rounds() - parallel, engine.windows() - rounds);
}

// A multi-thread engine whose rounds all ran solo never spawned its pool;
// destroying it must not wait on workers that do not exist.
TEST(StretchPolicy, EngineThatNeverWentParallelShutsDown) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 10;
  sc.threads = 4;
  auto engine = std::make_unique<ShardedSimulator>(sc);
  for (std::size_t s = 0; s < 4; ++s) {
    engine->shard(s).schedule_at(5 + s, [] {});
  }
  EXPECT_TRUE(engine->run_until(100));
  engine->run();
  EXPECT_EQ(engine->parallel_rounds(), 0u);
  engine.reset();
}

TEST(ShardedRuntime, ForwardedTasksPayTheInterNodeLatency) {
  ShardedRuntimeConfig cfg;
  cfg.nodes = 4;
  cfg.workers_per_node = 2;
  ShardedRuntime rt(cfg);
  EXPECT_GT(rt.lookahead(), 0);
  for (std::size_t from = 0; from < 4; ++from) {
    for (std::size_t to = 0; to < 4; ++to) {
      if (from == to) continue;
      EXPECT_GE(rt.inter_node_latency(from, to), rt.lookahead());
    }
  }
}

// --- O(1) stall rejection ----------------------------------------------------
//
// A shard whose horizon cannot pass its next event is rejected before the
// exact O(shards) horizon is computed — except while the kSim trace
// category records, because the round's trace span ends at the smallest
// horizon. The rejection must be invisible: the same rounds, windows and
// stalls with and without a recording session. The fast test only applies
// to the dense pair matrix, so every scenario here runs with a pair
// oracle.

// Ring-distance latency, capped at the mesh's 200-tick post distance so
// every post of the scenarios below stays legal. A metric: each entry is
// in [125, 200], so any two legs sum past any one entry.
SimDuration capped_ring_latency(std::size_t shards, std::size_t a,
                                std::size_t b) {
  const std::size_t d = a > b ? a - b : b - a;
  const std::size_t ring = std::min(d, shards - d);
  return std::min<SimDuration>(200, 100 + 25 * ring);
}

struct RoundCounts {
  std::uint64_t fingerprint = 0;
  std::uint64_t windows = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t stalled = 0;
  bool operator==(const RoundCounts&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const RoundCounts& r) {
    return os << "{fingerprint " << r.fingerprint << ", windows " << r.windows
              << ", shard windows " << r.shard_windows << ", stalled "
              << r.stalled << "}";
  }
};

RoundCounts round_counts(const ShardedSimulator& engine,
                         std::uint64_t fingerprint) {
  return RoundCounts{fingerprint, engine.windows(), engine.shard_windows(),
                     engine.stalled_shard_windows()};
}

// Runs `scenario` at 1 thread and at 4 threads pinned to the pool, each
// without and with a kSim trace session recording, and expects all four
// runs to agree on every round count and fingerprint.
void expect_stall_rejection_invisible(
    const std::function<RoundCounts(std::size_t threads)>& scenario) {
  std::vector<RoundCounts> runs;
  for (const bool traced : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE((traced ? "traced, " : "untraced, ") +
                   std::to_string(threads) + " threads");
      ShardedSimulatorTestPeer::PinNewEngines pin;
      if (traced) {
        obs::TraceOptions topts;
        topts.categories = obs::cat_bit(obs::Cat::kSim);
        topts.ring_capacity = 1u << 12;
        obs::TraceSession::instance().start(topts);
      }
      runs.push_back(scenario(threads));
      if (traced) {
        // With the sites compiled out the session records nothing; the
        // counts must still agree.
#if !defined(ECO_TRACE_DISABLED)
        EXPECT_GT(obs::TraceSession::instance().events_recorded(), 0u);
#endif
        obs::TraceSession::instance().stop();
      }
      if (threads > 1) {
        EXPECT_GT(pin.parallel_rounds(), 0u);
      }
    }
  }
  EXPECT_GT(runs.front().stalled, 0u) << "no stall to reject";
  for (const RoundCounts& r : runs) EXPECT_EQ(r, runs.front());
}

TEST(StallRejection, BalancedMeshCountsIgnoreTracing) {
  expect_stall_rejection_invisible([](std::size_t threads) {
    ShardedConfig sc;
    sc.shards = 8;
    sc.lookahead = 200;
    sc.threads = threads;
    sc.pair_lookahead = [](std::size_t a, std::size_t b) {
      return capped_ring_latency(8, a, b);
    };
    ShardedSimulator engine(sc);
    std::vector<TraceHasher> hashes(8);
    const auto actors = seed_mesh(engine, hashes, 200);
    engine.run();
    return round_counts(engine, mesh_fingerprint(engine, hashes));
  });
}

TEST(StallRejection, ImbalancedMeshCountsIgnoreTracing) {
  expect_stall_rejection_invisible([](std::size_t threads) {
    const ImbalancedResult r =
        imbalanced_run(threads, [](std::size_t a, std::size_t b) {
          return capped_ring_latency(64, a, b);
        });
    return RoundCounts{r.hash, r.windows, r.shard_windows, r.stalled};
  });
}

TEST(StallRejection, KvInstanceCountsIgnoreTracing) {
  // An open-loop KV instance on the sharded runtime: its dense pair matrix
  // comes from the inter-node interconnect.
  expect_stall_rejection_invisible([](std::size_t threads) {
    ShardedRuntimeConfig rc;
    rc.nodes = 8;
    rc.workers_per_node = 2;
    rc.threads = threads;
    rc.runtime.placement = PlacementPolicy::kAlwaysSoftware;
    rc.runtime.distribution = DistributionPolicy::kHomeOnly;
    rc.runtime.admission_limit = 32;
    ShardedRuntime rt(rc);
    serve::KvConfig kc;
    kc.key_space = 1024;
    kc.service_items = 500;
    serve::KvStore kv(rt, kc);
    serve::LoadGenConfig lg;
    lg.offered_load = 4e6;
    lg.requests_per_node = 150;
    serve::LoadGen gen(rt, kv, lg);
    gen.start();
    rt.run();
    TraceHasher h;
    h.mix(gen.report().fingerprint);
    h.mix(kv.apply_log_hash());
    return round_counts(rt.engine(), h.h);
  });
}

}  // namespace
}  // namespace ecoscale
