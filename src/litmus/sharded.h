// Randomized concurrent litmus executor on the sharded engine.
//
// The exhaustive executor (executor.h) serializes every interleaving; this
// one runs the litmus program as genuinely concurrent traffic on a
// ShardedSimulator — one shard per Compute Node, the UNIMEM partition
// boundary — under a harness-level model of the UNIMEM ownership
// protocol:
//
//   * every page has one home shard holding its variables and its
//     serialization log; accesses are messages routed to the requester's
//     *view* of the owner, forwarded on staleness;
//   * migration packages variables + log and re-homes them, broadcasting
//     directory updates (views converge lazily — exactly the in-flight
//     window the migration litmuses probe);
//   * a crashed shard nacks accesses; requesters retry with linear
//     backoff and, after fault_max_retries-style exhaustion, fail the
//     page over to their own node (the dead shard's memory stays
//     readable for recovery, as in PgasSystem's backing store).
//
// Schedules are explored by seed-randomized *event timing perturbation*:
// every issue, retry and broadcast delay carries a SchedulePerturb jitter
// (a pure hash of (seed, thread, draw#)), so the schedule is a
// deterministic function of the seed alone. Together with the engine's
// canonical merge this makes a run byte-identical across `--sim-threads`
// values: same outcome, same per-page logs, same fingerprint. The
// protocol timing (hop latency, jitter bound, retry contract) is fixed in
// sharded.cc; a run varies only in its seed, rounds and engine threads.
#pragma once

#include <cstdint>
#include <set>

#include "litmus/oracle.h"
#include "litmus/program.h"

namespace ecoscale::litmus {

struct RandomizedConfig {
  /// ShardedSimulator worker threads (the --sim-threads knob).
  std::size_t sim_threads = 1;
  std::uint64_t seed = 1;
  /// Randomized schedules (independent perturbation seeds) per program.
  std::size_t rounds = 64;
};

/// One perturbation round. `fingerprint` hashes the outcome, every page's
/// final owner and serialization log, and the protocol counters — the
/// value the --sim-threads determinism contract compares.
struct RandomizedRun {
  Outcome outcome;
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::uint64_t nacks = 0;       // accesses bounced off a dead shard
  std::uint64_t failovers = 0;   // pages re-homed via the recovery path
  std::uint64_t migrations = 0;  // explicit ownership transfers
  std::uint64_t forwards = 0;    // stale-view forwarding hops
};

/// Aggregate over `rounds` seeds.
struct RandomizedResult {
  std::set<Outcome> outcomes;
  std::uint64_t fingerprint = 0;  // chained over the per-round fingerprints
  std::uint64_t events = 0;
  std::uint64_t nacks = 0;
  std::uint64_t failovers = 0;
  std::uint64_t migrations = 0;
  std::uint64_t forwards = 0;
};

/// Run one round with perturbation seed derived from (config.seed, round).
RandomizedRun run_randomized_once(const LitmusProgram& program,
                                  const RandomizedConfig& config,
                                  std::uint64_t round);

RandomizedResult run_randomized(const LitmusProgram& program,
                                const RandomizedConfig& config);

/// run_randomized, then assert every observed outcome is oracle-allowed.
RandomizedResult check_randomized(const LitmusProgram& program,
                                  const Oracle& oracle,
                                  const RandomizedConfig& config);

}  // namespace ecoscale::litmus
