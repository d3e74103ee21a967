// Conservative parallel discrete-event engine (sharded Simulator).
//
// ECOSCALE's hierarchy bounds communication distance: Workers inside a
// Compute Node interact at L0 latencies while anything that crosses a node
// boundary pays at least the interconnect's minimum inter-node latency.
// That bound makes node boundaries natural parallelization boundaries for
// the simulator — the same decomposition the runtime itself exploits. The
// ShardedSimulator gives every Compute Node (or any caller-chosen
// partition) its own event queue (a full `Simulator` with its slab, 4-ary
// heap and sorted-run backlog) and advances the shards concurrently inside
// synchronization rounds. Every round gives each shard d its own horizon
//
//     end_d = min over s != d of next_s + L(s, d)
//
// where next_s is shard s's next pending event and L(s, d) a per-pair
// latency oracle (defaulting to the uniform lookahead). The bound is
// *tightened while the window runs*: the moment d posts a message with
// delivery time t, its window is capped at t + dest_floor(d),
// dest_floor(d) = min over b != d of L(b, d) — the self-chain echo cap.
// Loosely-coupled shards run long windows while tightly-coupled ones stay
// conservative, and every shard (including self) contributes to its own
// bound the moment it can matter.
//
// Conservative correctness of the horizon, with a triangle-inequality
// oracle (any route/shortest-path latency is one — every cross-shard leg
// of a causal chain pays at least its pair latency):
//
//   * Chains starting on a peer: any future event on d seeded by a
//     currently-pending event on a shard s != d (time >= next_s) reaches
//     d no earlier than next_s + L(s, d) >= end_d.
//   * Chains starting on d itself (d posts to b, something eventually
//     posts back): the round-start horizon cannot see these — if d holds
//     the global floor and its peers are distant, end_d can exceed the
//     echo time next_d + L(d, b) + L(b, d). The echo cap closes exactly
//     this hole: the seeding post (delivery time t) stops d's own window
//     before t + dest_floor(d), and any echo of it arrives no earlier
//     (the return chain's last leg alone costs >= dest_floor(d)).
//   * Later rounds: messages posted during a round are merged at the
//     round boundary, before any horizon is recomputed, so while a chain
//     is in flight some shard always holds one of its events as pending
//     work and the peer bound above protects d for the rest of the
//     chain's life.
//
// Stretches: a solo stretch runs its rounds on the calling thread with no
// gate (one exchange over every shard); a parallel stretch runs them on
// the worker pool. A round is *dense* when its parallel slack — events it
// retired outside its busiest window, the work other threads could have
// taken — is at least kParallelSlack. After each stretch the caller picks
// parallel if more than half its rounds were dense (a share, not a mean,
// so one burst round does not wake the pool for its sparse neighbours). A
// stretch doubles from 1 round up to kMaxStretch while the mode repeats
// and restarts at 1 on a switch; both carry over between segments. The
// counts are deterministic (thread 0 folds them as it plans), so the mode
// schedule is the same at every thread count above one.
//
// Scheduling: every round is plan | execute | gate | exchange | gate.
// Each thread plans the round itself by folding the per-thread partials
// published at the previous exchange; the plan is a pure function of those
// partials, so every thread derives the same horizons and no serial
// planner sits between rounds (thread 0 alone also counts the window and
// emits the engine trace span). Shards are then claimed from per-thread
// ready queues with work stealing — a thread that drains its own stripe
// steals windows from a loaded peer, so shards >> threads no longer
// serializes behind the static stripe. Claiming is an atomic cursor bump
// per queue (the queues are pre-populated each round, so the classic
// Chase-Lev push/steal races don't arise); a solo round walks the queues
// in order without it. A shard whose horizon cannot pass its next event
// is rejected in O(1) before the exact O(shards) horizon is computed:
// the floor shard f != d caps the horizon at floor + L(f, d). (While the
// kSim trace category records, every horizon is computed, because the
// round's trace span ends at the smallest of them.) Which thread runs a window
// never affects results: the shard's trace lane and post() sequence
// counter travel with the shard, and the merge key orders messages
// independently of the outbox they rode.
//
// Workers and gates: the calling thread is worker 0; the other threads
// are spawned by the first parallel stretch and live as long as the
// engine, waiting at the same gate between stretches (a stretch costs a
// start crossing, not a spawn and join per thread). A gate
// crossing waits in three stages: poll the generation word with pause
// instructions (most rounds are microseconds long, so this catches nearly
// every crossing without a syscall), yield the core a few times, then
// park on the word. The poll budget halves after a crossing some waiter
// outlasted and doubles after one every waiter caught, so an
// oversubscribed host parks almost at once while a dedicated one polls.
// Each worker starts on its own CPU (the spawner's plus its index): Linux
// starts a thread on its spawner's CPU and seldom moves one that polls.
//
// Merging: post() appends to the executing thread's own outbox, a plain
// vector only its owner writes. In the exchange phase each thread takes,
// from every outbox, the messages addressed to its own contiguous shard
// range, sorts them by the canonical key and inserts them, then refreshes
// its shards' next-event times and publishes its fold partials (min next
// event, top-2 of next + source_floor) and round tallies. Race freedom:
// the execute phase writes only shard state, its own outbox and locals;
// everything a plan reads is written only in the exchange phase, and an
// outbox is cleared by its owner only in the next execute phase, after the
// second gate. Between stretches the workers touch only the gate, so
// solo rounds need no synchronization.
//
// Determinism: the merge is canonical — messages sort by (destination,
// time, source shard, source sequence), a total order — so destination
// tie-breaking sequence numbers are assigned in an order independent of
// thread count, outbox assignment, stealing, and completion order. Horizons
// are computed only from the published next-event times (deterministic
// simulation state), so the window schedule itself is thread-count
// invariant and a run with `threads = N` is byte-identical to
// `threads = 1`. Only outbox *spill counts* and the *steal count* —
// wall-clock-side metrics — vary with the thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"

namespace ecoscale {

/// One cross-shard event in flight: deliver `action` on shard `dst` at
/// absolute sim time `time`. `src` and `seq` (the source shard's running
/// send counter) complete the canonical merge key — an outbox holds the
/// posts of every shard its thread ran, so every message is
/// self-describing.
struct ShardMessage {
  SimTime time = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;
  InlineAction action;
};

/// The spin-then-park round barrier (defined in parallel.cc). Null gate =
/// solo stretch, no waiting.
class RoundGate;

struct ShardedConfig {
  /// Number of event-queue shards (typically one per Compute Node).
  std::size_t shards = 1;
  /// Conservative uniform lookahead: a lower bound on the sim-time
  /// distance of *any* cross-shard interaction. Derive it from the
  /// interconnect (Network::min_cross_latency / PgasSystem::
  /// shard_lookahead). The default pair latency when no oracle is given.
  SimDuration lookahead = nanoseconds(100);
  /// Worker threads; 0 picks std::thread::hardware_concurrency(). The
  /// thread count never changes simulation results, only wall-clock time.
  std::size_t threads = 1;
  /// Optional per-pair latency oracle L(from, to), e.g. a captured
  /// Network::route_latency. Must be >= 1 for every pair and satisfy the
  /// triangle inequality L(a, c) <= L(a, b) + L(b, c) — true for any
  /// route/shortest-path latency (both strided and seeded-random triples
  /// are checked at construction, so a locally non-metric oracle fails
  /// loudly instead of yielding an unsafe horizon). Tightens both the
  /// horizons and the post() contract. Unset: the uniform `lookahead`
  /// stands in for every pair.
  std::function<SimDuration(std::size_t from, std::size_t to)> pair_lookahead;
  /// Optional per-source floor min over d != s of L(s, d) (e.g.
  /// Network::min_latency_from). Only consulted when `pair_lookahead` is
  /// set but the shard count exceeds ShardedSimulator::kDensePairCap; below
  /// the cap the floor is derived from the dense matrix. Construction
  /// sample-verifies floor(s) <= L(s, d) against the pair oracle — a floor
  /// that exceeds a real pair latency would silently over-advance shards.
  std::function<SimDuration(std::size_t from)> source_floor;
};

class ShardedSimulator {
 public:
  /// Messages each worker thread's outbox holds without allocating. Outbox
  /// 0 reserves at its first post, every other one when the first parallel
  /// stretch spawns the pool, so an engine that never posts (or never
  /// wakes the pool) reserves nothing. A round whose windows post more on
  /// one thread grows that outbox — counted in mailbox_spills().
  static constexpr std::size_t kOutboxReserve = 1024;
  /// Parallel slack (events a round retired outside its busiest shard
  /// window) from which a round counts as dense.
  static constexpr std::uint64_t kParallelSlack = 32;
  /// Longest stretch, in rounds.
  static constexpr std::size_t kMaxStretch = 64;
  /// Shard count up to which the pair oracle is materialized as a dense
  /// matrix (O(shards^2) construction + memory; horizons then take exact
  /// per-destination column minima). Above it the engine falls back to
  /// per-source floors — still adaptive, O(shards) state — so a 6k-shard
  /// machine never pays a 36M-entry matrix.
  static constexpr std::size_t kDensePairCap = 512;

  explicit ShardedSimulator(ShardedConfig config)
      : ShardedSimulator(std::move(config), kDensePairCap) {}
  /// Joins the worker pool (pool threads hold `this`: no copy or move).
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  SimDuration lookahead() const { return config_.lookahead; }
  /// Threads the window loop will actually use (clamped to shard count).
  std::size_t threads_used() const { return threads_; }
  /// The conservative latency bound post() enforces for this pair — the
  /// dense matrix entry, the oracle, or the uniform lookahead.
  SimDuration pair_lookahead(std::size_t from, std::size_t to) const;

  /// Shard-local event queue. Schedule setup events here before run(), or
  /// same-shard events from inside one of the shard's own actions. NEVER
  /// touch another shard's queue from a running action — that is what
  /// post() is for.
  Simulator& shard(std::size_t s) {
    ECO_CHECK(s < shards_.size());
    return shards_[s]->sim;
  }

  /// Deliver `action` on shard `to` at absolute time `t`, called from
  /// inside an action currently executing on shard `from`. Requires
  /// t >= now(from) + pair_lookahead(from, to) — the conservative contract
  /// that keeps windows race-free. Messages become destination events at
  /// the next round boundary, merged canonically by (time, source shard,
  /// seq).
  template <typename F>
  void post(std::size_t from, std::size_t to, SimTime t, F&& action) {
    post_message(from, to, t, InlineAction(std::forward<F>(action)));
  }

  /// Run rounds until every shard queue is empty.
  /// Rethrows the first (lowest shard id) exception an action threw.
  void run();

  /// Run rounds until the shards drain OR the global next-event floor
  /// reaches `bound`: every event strictly before `bound` executes, events
  /// at or after it stay pending. Returns true when fully drained. Between
  /// calls nothing is running, so a single-threaded controller may read
  /// any shard's deterministic state and schedule new events (including at
  /// times >= bound) before resuming — the epoch pause the runtime
  /// repartitioner is built on (DESIGN.md §7.11). Horizons are the normal
  /// per-shard horizons clamped to `bound`, still a pure function of the
  /// published next-event times, so the window schedule (and therefore the
  /// simulation) stays byte-identical at any thread count.
  bool run_until(SimTime bound);

  // --- accounting ---------------------------------------------------------
  // The first four are deterministic (thread-count invariant); spills and
  // steals are wall-clock-side.
  /// Synchronization rounds executed so far.
  std::uint64_t windows() const { return windows_; }
  /// Rounds run in parallel stretches: 0 at one thread, and the same at
  /// every thread count above one.
  std::uint64_t parallel_rounds() const { return parallel_rounds_; }
  /// (shard, round) pairs that retired at least one event — "windows
  /// executed". windows() * shard_count() minus this minus the stalls is
  /// the idle balance.
  std::uint64_t shard_windows() const { return shard_windows_; }
  /// (shard, round) pairs where a shard had a pending event but its
  /// horizon forbade running it — the barrier-stall numerator. Adaptive
  /// windows exist to shrink this.
  std::uint64_t stalled_shard_windows() const { return stalled_windows_; }
  /// Cross-shard messages posted (sum of the per-source send counters —
  /// identical whatever thread ran the posting shard).
  std::uint64_t messages() const;
  /// Shard windows claimed by a thread other than the queue owner's.
  /// Wall-clock-side: depends on thread timing, never on results.
  std::uint64_t steals() const { return steals_; }
  /// Posts that grew an outbox past its reserve. Outbox load depends on
  /// how many shards share a thread, so this varies with the thread count
  /// (simulation results never do).
  std::uint64_t mailbox_spills() const;
  /// Bytes of cross-shard buffering held now: the outbox capacities. 0
  /// until the first post, one reserve after solo posts, and O(threads ·
  /// reserve) once the pool has run — a per-pair scheme is O(shards² ·
  /// reserve).
  std::size_t mailbox_state_bytes() const;
  /// Events retired across all shards.
  std::uint64_t events_processed() const;
  /// Frontier of simulated time: max over the shard clocks.
  SimTime now() const;
  /// Wall time of the execute phases, summed over threads (CPU time, not
  /// elapsed time — threads run concurrently): the shard windows plus the
  /// claiming and horizons around them, read once per thread per round.
  std::uint64_t shard_wall_time_ns() const;

 private:
  friend class ShardedSimulatorTestPeer;  // tests/sharded_test_peer.h
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  /// Materializes the dense pair matrix up to `matrix_cap` shards
  /// (kDensePairCap, or lower in tests).
  ShardedSimulator(ShardedConfig config, std::size_t matrix_cap);

  struct Shard {
    Simulator sim;
    std::exception_ptr error;
    /// Messages this shard has posted — the `seq` of its next post and the
    /// third key of the canonical merge order. Owned by whichever thread
    /// is executing the shard's window (never two at once).
    std::uint64_t post_seq = 0;
  };

  /// One round's plan: the fold of every thread's published partials.
  struct RoundPlan {
    SimTime floor = kNever;  // global next-event floor
    std::uint32_t floor_arg = 0;  // a shard whose next event is the floor
    SimTime src1 = kNever;   // top-2 of next_s + source_floor_[s]
    SimTime src2 = kNever;
    std::uint32_t src_arg = 0;
    bool done = false;  // drained, at the run_until() bound, or a shard threw
  };

  /// One thread's deterministic round tallies (plus the wall-clock-side
  /// steal count), gathered in locals while executing and published in the
  /// exchange phase.
  struct RoundTally {
    std::uint64_t executed = 0;
    std::uint64_t stalled = 0;
    std::uint64_t stolen = 0;
    std::uint64_t merged = 0;  // messages this thread inserted
    std::uint64_t events = 0;      // events its windows retired
    std::uint64_t max_window = 0;  // events of its busiest window
    SimTime min_horizon = kNever;  // trace span end for the round
    bool failed = false;           // an action threw
  };

  /// An inbox entry: the full merge key plus where the message body lives
  /// (the producing thread's outbox, index in it).
  struct InboxItem {
    SimTime time;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint64_t seq;
    std::uint32_t box;
    std::uint32_t pos;
  };

  /// Per-worker-thread state: the round's ready queue (candidates from the
  /// thread's contiguous shard range; any thread may claim from it), the
  /// outbox its windows post into, the inbox scratch of the exchange, and
  /// the tallies and fold partials every plan reads.
  struct alignas(64) WorkerSlot {
    // Ready queue for the round; claimed via `cursor` (atomic bump — the
    // queues are pre-populated at the previous exchange, so no concurrent
    // push ever races a steal).
    std::vector<std::uint32_t> queue;
    std::atomic<std::uint32_t> cursor{0};
    std::vector<ShardMessage> outbox;
    std::vector<InboxItem> inbox;
    std::uint64_t spills = 0;
    std::uint64_t busy_ns = 0;  // execute-phase wall time
    RoundTally tally;
    // Fold partials over the thread's contiguous shard range: min next
    // event time (and its shard), and top-2 (value, runner-up, argmin) of
    // next + source_floor for the collapsed adaptive horizon.
    SimTime part_floor = kNever;
    std::uint32_t part_floor_arg = 0;
    SimTime part_src1 = kNever;
    SimTime part_src2 = kNever;
    std::uint32_t part_src_arg = 0;
  };

  /// The non-template body of post(): validates the calling context and
  /// appends the fully-tagged message to the executing thread's outbox.
  void post_message(std::size_t from, std::size_t to, SimTime t,
                    InlineAction action);

  /// Execute shard `s`'s events strictly before `end` with the post()
  /// calling-context guard armed and thread `tid`'s outbox as the target.
  /// Returns false if an action threw (the exception lands in the shard).
  bool run_shard_window(std::size_t s, SimTime end, std::size_t tid);
  void rethrow_shard_error();

  // --- round phases (see parallel.cc for the barrier schedule) ----------
  /// Reset per-run state: zero the tallies and seed the next-event times,
  /// ready queues and fold partials.
  void prepare_run();
  /// First shard of slot `t`'s contiguous range (t = threads_: the end).
  std::size_t range_begin(std::size_t t) const {
    return t * shards_.size() / threads_;
  }
  /// The sum of every slot's published round tally.
  RoundTally published_tally() const;
  /// Fold the per-thread partials (O(threads)) into the round's plan.
  /// Thread 0 also accounts the previous round's tallies, emits its trace
  /// span/counters and counts the new window.
  RoundPlan plan_round(std::size_t tid);
  /// Claim shards (own queue, then steal; every queue in order when
  /// `solo`) and run their windows.
  RoundTally execute_round(std::size_t tid, const RoundPlan& plan, bool solo);
  /// Reserve the outboxes and inbox scratch of slots [0, count).
  void reserve_mailboxes(std::size_t count);
  /// Insert the messages addressed to slot `tid`'s shards (every shard in
  /// a solo round) in canonical order, then publish the tally and partials.
  void exchange(std::size_t tid, bool solo, RoundTally tally);
  /// Seed slot `slot`'s ready queue and fold partials from its range.
  void fold_range(std::size_t slot);
  /// The per-shard execution horizon for this round (see file comment).
  SimTime shard_horizon(std::size_t d, const RoundPlan& plan) const;
  /// O(1) sufficient test that shard `d` stalls this round (its horizon
  /// cannot pass its next event); false means "compute the horizon".
  bool surely_stalled(std::size_t d, const RoundPlan& plan) const;
  /// One worker's loop for a stretch of up to `stretch_` rounds (`gate`
  /// null: solo). Both return true when the segment is over.
  bool drive(std::size_t tid, RoundGate* gate);
  bool run_parallel();

  ShardedConfig config_;
  std::size_t threads_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;

  // Per-pair latency state: dense matrix (shards <= kDensePairCap with an
  // oracle), the per-source floors used by the collapsed horizon, and the
  // per-destination floors min over b != d of L(b, d) — the echo-cap
  // distance (dense: exact column minima; collapsed: bounded below by the
  // top-2 of the source floors, since L(b, d) >= source_floor_[b]).
  std::vector<SimDuration> pair_matrix_;  // shards x shards, row = source
  std::vector<SimDuration> source_floor_;
  std::vector<SimDuration> dest_floor_;
  // Published next event time per shard (kNever = idle). Written only by
  // the shard-range owner in the exchange phase, read by everyone in the
  // next execute phase; the round barriers order the two.
  std::vector<SimTime> next_times_;

  /// Exclusive stop bound of the current run_until() segment (kNever for
  /// a plain run()). Set before the workers start, cleared after they
  /// join, read inside via plan_round()/shard_horizon() only.
  SimTime run_bound_ = kNever;

  // Worker-0-only bookkeeping: the previous round's span is emitted one
  // plan later, when its min horizon has been folded, and the cumulative
  // messages track sums the published merge tallies.
  bool trace_prev_valid_ = false;
  SimTime trace_prev_floor_ = 0;
  std::uint64_t merged_messages_ = 0;

  // Stretch policy (caller-only, between stretches): mode, length and the
  // cumulative count of accounted dense rounds.
  bool parallel_ = false;
  std::size_t stretch_ = 1;
  std::uint64_t dense_rounds_ = 0;
  std::uint64_t parallel_rounds_ = 0;
  // Test pin (ShardedSimulatorTestPeer): a pinned engine runs every stretch
  // on the pool; new engines copy `pin_new_engines_`, and pinned ones add
  // their parallel rounds to `pinned_parallel_rounds_` when destroyed.
  bool pinned_parallel_ = false;
  static inline std::atomic<bool> pin_new_engines_{false};
  static inline std::atomic<std::uint64_t> pinned_parallel_rounds_{0};
  std::uint64_t windows_ = 0;
  std::uint64_t shard_windows_ = 0;
  std::uint64_t stalled_windows_ = 0;
  std::uint64_t steals_ = 0;

  // Worker pool, spawned by the first parallel stretch and joined by the
  // destructor. `stop_` is written before a gate crossing and read
  // after it, so the gate orders it. Declared last: the workers use
  // everything above.
  std::unique_ptr<RoundGate> gate_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace ecoscale
