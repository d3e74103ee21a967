#include "sim/parallel.h"

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/reduce.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace ecoscale {

/// The round barrier. A waiter polls the generation word for up to
/// `spins_` pauses, then yields its core kYields times, then parks on the
/// word. Rounds are microseconds apart, so the poll catches almost every
/// crossing without a syscall. The poll budget adapts per crossing: halved
/// (down to kMinSpins) after one that some waiter outlasted — an
/// oversubscribed host, where polling only delays the late thread — and
/// doubled (up to kMaxSpins) after one that every waiter caught.
class RoundGate {
 public:
  explicit RoundGate(std::uint32_t n) : n_(n) {}

  void sync() {
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      // Reset before the bump: no thread re-arrives until it sees the bump.
      arrived_.store(0, std::memory_order_relaxed);
      const std::uint32_t spins = spins_.load(std::memory_order_relaxed);
      spins_.store(late_.exchange(0, std::memory_order_relaxed) != 0
                       ? std::max(kMinSpins, spins / 2)
                       : std::min(kMaxSpins, spins * 2),
                   std::memory_order_relaxed);
      // Dekker pair with a parking waiter: each side stores, then loads,
      // all seq_cst, so either this load sees the waiter's announcement or
      // the waiter's re-check sees the new generation. No wake-up is lost.
      generation_.store(gen + 1, std::memory_order_seq_cst);
      if (parked_.load(std::memory_order_seq_cst) != 0) {
        generation_.notify_all();
      }
      return;
    }
    const std::uint32_t spins = spins_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < spins; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    late_.fetch_add(1, std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < kYields; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      std::this_thread::yield();
    }
    parked_.fetch_add(1, std::memory_order_seq_cst);
    while (generation_.load(std::memory_order_seq_cst) == gen) {
      generation_.wait(gen, std::memory_order_seq_cst);
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  // Wait budgets, chosen by the sweep recorded in CHANGES.md (a pause is
  // ~20 ns on the 4-vCPU Xeon it was measured on).
  static constexpr std::uint32_t kMaxSpins = 4096;
  static constexpr std::uint32_t kMinSpins = 64;
  static constexpr std::uint32_t kYields = 8;

  const std::uint32_t n_;
  // Written once per arrival (and by late waiters); read by the last one.
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> spins_{kMaxSpins};
  std::atomic<std::uint32_t> late_{0};
  // The line waiters poll; written once per crossing.
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> parked_{0};
};

namespace {

/// Interned names for the engine's own trace lane: a span per
/// synchronization round plus cumulative counter tracks for merged
/// messages, horizon stalls and work steals (README "sim.stall /
/// sim.steal" — stalls are deterministic, steals wall-clock-side).
struct ParTraceNames {
  CounterId window = CounterRegistry::intern("sim.window");
  CounterId messages = CounterRegistry::intern("sim.messages");
  CounterId stall = CounterRegistry::intern("sim.stall");
  CounterId steal = CounterRegistry::intern("sim.steal");
};
const ParTraceNames& par_trace_names() {
  static const ParTraceNames names;
  return names;
}

/// Orchestrator lane: distinct tid under the simulation pid, away from the
/// per-shard lanes (shard s traces on tid s + 1; plain Simulators on 0).
constexpr std::uint16_t kEngineTid = 0xFFF0;

// Linux starts a new thread on its spawner's CPU, and a thread that polls
// the gate seldom sleeps, so is seldom placed again: a pool spawned in one
// burst can share one core for the engine's whole life. Each worker
// therefore moves itself once, to the k-th CPU of its affinity mask, and
// restores the mask. A parked waiter wakes where it slept when that core
// is idle, so the spread holds.
#if defined(__linux__)
std::size_t current_cpu() {
  const int cpu = sched_getcpu();
  return cpu < 0 ? 0 : static_cast<std::size_t>(cpu);
}
void start_on_cpu(std::size_t k) {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  k %= static_cast<std::size_t>(CPU_COUNT(&mask));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask) || k-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    break;
  }
  sched_setaffinity(0, sizeof mask, &mask);
}
#else
std::size_t current_cpu() { return 0; }
void start_on_cpu(std::size_t) {}
#endif

/// Which shard (of which engine) the current thread is executing a window
/// for, and the outbox it posts into; post() validates its `from` argument
/// against this and appends to the outbox.
struct RunContext {
  const void* engine = nullptr;
  std::size_t shard = 0;
  std::vector<ShardMessage>* outbox = nullptr;
};
thread_local RunContext tls_run_context;

/// Canonical merge order: by destination, then (time, source shard, send
/// sequence). The destination queue assigns its tie-breaking sequence
/// numbers in this order, so execution is independent of thread count, of
/// which outbox a message rode, of stealing, and of the order the producing
/// shards happened to finish their windows. (src, seq) is unique, so the
/// key is a total order and no stable sort is needed.
struct MergeKeyLess {
  template <typename Item>
  bool operator()(const Item& a, const Item& b) const {
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.time != b.time) return a.time < b.time;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }
};

/// Fold one (value, shard) candidate into a top-2-with-argmin accumulator.
inline void fold_top2(SimTime cand, std::uint32_t arg, SimTime& best1,
                      SimTime& best2, std::uint32_t& best_arg) {
  if (cand < best1) {
    best2 = best1;
    best1 = cand;
    best_arg = arg;
  } else if (cand < best2) {
    best2 = cand;
  }
}

}  // namespace

ShardedSimulator::ShardedSimulator(ShardedConfig config,
                                   std::size_t matrix_cap)
    : config_(std::move(config)) {
  ECO_CHECK_MSG(config_.shards >= 1, "need at least one shard");
  ECO_CHECK_MSG(config_.lookahead >= 1,
                "conservative lookahead must be positive");
  std::size_t threads = config_.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? hw : 1;
  }
  threads_ = std::min(threads, config_.shards);
  pinned_parallel_ = pin_new_engines_;
  parallel_ = pinned_parallel_ && threads_ > 1;
  const std::size_t nshards = config_.shards;
  shards_.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    // Lane 0 stays the classic single-engine lane; shard s gets lane s+1.
    shards_.back()->sim.set_trace_lane(static_cast<std::uint16_t>(s + 1));
  }
  // Reserve the ready queues up front so the steady state allocates
  // nothing (sim_alloc_test gates this at --sim-threads > 1). Mailboxes are
  // reserved by their first use (kOutboxReserve).
  slots_.reserve(threads_);
  for (std::size_t t = 0; t < threads_; ++t) {
    slots_.push_back(std::make_unique<WorkerSlot>());
    slots_.back()->queue.reserve((t + 1) * nshards / threads_ -
                                 t * nshards / threads_);
  }
  next_times_.assign(nshards, kNever);

  // Per-pair latency state. With an oracle and a modest shard count,
  // materialize the dense matrix (exact per-destination column minima);
  // above the cap keep only per-source floors so construction and memory
  // stay O(shards) at 6k+ shards.
  source_floor_.assign(nshards, config_.lookahead);
  dest_floor_.assign(nshards, config_.lookahead);
  if (config_.pair_lookahead && nshards > 1) {
    if (nshards <= matrix_cap) {
      pair_matrix_.assign(nshards * nshards, 0);
      for (std::size_t s = 0; s < nshards; ++s) {
        SimDuration floor = kNever;
        for (std::size_t d = 0; d < nshards; ++d) {
          if (s == d) continue;
          const SimDuration l = config_.pair_lookahead(s, d);
          ECO_CHECK_MSG(l >= 1,
                        "zero-latency cross-shard pair cannot be sharded "
                        "conservatively");
          pair_matrix_[s * nshards + d] = l;
          floor = std::min(floor, static_cast<SimTime>(l));
        }
        source_floor_[s] = floor;
      }
      // Exact per-destination column minima: the echo-cap distance.
      for (std::size_t d = 0; d < nshards; ++d) {
        SimDuration floor = kNever;
        for (std::size_t b = 0; b < nshards; ++b) {
          if (b == d) continue;
          floor = std::min(floor, pair_matrix_[b * nshards + d]);
        }
        dest_floor_[d] = floor;
      }
      // The adaptive bound is transitively safe only for metric oracles
      // (see parallel.h); spot-check triples so a non-metric oracle fails
      // loudly at construction, not silently in a window. Strided triples
      // alone leave off-stride pockets unchecked, so a seeded random
      // sweep (deterministic: same oracle, same verdict) covers the rest.
      const auto check_triple = [&](std::size_t a, std::size_t b,
                                    std::size_t c) {
        if (a == b || b == c || a == c) return;
        ECO_CHECK_MSG(pair_matrix_[a * nshards + c] <=
                          pair_matrix_[a * nshards + b] +
                              pair_matrix_[b * nshards + c],
                      "pair_lookahead violates the triangle inequality "
                      "(adaptive windows need a route-metric oracle)");
      };
      const std::size_t step = std::max<std::size_t>(1, nshards / 24);
      for (std::size_t a = 0; a < nshards; a += step) {
        for (std::size_t b = 0; b < nshards; b += step) {
          for (std::size_t c = 0; c < nshards; c += step) {
            check_triple(a, b, c);
          }
        }
      }
      Rng triples(0x7121A27u);
      for (int i = 0; i < 1024; ++i) {
        check_triple(triples.uniform_u64(nshards),
                     triples.uniform_u64(nshards),
                     triples.uniform_u64(nshards));
      }
    } else {
      if (config_.source_floor) {
        for (std::size_t s = 0; s < nshards; ++s) {
          const SimDuration f = config_.source_floor(s);
          ECO_CHECK_MSG(f >= 1, "source_floor must be a positive latency");
          source_floor_[s] = f;
        }
      }
      // else: the uniform lookahead floors already in place — a correct
      // lower bound on every pair by the lookahead contract.
      //
      // Either way the floors feed horizons directly, so sample-verify
      // them against the pair oracle: a floor above some actual pair
      // latency would silently over-advance shards.
      const auto check_floor = [&](std::size_t s, std::size_t d) {
        if (s == d) return;
        const SimDuration l = config_.pair_lookahead(s, d);
        ECO_CHECK_MSG(l >= 1,
                      "zero-latency cross-shard pair cannot be sharded "
                      "conservatively");
        ECO_CHECK_MSG(source_floor_[s] <= l,
                      "source_floor exceeds an actual pair latency "
                      "(horizons derived from it would not be "
                      "conservative)");
      };
      Rng pairs(0xF100D5u);
      const std::size_t step = std::max<std::size_t>(1, nshards / 64);
      for (std::size_t s = 0; s < nshards; s += step) {
        for (int k = 0; k < 8; ++k) check_floor(s, pairs.uniform_u64(nshards));
      }
      for (int i = 0; i < 512; ++i) {
        check_floor(pairs.uniform_u64(nshards), pairs.uniform_u64(nshards));
      }
      // Collapsed echo-cap distance: L(b, d) >= source_floor_[b] for every
      // b, so min over b != d of the source floors bounds dest_floor(d)
      // from below (top-2 so d never reads its own floor).
      SimDuration f1 = kNever;
      SimDuration f2 = kNever;
      std::size_t f_arg = 0;
      for (std::size_t s = 0; s < nshards; ++s) {
        if (source_floor_[s] < f1) {
          f2 = f1;
          f1 = source_floor_[s];
          f_arg = s;
        } else if (source_floor_[s] < f2) {
          f2 = source_floor_[s];
        }
      }
      for (std::size_t d = 0; d < nshards; ++d) {
        dest_floor_[d] = d == f_arg ? f2 : f1;
      }
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (pinned_parallel_) pinned_parallel_rounds_ += parallel_rounds_;
  if (!gate_) return;
  stop_ = true;
  gate_->sync();  // releases the workers parked between stretches
  for (std::thread& w : workers_) w.join();
}

SimDuration ShardedSimulator::pair_lookahead(std::size_t from,
                                             std::size_t to) const {
  ECO_CHECK(from < shards_.size() && to < shards_.size() && from != to);
  if (!pair_matrix_.empty()) return pair_matrix_[from * shards_.size() + to];
  if (config_.pair_lookahead) return config_.pair_lookahead(from, to);
  return config_.lookahead;
}

void ShardedSimulator::post_message(std::size_t from, std::size_t to,
                                    SimTime t, InlineAction action) {
  ECO_CHECK(from < shards_.size() && to < shards_.size());
  ECO_CHECK_MSG(from != to,
                "same-shard events use shard(s).schedule_*, not post()");
  ECO_CHECK_MSG(tls_run_context.engine == this,
                "post() called outside a running shard action");
  ECO_CHECK_MSG(tls_run_context.shard == from,
                "post() `from` must be the shard executing this action");
  ECO_CHECK_MSG(t >= shards_[from]->sim.now() + pair_lookahead(from, to),
                "cross-shard event inside the conservative lookahead window");
  Shard& src = *shards_[from];
  // Self-chain echo cap (parallel.h file comment): any causal chain seeded
  // by this message returns to `from` no earlier than t + dest_floor(from)
  // — the return chain's last leg alone costs at least the cheapest
  // latency into `from` — so the posting shard's window must stop before
  // that time.
  src.sim.tighten_run_bound(t + dest_floor_[from]);
  // Only outbox 0 can still be unreserved here: a parallel stretch has
  // reserved them all.
  if (tls_run_context.outbox->capacity() == 0) reserve_mailboxes(1);
  tls_run_context.outbox->push_back(
      ShardMessage{t, static_cast<std::uint32_t>(from),
                   static_cast<std::uint32_t>(to), src.post_seq++,
                   std::move(action)});
}

bool ShardedSimulator::run_shard_window(std::size_t s, SimTime end,
                                        std::size_t tid) {
  const RunContext saved = tls_run_context;
  tls_run_context = RunContext{this, s, &slots_[tid]->outbox};
  bool ok = true;
  try {
    shards_[s]->sim.run_before(end);
  } catch (...) {
    shards_[s]->error = std::current_exception();
    ok = false;
  }
  tls_run_context = saved;
  return ok;
}

void ShardedSimulator::reserve_mailboxes(std::size_t count) {
  for (std::size_t t = 0; t < count; ++t) {
    slots_[t]->outbox.reserve(kOutboxReserve);
    slots_[t]->inbox.reserve(kOutboxReserve);
  }
}

void ShardedSimulator::rethrow_shard_error() {
  // The lowest shard's error is the run's; every other shard's error from
  // the same failed run is dropped, so a later clean run() does not throw.
  std::exception_ptr first;
  for (auto& s : shards_) {
    if (s->error && !first) first = s->error;
    s->error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

SimTime ShardedSimulator::shard_horizon(std::size_t d,
                                        const RoundPlan& plan) const {
  // The horizon is clamped to the run_until() bound: events at or after it
  // belong to the next segment. The clamp keeps the horizon a pure
  // function of published state, so determinism is unaffected.
  //
  // Both paths bound d by its *peers'* pending work only: at the round
  // start no chain originating on d has been seeded yet, and the moment
  // one is (d posts during its window) the echo cap in post_message()
  // tightens the running window — see parallel.h.
  if (!pair_matrix_.empty()) {
    // Exact column minimum over the dense pair matrix: the earliest any
    // peer's pending work could reach d.
    const std::size_t n = shards_.size();
    SimTime best = kNever;
    for (std::size_t s = 0; s < n; ++s) {
      const SimTime next = next_times_[s];
      if (s == d || next == kNever) continue;
      best = std::min(best, next + pair_matrix_[s * n + d]);
    }
    return std::min(best, run_bound_);
  }
  // Collapsed horizon from the plan's top-2 of next_s + source_floor_s:
  // min over s != d in O(1). source_floor <= L(s, d) for every d, so this
  // is a (possibly looser, never unsafe) bound.
  return std::min(plan.src_arg == d ? plan.src2 : plan.src1, run_bound_);
}

bool ShardedSimulator::surely_stalled(std::size_t d,
                                      const RoundPlan& plan) const {
  // Only the dense horizon costs O(shards); the collapsed one is O(1).
  // The floor shard f != d bounds the column minimum from above:
  // horizon(d) <= min(floor + L(f, d), run_bound_).
  if (pair_matrix_.empty() || plan.floor_arg == d) return false;
  const SimTime cap =
      plan.floor + pair_matrix_[plan.floor_arg * shards_.size() + d];
  return std::min(cap, run_bound_) <= next_times_[d];
}

void ShardedSimulator::prepare_run() {
  trace_prev_valid_ = false;
  // Seed next-event times, ready queues and fold partials — the same scan
  // the exchange phase performs at every round boundary.
  for (std::size_t t = 0; t < threads_; ++t) {
    slots_[t]->tally = RoundTally{};
    fold_range(t);
  }
}

void ShardedSimulator::fold_range(std::size_t slot) {
  WorkerSlot& me = *slots_[slot];
  const std::size_t lo = range_begin(slot);
  const std::size_t hi = range_begin(slot + 1);
  me.queue.clear();
  me.part_floor = kNever;
  me.part_floor_arg = 0;
  me.part_src1 = kNever;
  me.part_src2 = kNever;
  me.part_src_arg = 0;
  for (std::size_t d = lo; d < hi; ++d) {
    const Simulator& sim = shards_[d]->sim;
    const SimTime next = sim.idle() ? kNever : sim.next_event_time();
    next_times_[d] = next;
    if (next == kNever) continue;
    me.queue.push_back(static_cast<std::uint32_t>(d));
    if (next < me.part_floor) {
      me.part_floor = next;
      me.part_floor_arg = static_cast<std::uint32_t>(d);
    }
    if (!pair_matrix_.empty()) continue;  // dense horizons skip the top-2
    fold_top2(next + source_floor_[d], static_cast<std::uint32_t>(d),
              me.part_src1, me.part_src2, me.part_src_arg);
  }
  me.cursor.store(0, std::memory_order_relaxed);
}

ShardedSimulator::RoundTally ShardedSimulator::published_tally() const {
  RoundTally sum;
  for (const auto& slot : slots_) {
    const RoundTally& t = slot->tally;
    sum.executed += t.executed;
    sum.stalled += t.stalled;
    sum.stolen += t.stolen;
    sum.merged += t.merged;
    sum.events += t.events;
    sum.max_window = std::max(sum.max_window, t.max_window);
    sum.min_horizon = std::min(sum.min_horizon, t.min_horizon);
  }
  return sum;
}

ShardedSimulator::RoundPlan ShardedSimulator::plan_round(std::size_t tid) {
  // Every thread folds the same published partials in the same order, so
  // every thread derives the same plan — the top of the next-event
  // reduction, with no serial planner and no barrier of its own.
  RoundPlan plan;
  bool failed = false;
  for (const auto& slot : slots_) {
    if (slot->part_floor < plan.floor) {
      plan.floor = slot->part_floor;
      plan.floor_arg = slot->part_floor_arg;
    }
    fold_top2(slot->part_src1, slot->part_src_arg, plan.src1, plan.src2,
              plan.src_arg);
    plan.src2 = std::min(plan.src2, slot->part_src2);
    failed = failed || slot->tally.failed;
  }
  // Drained, a shard threw (run_until() rethrows it after the join), or
  // every remaining event sits at or past the run_until() bound — this
  // segment is over (the pending work is the next one's).
  plan.done = failed || plan.floor == kNever || plan.floor >= run_bound_;
  if (tid != 0) return plan;

  const RoundTally round = published_tally();
  shard_windows_ += round.executed;
  stalled_windows_ += round.stalled;
  steals_ += round.stolen;
  merged_messages_ += round.merged;
  dense_rounds_ += round.events - round.max_window >= kParallelSlack;
  if (trace_prev_valid_) {
    // The span for the round that just completed: [its floor, the tightest
    // horizon any shard ran to). Counters are cumulative tracks.
    const SimTime span_end = round.min_horizon == kNever
                                 ? trace_prev_floor_ + 1
                                 : round.min_horizon;
    ECO_TRACE_SPAN(obs::Cat::kSim, par_trace_names().window,
                   (obs::Lane{obs::kSimPid, kEngineTid}), trace_prev_floor_,
                   span_end, windows_ - 1);
    ECO_TRACE_COUNTER(obs::Cat::kSim, par_trace_names().messages,
                      (obs::Lane{obs::kSimPid, kEngineTid}),
                      trace_prev_floor_, merged_messages_);
    ECO_TRACE_COUNTER(obs::Cat::kSim, par_trace_names().stall,
                      (obs::Lane{obs::kSimPid, kEngineTid}),
                      trace_prev_floor_, stalled_windows_);
    if (threads_ > 1) {
      ECO_TRACE_COUNTER(obs::Cat::kSim, par_trace_names().steal,
                        (obs::Lane{obs::kSimPid, kEngineTid}),
                        trace_prev_floor_, steals_);
    }
  }
  if (!plan.done) {
    trace_prev_valid_ = true;
    trace_prev_floor_ = plan.floor;
    ++windows_;
  }
  return plan;
}

ShardedSimulator::RoundTally ShardedSimulator::execute_round(
    std::size_t tid, const RoundPlan& plan, bool solo) {
  WorkerSlot& me = *slots_[tid];
  // Every exchange that read this outbox finished before the last gate.
  me.outbox.clear();
  RoundTally tally;
  // The trace span ends at the round's smallest horizon, stalled shards'
  // included, so a recording run computes every horizon exactly.
  const bool exact = obs::recording(obs::Cat::kSim);
  const auto t0 = std::chrono::steady_clock::now();
  const auto run = [&](std::size_t d) {
    if (!exact && surely_stalled(d, plan)) {
      ++tally.stalled;
      return;
    }
    const SimTime horizon = shard_horizon(d, plan);
    tally.min_horizon = std::min(tally.min_horizon, horizon);
    if (horizon > next_times_[d]) {
      ++tally.executed;
      const std::uint64_t before = shards_[d]->sim.events_processed();
      if (!run_shard_window(d, horizon, tid)) tally.failed = true;
      const std::uint64_t ran = shards_[d]->sim.events_processed() - before;
      tally.events += ran;
      tally.max_window = std::max(tally.max_window, ran);
    } else {
      // Pending work the horizon forbade: a barrier stall. Deterministic
      // (horizons derive from published simulation state only).
      ++tally.stalled;
    }
  };
  if (solo) {
    // One thread claims every candidate, in queue order.
    for (const auto& slot : slots_) {
      for (const std::uint32_t d : slot->queue) run(d);
    }
  } else {
    // Claim shard windows: own queue first, then sweep the other queues
    // round-robin. Queues are fixed for the round, so one sweep claims
    // every candidate exactly once (atomic cursor bump), and whichever
    // thread claims a shard never affects results — only which outbox its
    // messages ride, which the canonical merge washes out.
    const std::size_t nthreads = threads_;
    for (std::size_t v = 0; v < nthreads; ++v) {
      WorkerSlot& q = *slots_[(tid + v) % nthreads];
      for (;;) {
        const std::uint32_t idx =
            q.cursor.fetch_add(1, std::memory_order_relaxed);
        if (idx >= q.queue.size()) break;
        if (v != 0) ++tally.stolen;
        run(q.queue[idx]);
      }
    }
  }
  me.busy_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return tally;
}

void ShardedSimulator::exchange(std::size_t tid, bool solo,
                                RoundTally tally) {
  WorkerSlot& me = *slots_[tid];
  const std::size_t last = solo ? threads_ : tid + 1;
  const std::size_t lo = range_begin(tid);
  const std::size_t hi = range_begin(last);
  // Gather the messages addressed to this thread's shard range from every
  // outbox and insert them in canonical order, so destination seq numbers
  // come out thread-count invariant. Threads only read the keys of other
  // threads' messages and move out the actions of their own range's. A
  // solo round posts into outbox 0 only; the others hold stale messages.
  me.inbox.clear();
  for (std::size_t t = 0; t < (solo ? 1 : threads_); ++t) {
    const std::vector<ShardMessage>& outbox = slots_[t]->outbox;
    for (std::size_t i = 0; i < outbox.size(); ++i) {
      const ShardMessage& m = outbox[i];
      if (m.dst < lo || m.dst >= hi) continue;
      me.inbox.push_back(InboxItem{m.time, m.src, m.dst, m.seq,
                                   static_cast<std::uint32_t>(t),
                                   static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(me.inbox.begin(), me.inbox.end(), MergeKeyLess{});
  std::size_t i = 0;
  try {
    for (; i < me.inbox.size(); ++i) {
      const InboxItem& it = me.inbox[i];
      shards_[it.dst]->sim.schedule_at(
          it.time, std::move(slots_[it.box]->outbox[it.pos].action));
    }
  } catch (...) {
    // A message into its destination's past (a post across a run() seam
    // whose shard clocks drifted apart). Fail the round as a throwing
    // window does, so every thread leaves it through the next plan and
    // run() rethrows.
    Shard& dst = *shards_[me.inbox[i].dst];
    if (!dst.error) dst.error = std::current_exception();
    tally.failed = true;
  }
  if (me.outbox.size() > kOutboxReserve) {
    me.spills += me.outbox.size() - kOutboxReserve;
  }
  tally.merged = me.inbox.size();
  me.tally = tally;
  fold_range(tid);
  for (std::size_t t = tid + 1; t < last; ++t) {
    slots_[t]->tally = RoundTally{};  // the round's tally is in slot tid
    fold_range(t);
  }
}

bool ShardedSimulator::drive(std::size_t tid, RoundGate* gate) {
  // Round schedule (gates in parallel stretches only):
  //   plan | execute | gate | exchange | gate | next plan ...
  // Every thread derives the same plans, so all leave after the same round.
  const std::size_t budget = stretch_;
  for (std::size_t r = 0; r < budget; ++r) {
    const RoundPlan plan = plan_round(tid);
    if (plan.done) return true;
    const RoundTally tally = execute_round(tid, plan, gate == nullptr);
    if (gate) gate->sync();  // every window finished, every outbox final
    exchange(tid, gate == nullptr, tally);
    if (gate) gate->sync();  // tallies and partials published
  }
  return false;
}

bool ShardedSimulator::run_parallel() {
  if (!gate_) {
    // Spawned by the first parallel stretch, not at construction, and kept
    // for the engine's lifetime: a later stretch costs a gate crossing,
    // not threads-1 spawns and joins.
    reserve_mailboxes(threads_);
    gate_ = std::make_unique<RoundGate>(static_cast<std::uint32_t>(threads_));
    const std::size_t home = current_cpu();
    workers_.reserve(threads_ - 1);
    for (std::size_t t = 1; t < threads_; ++t) {
      workers_.emplace_back([this, t, home] {
        start_on_cpu(home + t);
        for (;;) {
          gate_->sync();  // a stretch starts, or the destructor stops us
          if (stop_) return;
          if (drive(t, gate_.get())) gate_->sync();
        }
      });
    }
  }
  gate_->sync();  // stretch start: the bound, budget and partials are set
  // A stretch out of budget ends on an exchange gate; one that ends the
  // segment ends on a plan, still reading the partials: one more crossing.
  const bool done = drive(0, gate_.get());  // the caller is worker 0
  if (done) gate_->sync();
  return done;
}

void ShardedSimulator::run() { run_until(kNever); }

bool ShardedSimulator::run_until(SimTime bound) {
  run_bound_ = bound;
  prepare_run();
  // Run a stretch in the current mode, then pick the next mode from the
  // stretch's share of dense rounds (parallel.h).
  std::uint64_t dense_seen = dense_rounds_;  // prepare_run() zeroed tallies
  for (bool done = false; !done;) {
    const std::uint64_t first = windows_;
    done = parallel_ ? run_parallel() : drive(0, nullptr);
    const std::uint64_t rounds = windows_ - first;
    if (rounds == 0) break;  // the segment was over before the stretch
    if (parallel_) parallel_rounds_ += rounds;
    // The last round is published but accounted only by the next plan.
    const RoundTally last = published_tally();
    const std::uint64_t dense =
        dense_rounds_ +
        (!done && last.events - last.max_window >= kParallelSlack);
    const bool parallel =
        threads_ > 1 && (pinned_parallel_ || 2 * (dense - dense_seen) > rounds);
    stretch_ = parallel == parallel_ ? std::min(2 * stretch_, kMaxStretch) : 1;
    parallel_ = parallel;
    dense_seen = dense;
  }
  run_bound_ = kNever;
  rethrow_shard_error();
  for (const auto& s : shards_) {
    if (!s->sim.idle()) return false;
  }
  return true;
}

std::uint64_t ShardedSimulator::messages() const {
  return reduce_tree<std::uint64_t>(
      shards_.size(), 0,
      [&](std::size_t s) { return shards_[s]->post_seq; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

std::uint64_t ShardedSimulator::mailbox_spills() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->spills;
  return total;
}

std::size_t ShardedSimulator::mailbox_state_bytes() const {
  std::size_t messages = 0;
  for (const auto& slot : slots_) messages += slot->outbox.capacity();
  return messages * sizeof(ShardMessage);
}

std::uint64_t ShardedSimulator::events_processed() const {
  return reduce_tree<std::uint64_t>(
      shards_.size(), 0,
      [&](std::size_t s) { return shards_[s]->sim.events_processed(); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

SimTime ShardedSimulator::now() const {
  return reduce_tree<SimTime>(
      shards_.size(), 0,
      [&](std::size_t s) { return shards_[s]->sim.now(); },
      [](SimTime a, SimTime b) { return std::max(a, b); });
}

std::uint64_t ShardedSimulator::shard_wall_time_ns() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->busy_ns;
  return total;
}

}  // namespace ecoscale
