// Allocation-free tracing & metrics (spans, instants, counter tracks).
//
// The paper's claims are timeline arguments — when a worker stalled on a
// remote page, queued behind a shared accelerator, waited out a partial
// reconfiguration — so every load-bearing layer emits typed POD events
// into a per-thread fixed-capacity ring. A TraceSession owns the rings,
// applies category filters and counter sampling, and serializes to Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing; `pid` = node,
// `tid` = worker/accelerator lane) plus a compact text summary of the top
// spans by total and self time.
//
// Hot-path contract:
//  * Disabled (the default): every ECO_TRACE_* site is one relaxed atomic
//    load and a predictable branch. Compile with ECO_TRACE_DISABLED to
//    make the sites expand to `(void)0` entirely.
//  * Enabled: emitting writes one 32-byte POD into a preallocated ring —
//    no heap allocation, no locks, no string work. Names and categories
//    are interned CounterIds (common/intern.h), resolved once per call
//    site; timestamps are sim-time picoseconds from the caller.
//  * The ring is a window: when it wraps, the oldest events are evicted
//    (counted, reported at export). Begin/end spans that lost their
//    partner to eviction — or to a path that legitimately never closes,
//    such as a task killed by failure injection — are repaired at export.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/intern.h"
#include "common/units.h"

namespace ecoscale::obs {

/// Event categories, one bit each in the session filter mask. Fixed small
/// vocabulary: mostly the subsystem a call site lives in, plus four
/// cross-cutting fault-lifecycle categories (injection, detection, retry,
/// failover) that span subsystems and need to be filterable on their own.
enum class Cat : std::uint8_t {
  kSim = 0,       // simulation kernel (event dispatch, pending depth)
  kRuntime = 1,   // task lifetime: queue/exec/spill/failure, daemon
  kUnimem = 2,    // PGAS remote accesses, page/task migration
  kUnilogic = 3,  // accelerator pool: queue/execute/doorbell
  kFabric = 4,    // partial reconfiguration
  kNet = 5,       // interconnect counters
  kApp = 6,       // free for benches/apps
  kFault = 7,     // injected faults: crash/repair/node loss/SEU/link
  kDetect = 8,    // heartbeat-monitor detections of injected faults
  kRetry = 9,     // bounded retry attempts (PGAS access, pool doorbell)
  kFailover = 10, // recovery actions: page re-home, task re-queue
  kServe = 11,    // serving workloads: request lifecycle, shed, apply
  kRepart = 12,   // online repartitioner: epoch folds, plans, migrations
};
inline constexpr std::size_t kCatCount = 13;

constexpr std::uint32_t cat_bit(Cat c) {
  return std::uint32_t{1} << static_cast<unsigned>(c);
}
inline constexpr std::uint32_t kAllCats = (std::uint32_t{1} << kCatCount) - 1;

/// Short name used in the exported `cat` field and in --trace-categories.
const char* cat_name(Cat c);

/// Parse a comma-separated category list ("unimem,net"); empty or "all"
/// selects every category. Unknown names are ignored (a warning would be
/// noise in sweeps; trace_summary.py reports what is actually present).
std::uint32_t cat_mask_from_list(std::string_view csv);

enum class EventType : std::uint8_t {
  kBegin = 0,     // span opens at ts
  kEnd = 1,       // span closes at ts (pairs with the innermost kBegin)
  kComplete = 2,  // span with known duration, emitted once
  kInstant = 3,   // point event
  kCounter = 4,   // counter track sample (value)
};

/// Timeline lane: `pid` maps to the Chrome trace process (the node),
/// `tid` to the thread (worker / accelerator / queue lane).
struct Lane {
  std::uint16_t pid = 0;
  std::uint16_t tid = 0;
};
/// Reserved pids for machine-wide tracks.
inline constexpr std::uint16_t kSimPid = 0xFFFF;  // simulation kernel
inline constexpr std::uint16_t kNetPid = 0xFFFE;  // interconnect
/// Worker `w`'s queue-wait lane is tid kQueueTidBase + w (its execution
/// lane is plain tid w); queue spans overlap, so they get their own lane.
inline constexpr std::uint16_t kQueueTidBase = 0x100;

/// One trace event. 32-byte POD: the ring is a flat array of these and an
/// emit is a single struct store.
struct TraceEvent {
  SimTime ts = 0;            // picoseconds
  std::uint64_t value = 0;   // kComplete: duration ps; kCounter: value
  CounterId name = 0;        // interned event name
  std::uint32_t arg = 0;     // numeric attribute (bytes, task id, ...)
  std::uint16_t pid = 0;
  std::uint16_t tid = 0;
  EventType type = EventType::kInstant;
  std::uint8_t cat = 0;
  std::uint16_t pad = 0;
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay one store");

/// Fixed-capacity ring of trace events, single-writer (one per thread).
/// Capacity is rounded up to a power of two at construction; after that,
/// emitting never allocates. Wrapping evicts the oldest events.
class TraceRecorder {
 public:
  TraceRecorder(std::size_t capacity, std::uint32_t counter_sample_every);

  void emit(EventType type, Cat cat, CounterId name, Lane lane, SimTime ts,
            std::uint64_t value, std::uint32_t arg) {
    TraceEvent& e = ring_[static_cast<std::size_t>(head_) & mask_];
    e.ts = ts;
    e.value = value;
    e.name = name;
    e.arg = arg;
    e.pid = lane.pid;
    e.tid = lane.tid;
    e.type = type;
    e.cat = static_cast<std::uint8_t>(cat);
    ++head_;
  }

  /// Counter-track sampling gate: true every Nth call (N = the session's
  /// counter_sample_every; 0/1 keeps every sample). Shared across the
  /// thread's counter sites — it thins the track, it does not ration
  /// fairly per name.
  bool counter_due() {
    if (counter_every_ <= 1) return true;
    return (counter_tick_++ % counter_every_) == 0;
  }

  std::uint64_t emitted() const { return head_; }
  std::uint64_t dropped() const {
    return head_ > ring_.size() ? head_ - ring_.size() : 0;
  }
  std::size_t size() const {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                : ring_.size();
  }
  /// Event `i` of the retained window, oldest first (0 <= i < size()).
  const TraceEvent& at(std::size_t i) const {
    const std::uint64_t first = head_ - size();
    return ring_[static_cast<std::size_t>(first + i) & mask_];
  }

 private:
  std::vector<TraceEvent> ring_;  // sized once at construction
  std::uint64_t head_ = 0;
  std::size_t mask_ = 0;
  std::uint32_t counter_every_ = 1;
  std::uint32_t counter_tick_ = 0;
};

struct TraceOptions {
  std::string path;                    // export target ("" = caller exports)
  std::uint32_t categories = kAllCats; // cat_bit() mask
  std::size_t ring_capacity = std::size_t{1} << 18;  // events per thread
  std::uint32_t counter_sample_every = 16;           // thin counter tracks
};

/// Category filter mask; 0 means tracing is off. Read on every ECO_TRACE_*
/// site, so it is a bare relaxed atomic, not a function call.
extern std::atomic<std::uint32_t> g_trace_mask;

/// Process-wide session. start() arms the mask and resets recorders;
/// threads register their ring lazily on first emit (the only allocating
/// step, part of warm-up). stop() disarms but keeps the events so they
/// can still be exported. Leaked singleton: safe to export from atexit.
class TraceSession {
 public:
  static TraceSession& instance();

  void start(TraceOptions opts);
  void stop() { g_trace_mask.store(0, std::memory_order_relaxed); }
  bool active() const {
    return g_trace_mask.load(std::memory_order_relaxed) != 0;
  }
  const TraceOptions& options() const { return opts_; }

  /// This thread's recorder, registering it with the session on first use
  /// (or after a start() reset).
  TraceRecorder& thread_recorder();

  /// Serialize every recorder to Chrome trace-event JSON. Begin/end pairs
  /// are matched per lane and exported as complete ("X") spans; orphaned
  /// ends open at the window start, orphaned begins close at the window
  /// end, so the output is always balanced and well-formed.
  void export_json(std::ostream& os) const;
  /// Export to options().path (or `path` if given). False on I/O failure.
  bool export_file(const std::string& path = "") const;

  /// Compact text summary: event totals plus the top spans ranked by
  /// total and by self (non-child) sim-time.
  std::string summary(std::size_t top_n = 10) const;

  std::uint64_t events_recorded() const;
  std::uint64_t events_dropped() const;

 private:
  TraceSession() = default;
  TraceRecorder* register_thread();

  TraceOptions opts_;
  /// Bumped by start(); invalidates the per-thread cached recorder.
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::vector<std::unique_ptr<TraceRecorder>> recorders_;
  mutable std::mutex mu_;  // guards recorders_ registration (cold path)
};

/// True while `c` is enabled. Unlike tracer(), never registers a ring.
inline bool recording(Cat c) {
  return (g_trace_mask.load(std::memory_order_relaxed) & cat_bit(c)) != 0;
}

/// Hot-path gate: nullptr unless `c` is enabled. The common (disabled)
/// path is one load + one test.
inline TraceRecorder* tracer(Cat c) {
  if (!recording(c)) return nullptr;
  return &TraceSession::instance().thread_recorder();
}

}  // namespace ecoscale::obs

// --- instrumentation macros -------------------------------------------------
//
// All arguments after `cat` are evaluated only when the category is
// enabled, so name lookups (function-local statics) and attribute
// computation cost nothing while tracing is off. ECO_TRACE_DISABLED
// removes the sites entirely: the arguments only appear in an unevaluated
// sizeof, so they generate no code but still count as uses, and a local
// or helper that exists only to feed a trace site does not warn.
#if defined(ECO_TRACE_DISABLED)

#define ECO_TRACE_UNEVALUATED_(...) ((void)sizeof((__VA_ARGS__)))
#define ECO_TRACE_SPAN(cat, name_id, lane, start_ts, end_ts, arg) \
  ECO_TRACE_UNEVALUATED_((cat), (name_id), (lane), (start_ts), (end_ts), (arg))
#define ECO_TRACE_BEGIN(cat, name_id, lane, ts) \
  ECO_TRACE_UNEVALUATED_((cat), (name_id), (lane), (ts))
#define ECO_TRACE_END(cat, name_id, lane, ts) \
  ECO_TRACE_UNEVALUATED_((cat), (name_id), (lane), (ts))
#define ECO_TRACE_INSTANT(cat, name_id, lane, ts, arg) \
  ECO_TRACE_UNEVALUATED_((cat), (name_id), (lane), (ts), (arg))
#define ECO_TRACE_COUNTER(cat, name_id, lane, ts, value) \
  ECO_TRACE_UNEVALUATED_((cat), (name_id), (lane), (ts), (value))

#else

/// Complete span [start_ts, end_ts] with a numeric attribute.
#define ECO_TRACE_SPAN(cat, name_id, lane, start_ts, end_ts, arg)            \
  do {                                                                       \
    if (::ecoscale::obs::TraceRecorder* eco_tr_ =                            \
            ::ecoscale::obs::tracer(cat)) {                                  \
      const ::ecoscale::SimTime eco_t0_ = (start_ts);                        \
      eco_tr_->emit(::ecoscale::obs::EventType::kComplete, (cat),            \
                    (name_id), (lane), eco_t0_,                              \
                    static_cast<std::uint64_t>((end_ts) - eco_t0_),          \
                    static_cast<std::uint32_t>(arg));                        \
    }                                                                        \
  } while (0)

#define ECO_TRACE_BEGIN(cat, name_id, lane, ts)                              \
  do {                                                                       \
    if (::ecoscale::obs::TraceRecorder* eco_tr_ =                            \
            ::ecoscale::obs::tracer(cat)) {                                  \
      eco_tr_->emit(::ecoscale::obs::EventType::kBegin, (cat), (name_id),    \
                    (lane), (ts), 0, 0);                                     \
    }                                                                        \
  } while (0)

#define ECO_TRACE_END(cat, name_id, lane, ts)                                \
  do {                                                                       \
    if (::ecoscale::obs::TraceRecorder* eco_tr_ =                            \
            ::ecoscale::obs::tracer(cat)) {                                  \
      eco_tr_->emit(::ecoscale::obs::EventType::kEnd, (cat), (name_id),      \
                    (lane), (ts), 0, 0);                                     \
    }                                                                        \
  } while (0)

#define ECO_TRACE_INSTANT(cat, name_id, lane, ts, arg)                       \
  do {                                                                       \
    if (::ecoscale::obs::TraceRecorder* eco_tr_ =                            \
            ::ecoscale::obs::tracer(cat)) {                                  \
      eco_tr_->emit(::ecoscale::obs::EventType::kInstant, (cat), (name_id),  \
                    (lane), (ts), 0, static_cast<std::uint32_t>(arg));       \
    }                                                                        \
  } while (0)

/// Counter-track sample, thinned by the session's sampling interval.
#define ECO_TRACE_COUNTER(cat, name_id, lane, ts, value)                     \
  do {                                                                       \
    if (::ecoscale::obs::TraceRecorder* eco_tr_ =                            \
            ::ecoscale::obs::tracer(cat)) {                                  \
      if (eco_tr_->counter_due()) {                                         \
        eco_tr_->emit(::ecoscale::obs::EventType::kCounter, (cat),           \
                      (name_id), (lane), (ts),                               \
                      static_cast<std::uint64_t>(value), 0);                 \
      }                                                                      \
    }                                                                        \
  } while (0)

#endif  // ECO_TRACE_DISABLED
