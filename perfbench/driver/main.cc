// perfbench — the repository benchmark's driver (see ../README.md).
//
//   perfbench --workload <kv_open|kv_repart|graph_pgas> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// One run: an untimed reference pass at one simulation thread (caches and
// lazy set-up warm, full output checks, every simulated-time metric), then
// alternating timed passes at 1 and N = min(4, nproc - 1) threads on identical
// inputs until --seconds have elapsed, each pass's fingerprint compared
// with the reference's. With --trace 1, a few more one-thread passes run
// with obs::TraceSession recording every category; the benchmark-side
// host spans and the trace's per-category totals are written to
// --trace-out at exit.
//
// Prints one JSON line on stdout: correct / attempted / failed and every
// measured value by name (failed checks are listed on stderr). run.py turns
// it into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/trace.h"
#include "runtime/machine.h"

namespace perfbench {
namespace {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace

HostTime HostSpans::close(std::size_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("host spans must close innermost first");
  }
  open_.pop_back();
  Span& s = spans_[id];
  s.end_ns = host_now_ns();
  s.cpu_ns = thread_cpu_ns() - s.cpu_start_ns;
  return HostTime{s.end_ns - s.start_ns, s.cpu_ns};
}

double HostSpans::median_self_s(const std::string& name,
                                std::size_t threads) const {
  std::vector<double> self_ns(passes_.size(), 0.0);
  std::vector<bool> seen(passes_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double self = static_cast<double>(s.end_ns - s.start_ns);
    if (name != s.name) continue;
    for (std::size_t j = i + 1; j < spans_.size() && spans_[j].pass == s.pass;
         ++j) {
      if (spans_[j].parent == static_cast<int>(i)) {
        self -= static_cast<double>(spans_[j].end_ns - spans_[j].start_ns);
      }
    }
    self_ns[s.pass] += self;
    seen[s.pass] = true;
  }
  std::vector<double> per_pass;
  for (std::size_t p = 0; p < passes_.size(); ++p) {
    const Pass& pass = passes_[p];
    if (seen[p] && pass.timed && !pass.traced &&
        (threads == 0 || pass.threads == threads)) {
      per_pass.push_back(self_ns[p] / 1e9);
    }
  }
  return median(per_pass);
}

void MachineCounters::add(ecoscale::Machine& m) {
  ecoscale::PgasSystem& pgas = m.pgas();
  local += pgas.local_accesses();
  remote += pgas.remote_accesses();
  retries += pgas.remote_retries();
  failovers += pgas.page_failovers();
  // Untouched workers' caches are built on demand with zero counts, so
  // summing over every worker is the sum over the constructed caches.
  for (std::size_t w = 0; w < m.worker_count(); ++w) {
    const ecoscale::Cache& c = pgas.cache(pgas.coord(w));
    hits += c.hits();
    misses += c.misses();
  }
  byte_hops += pgas.network().byte_hops();
  packets += pgas.network().total_packets();
  peak_live_intervals =
      std::max(peak_live_intervals, pgas.network().peak_live_intervals());
}

void MachineCounters::to_values(std::uint64_t ops, Values& v) const {
  const auto frac = [](std::uint64_t num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  v["unimem.accesses_per_op"] = frac(local + remote, ops);
  v["unimem.remote_frac"] = frac(remote, local + remote);
  v["unimem.remote_retries"] = static_cast<double>(retries);
  v["unimem.page_failovers"] = static_cast<double>(failovers);
  v["memory.cache_hit_rate"] = frac(hits, hits + misses);
  v["interconnect.byte_hops_per_op"] = frac(byte_hops, ops);
  v["interconnect.packets_per_op"] = frac(packets, ops);
  v["interconnect.peak_live_intervals"] =
      static_cast<double>(peak_live_intervals);
}

std::vector<ServeSpan> record_serve_spans(const std::function<void()>& body,
                                          std::vector<std::string>& errors) {
  using ecoscale::obs::TraceSession;
  TraceSession& session = TraceSession::instance();
  ecoscale::obs::TraceOptions topts;
  topts.categories = ecoscale::obs::cat_bit(ecoscale::obs::Cat::kServe);
  topts.ring_capacity = std::size_t{1} << 18;
  session.start(topts);
  try {
    body();
  } catch (...) {
    session.stop();
    throw;
  }
  session.stop();
  if (session.events_dropped() > 0) {
    errors.push_back("reference trace ring dropped " +
                     std::to_string(session.events_dropped()) + " events");
  }
  const ecoscale::obs::TraceRecorder& rec = session.thread_recorder();
  std::vector<ServeSpan> out;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const ecoscale::obs::TraceEvent& e = rec.at(i);
    if (e.type == ecoscale::obs::EventType::kComplete) {
      out.push_back(ServeSpan{e.ts, e.value, e.tid});
    }
  }
  return out;
}

namespace {

/// Calibration: fixed host work, timed before and after every timed pass.
/// One-thread host times are measured as the thread's CPU time, which
/// leaves out the time the shared host runs other work on the core, and
/// scaled by kCalibrationRefNs / the calibration's CPU time, which cancels
/// what still varies (frequency, a busy sibling core): they read as
/// nanoseconds on a reference host where the calibration takes exactly
/// kCalibrationRefNs. A change to the simulator moves the scaled time
/// exactly as it moves the raw one. The N-thread time is wall time, raw: it
/// is dominated by cross-thread wake-ups, which neither clock's correction
/// tracks.
constexpr std::uint64_t kCalibrationSteps = 1'500'000;
constexpr double kCalibrationRefNs = 7.0e6;
constexpr std::size_t kCalibrationTableWords = std::size_t{1} << 20;

/// An LCG driving scattered read-modify-writes over a private 4 MiB table.
HostTime calibrate() {
  static std::vector<std::uint32_t> table(kCalibrationTableWords);
  constexpr std::uint64_t mask = kCalibrationTableWords - 1;
  const std::uint64_t wall0 = host_now_ns();
  const std::uint64_t cpu0 = thread_cpu_ns();
  std::uint64_t x = 1;
  std::uint32_t acc = 0;
  for (std::uint64_t i = 0; i < kCalibrationSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    table[(x >> 20) & mask] += static_cast<std::uint32_t>(x >> 40) ^ acc;
    acc += table[(x >> 33) & mask];
  }
  table[0] = acc;  // keeps the loop observable
  return HostTime{host_now_ns() - wall0, thread_cpu_ns() - cpu0};
}

/// One pass between two calibrations; a pass can outlast a phase of the
/// host's speed, so the scale uses the mean of both.
PassResult calibrated_pass(Workload& w, std::size_t threads, HostSpans& spans) {
  HostTime calibration = calibrate();
  PassResult p = w.pass(threads, spans);
  calibration += calibrate();
  p.calibration = HostTime{calibration.wall_ns / 2, calibration.cpu_ns / 2};
  return p;
}

constexpr std::size_t kMinPasses = 3;  // per thread count
constexpr std::size_t kMaxPasses = 5000;
constexpr std::size_t kTracedPasses = 3;
constexpr std::size_t kTraceRingEvents = std::size_t{1} << 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <kv_open|kv_repart|graph_pgas> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    std::size_t used = 0;
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &used);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &used);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        used = value.size();
        have_trace = true;
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
    if (flag != "--workload" && flag != "--trace-out" && used != value.size()) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) usage("--seconds out of range");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "kv_open") return make_kv_open(o.seed);
  if (o.workload == "kv_repart") return make_kv_repart(o.seed);
  if (o.workload == "graph_pgas") return make_graph_pgas(o.seed);
  usage("unknown workload " + o.workload);
}

template <typename F>
double median_of(const std::vector<PassResult>& passes, F&& f) {
  std::vector<double> xs;
  for (const PassResult& p : passes) xs.push_back(f(p));
  return median(xs);
}

std::string json_string(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
         << static_cast<int>(c) << std::dec;
    } else {
      os << c;
    }
  }
  os << '"';
  return os.str();
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << x;
  return os.str();
}

/// Sim-time span totals (picoseconds) and counts per trace category over
/// this thread's recorder: complete spans carry their duration, begin/end
/// pairs are matched innermost-first per lane as the exporter does. The
/// sharded runtime's nodes all trace on pid 0, so pairs from different
/// shards can interleave on one lane; a pairing that would end before it
/// begins is counted in `mismatched` and left out of the totals, as is an
/// end whose begin was evicted.
struct CategorySpans {
  double total_ps[ecoscale::obs::kCatCount] = {};
  std::uint64_t count[ecoscale::obs::kCatCount] = {};
  std::uint64_t mismatched = 0;
};

CategorySpans category_spans(const ecoscale::obs::TraceRecorder& rec) {
  using ecoscale::obs::EventType;
  CategorySpans out;
  std::map<std::uint32_t, std::vector<const ecoscale::obs::TraceEvent*>> open;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const ecoscale::obs::TraceEvent& e = rec.at(i);
    const std::uint32_t lane = (std::uint32_t{e.pid} << 16) | e.tid;
    if (e.type == EventType::kComplete) {
      out.total_ps[e.cat] += static_cast<double>(e.value);
      ++out.count[e.cat];
    } else if (e.type == EventType::kBegin) {
      open[lane].push_back(&e);
    } else if (e.type == EventType::kEnd) {
      std::vector<const ecoscale::obs::TraceEvent*>& stack = open[lane];
      if (stack.empty() || stack.back()->ts > e.ts) {
        if (!stack.empty()) stack.pop_back();
        ++out.mismatched;
        continue;
      }
      const ecoscale::obs::TraceEvent& b = *stack.back();
      stack.pop_back();
      out.total_ps[b.cat] += static_cast<double>(e.ts - b.ts);
      ++out.count[b.cat];
    }
  }
  return out;
}

void write_trace_file(const Options& o, std::size_t threads_n,
                      const HostSpans& spans, const CategorySpans& cats,
                      const Values& v) {
  std::ofstream os(o.trace_out);
  if (!os) {
    std::cerr << "perfbench: cannot write " << o.trace_out << "\n";
    return;
  }
  os << "{\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
     << ", \"sim_threads_n\": " << threads_n << ",\n \"passes\": [";
  for (std::size_t p = 0; p < spans.passes().size(); ++p) {
    const HostSpans::Pass& pass = spans.passes()[p];
    os << (p ? ", " : "") << "{\"threads\": " << pass.threads
       << ", \"timed\": " << (pass.timed ? "true" : "false")
       << ", \"traced\": " << (pass.traced ? "true" : "false") << "}";
  }
  os << "],\n \"host_spans\": [";
  const std::uint64_t t0 = spans.spans().empty() ? 0 : spans.spans()[0].start_ns;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const HostSpans::Span& s = spans.spans()[i];
    os << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_string(s.name)
       << ", \"pass\": " << s.pass << ", \"parent\": " << s.parent
       << ", \"start_ns\": " << s.start_ns - t0
       << ", \"dur_ns\": " << s.end_ns - s.start_ns
       << ", \"cpu_ns\": " << s.cpu_ns << "}";
  }
  os << "],\n \"sim_spans_by_category\": {";
  for (std::size_t c = 0; c < ecoscale::obs::kCatCount; ++c) {
    os << (c ? ", " : "") << json_string(ecoscale::obs::cat_name(
                                 static_cast<ecoscale::obs::Cat>(c)))
       << ": {\"total_us\": " << json_number(cats.total_ps[c] / 1e6)
       << ", \"count\": " << cats.count[c] << "}";
  }
  os << "},\n \"mismatched_begin_end\": " << cats.mismatched;
  os << ",\n \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : v) {
    os << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  os << "},\n \"obs_summary\": "
     << json_string(ecoscale::obs::TraceSession::instance().summary()) << "}\n";
}

int run(const Options& o) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  // N leaves one core to the rest of the host: at N = nproc any other
  // runnable thread preempts a barrier participant and stalls all N (one
  // busy thread raised kv_open's N-thread cost by a third at N = 4 of 4
  // vCPUs, and left it unchanged at N = 3).
  const std::size_t threads_n =
      std::min<std::size_t>(4, std::max<std::size_t>(1, hw - 1));
  std::unique_ptr<Workload> workload = make_workload(o);

  HostSpans spans;
  Values v;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  const auto account = [&](const PassResult& p, const PassResult& ref,
                           const char* what) {
    attempted += p.ops;
    failed += p.failed;
    if (p.fingerprint != ref.fingerprint) {
      errors.push_back(std::string(what) +
                       " fingerprint differs from the reference pass");
    }
  };

  spans.begin_pass(1, false, false);
  const PassResult ref = workload->reference(spans, v, errors);
  attempted += ref.ops;
  failed += ref.failed;

  // Timed passes: whichever thread count has had less host time so far
  // runs next, so the cheap one-thread passes get as many seconds (and
  // many more samples) as the N-thread ones.
  std::vector<PassResult> t1, tn;
  std::uint64_t t1_ns = 0, tn_ns = 0;
  const std::uint64_t start = host_now_ns();
  while (t1.size() < kMinPasses || tn.size() < kMinPasses ||
         (static_cast<double>(host_now_ns() - start) / 1e9 < o.seconds &&
          t1.size() + tn.size() < kMaxPasses)) {
    const bool one = t1_ns <= tn_ns;
    const std::size_t threads = one ? 1 : threads_n;
    const std::uint64_t pass_start = host_now_ns();
    spans.begin_pass(threads, false, true);
    std::vector<PassResult>& passes = one ? t1 : tn;
    passes.push_back(calibrated_pass(*workload, threads, spans));
    (one ? t1_ns : tn_ns) += host_now_ns() - pass_start;
    account(passes.back(), ref, one ? "1-thread" : "N-thread");
  }

  // --- end to end: host time, medians over the timed passes ---------------
  const auto ns_per_op = [](const PassResult& p) {
    return ratio(static_cast<double>(p.run.wall_ns),
                 static_cast<double>(p.ops));
  };
  const auto scale = [](const PassResult& p) {
    return kCalibrationRefNs / static_cast<double>(p.calibration.cpu_ns);
  };
  const auto scaled_cpu_ns_per_op = [&](const PassResult& p) {
    return ratio(static_cast<double>(p.run.cpu_ns),
                 static_cast<double>(p.ops)) *
           scale(p);
  };
  v["host_ns_per_op_t1"] = median_of(t1, scaled_cpu_ns_per_op);
  v["host_ns_per_op_tn"] = median_of(tn, ns_per_op);
  std::vector<PassResult> all = t1;
  all.insert(all.end(), tn.begin(), tn.end());
  // Set-up runs on this thread at every thread count.
  v["setup_s"] = median_of(all, [&](const PassResult& p) {
    return static_cast<double>(p.setup.cpu_ns) / 1e9 * scale(p);
  });
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  v["peak_rss_mb"] = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  // --- per layer: simulation engine ----------------------------------------
  const double ref_ops = static_cast<double>(ref.ops);
  v["sim.events_per_op"] = ratio(static_cast<double>(ref.events), ref_ops);
  v["sim.rounds_per_op"] = ratio(static_cast<double>(ref.rounds), ref_ops);
  v["sim.events_per_round"] =
      ratio(static_cast<double>(ref.events), static_cast<double>(ref.rounds));
  v["sim.busy_ns_per_event_t1"] = median_of(t1, [](const PassResult& p) {
    return ratio(static_cast<double>(p.shard_busy_ns),
                 static_cast<double>(p.events));
  });
  const double n = static_cast<double>(threads_n);
  v["sim.busy_frac_tn"] = median_of(tn, [n](const PassResult& p) {
    return ratio(static_cast<double>(p.shard_busy_ns),
                 n * static_cast<double>(p.run.wall_ns));
  });
  v["sim.overhead_ns_per_round_tn"] = median_of(tn, [n](const PassResult& p) {
    return ratio(static_cast<double>(p.run.wall_ns) -
                     static_cast<double>(p.shard_busy_ns) / n,
                 static_cast<double>(p.rounds));
  });
  v["host.raw_ns_per_op_t1"] = median_of(t1, ns_per_op);
  v["host.calibration_ms"] = median_of(all, [](const PassResult& p) {
    return static_cast<double>(p.calibration.cpu_ns) / 1e6;
  });
  v["sim.speedup_tn"] =
      ratio(v["host.raw_ns_per_op_t1"], v["host_ns_per_op_tn"]);
  v["sim.mailbox_spills_tn"] = median_of(
      tn, [](const PassResult& p) { return static_cast<double>(p.mailbox_spills); });
  v["sim.steals_tn"] = median_of(
      tn, [](const PassResult& p) { return static_cast<double>(p.steals); });

  // --- per layer: benchmark-side host spans --------------------------------
  for (const char* layer : {"runtime", "store", "graph"}) {
    const std::string span = std::string("setup.") + layer;
    v[span + "_s"] = spans.median_self_s(span, 0);
  }
  v["serve.graph.bfs_host_s"] = spans.median_self_s("graph.bfs", 1);
  v["serve.graph.pagerank_host_s"] = spans.median_self_s("graph.pagerank", 1);
  v["serve.graph.cc_host_s"] = spans.median_self_s("graph.cc", 1);
  v["host.self_s.arm"] = spans.median_self_s("arm", 1);
  v["host.self_s.run_t1"] = spans.median_self_s("run", 1);
  v["host.self_s.run_tn"] = spans.median_self_s("run", threads_n);
  v["host.self_s.fold"] = spans.median_self_s("fold", 1);

  // --- traced run ------------------------------------------------------------
  if (o.trace) {
    using ecoscale::obs::TraceSession;
    TraceSession& session = TraceSession::instance();
    std::vector<PassResult> traced;
    for (std::size_t i = 0; i < kTracedPasses; ++i) {
      ecoscale::obs::TraceOptions topts;
      topts.ring_capacity = kTraceRingEvents;
      session.start(topts);
      session.thread_recorder();  // allocate the ring before timing
      spans.begin_pass(1, true, true);
      traced.push_back(calibrated_pass(*workload, 1, spans));
      session.stop();
      account(traced.back(), ref, "traced");
    }
    const double traced_ns_per_op = median_of(traced, scaled_cpu_ns_per_op);
    v["obs.trace_overhead_frac"] =
        ratio(traced_ns_per_op - v["host_ns_per_op_t1"], v["host_ns_per_op_t1"]);
    v["obs.trace_events"] = static_cast<double>(session.events_recorded());
    v["obs.trace_dropped"] = static_cast<double>(session.events_dropped());
    // One-thread passes emit on this thread only.
    const CategorySpans cats = category_spans(session.thread_recorder());
    for (std::size_t c = 0; c < ecoscale::obs::kCatCount; ++c) {
      const std::string cat =
          ecoscale::obs::cat_name(static_cast<ecoscale::obs::Cat>(c));
      v["obs.sim_span_us." + cat] = cats.total_ps[c] / 1e6;
      v["obs.sim_spans." + cat] = static_cast<double>(cats.count[c]);
    }
    if (!o.trace_out.empty()) write_trace_file(o, threads_n, spans, cats, v);
    if (session.events_dropped() > 0) {
      std::cerr << "perfbench: the traced pass dropped "
                << session.events_dropped() << " of "
                << session.events_recorded()
                << " trace events (ring overwrote its oldest)\n";
    }
  }

  std::cerr << "perfbench: workload=" << o.workload << " seed=" << o.seed
            << " sim_threads_n=" << threads_n << " passes_t1=" << t1.size()
            << " passes_tn=" << tn.size()
            << " latency_samples=" << v["serve.latency_samples"] << "\n";
  for (const std::string& e : errors) std::cerr << "perfbench: FAIL " << e << "\n";

  std::cout << "{\"correct\": " << (errors.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"values\": {";
  bool first = true;
  for (const auto& [name, value] : v) {
    std::cout << (first ? "" : ", ") << json_string(name) << ": "
              << json_number(value);
    first = false;
  }
  std::cout << "}}" << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
