// graph_pgas: BFS, PageRank(8) and connected components over a
// 2048-vertex skewed CSR graph laid out in UNIMEM on a plain 8-node x
// 4-worker Machine. No simulator events, no scheduler, no sharded engine:
// the bypass workload for engine changes (the prediction there is no
// change), and the one where the PGAS, memory and interconnect host paths
// do nearly all the work. An op is one edge read (neighbour-value load).
//
// At N host threads the workload runs N independent copies of the three
// queries at once (one Machine each) — concurrent analytics queries — so
// host_ns_per_op_tn is wall time per edge read with N threads busy, as it
// is for the KV workloads. Every copy must reproduce the references.
#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench.h"
#include "percentile.h"
#include "serve/graph.h"

namespace perfbench {
namespace {

using namespace ecoscale;

constexpr std::size_t kNodes = 8;
constexpr std::size_t kWorkersPerNode = 4;
constexpr std::size_t kVertices = 2048;
constexpr double kAvgDegree = 6.0;
constexpr double kSkew = 0.8;
constexpr std::size_t kPagerankIterations = 8;

struct GraphCopy {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<serve::GraphEngine> engine;
};

struct Queries {
  serve::BfsResult bfs;
  serve::PagerankResult pr;
  serve::CcResult cc;

  std::uint64_t edge_reads() const {
    return bfs.stats.edge_reads + pr.stats.edge_reads + cc.stats.edge_reads;
  }
  SimTime sim_time() const {
    return bfs.stats.time + pr.stats.time + cc.stats.time;
  }
};

std::uint64_t hash_results(const std::vector<std::uint32_t>& dist,
                           const std::vector<double>& rank,
                           const std::vector<std::uint32_t>& label) {
  std::uint64_t h = kFnvBasis;
  for (const std::uint32_t d : dist) h = fnv_word(h, d);
  for (const double r : rank) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r, sizeof bits);
    h = fnv_word(h, bits);
  }
  for (const std::uint32_t l : label) h = fnv_word(h, l);
  return h;
}

std::uint64_t hash_queries(const Queries& q) {
  return hash_results(q.bfs.dist, q.pr.rank, q.cc.label);
}

class GraphWorkload final : public Workload {
 public:
  explicit GraphWorkload(std::uint64_t seed) : seed_(seed) {}

  PassResult reference(HostSpans& spans, Values& v,
                       std::vector<std::string>& errors) override {
    PassResult out;
    std::vector<GraphCopy> copies = build(1, spans, out);
    Machine& machine = *copies[0].machine;

    // A latency sample is one vertex-value update: from the start of its
    // iteration (the engine's iteration span) to its PGAS store
    // completing. The observer sees every store; observing costs host
    // time, which is why only this untimed pass does it.
    std::vector<std::pair<SimTime, SimTime>> stores;  // issue, finish
    PgasObserver observer;
    observer.on_access = [&stores](const PgasObserver::Access& a) {
      if (a.kind == PgasObserver::Kind::kStore) {
        stores.emplace_back(a.issue, a.finish);
      }
    };
    machine.pgas().set_observer(&observer);
    Queries q;
    std::vector<ServeSpan> iterations = record_serve_spans(
        [&] {
          SpanScope run(spans, "run");
          q = run_queries(*copies[0].engine, &spans);
          out.run = run.close();
        },
        errors);
    machine.pgas().set_observer(nullptr);
    finish(q, 1, out);

    std::sort(iterations.begin(), iterations.end(),
              [](const ServeSpan& a, const ServeSpan& b) {
                return a.start < b.start;
              });
    std::vector<SimDuration> latency;
    for (const auto& [issue, done] : stores) {
      // The iteration that issued the store: the last one starting before.
      auto it = std::upper_bound(
          iterations.begin(), iterations.end(), issue,
          [](SimTime t, const ServeSpan& s) { return t <= s.start; });
      if (it == iterations.begin() || done > (it - 1)->start + (it - 1)->dur) {
        errors.push_back("a vertex update lies outside every iteration span");
        break;
      }
      latency.push_back(done - (it - 1)->start);
    }
    std::sort(latency.begin(), latency.end());

    const std::uint64_t expected =
        hash_results(serve::reference_bfs(*graph_, source_),
                     serve::reference_pagerank(*graph_, kPagerankIterations),
                     serve::reference_cc(*graph_));
    if (out.fingerprint != expected) {
      errors.push_back("graph results differ from the functional references");
      out.failed = out.ops;
    }

    const double ops = static_cast<double>(out.ops);
    v["sim_goodput_ops"] =
        ops / (static_cast<double>(q.sim_time()) / 1e12);
    const TailReport tail = tail_report(
        latency.size(), [&](double p) { return nearest_rank(latency, p); });
    if (tail.p50.reported) v["sim_p50_us"] = tail.p50.value / 1e6;
    if (tail.p99.reported) v["sim_p99_us"] = tail.p99.value / 1e6;
    if (tail.p999.reported) v["sim_p999_us"] = tail.p999.value / 1e6;
    v["serve.latency_samples"] = static_cast<double>(tail.count);
    v["fail_frac"] = ratio(static_cast<double>(out.failed), ops);

    // No engine, scheduler, KV store or repartitioner on this path.
    for (const char* name :
         {"sim.stall_frac", "runtime.tasks_per_op",
          "runtime.queue_wait_p99_us", "runtime.shed_tasks",
          "runtime.forwarded_tasks", "serve.remote_issue_frac",
          "serve.forwards_per_op", "repart.epochs_per_op", "repart.moves",
          "repart.move_byte_hops"}) {
      v[name] = 0.0;
    }
    MachineCounters counters;
    counters.add(machine);
    counters.to_values(out.ops, v);
    return out;
  }

  PassResult pass(std::size_t threads, HostSpans& spans) override {
    PassResult out;
    std::vector<GraphCopy> copies = build(threads, spans, out);
    std::vector<Queries> results(threads);
    std::vector<std::exception_ptr> failures(threads);
    SpanScope run(spans, "run");
    if (threads == 1) {
      results[0] = run_queries(*copies[0].engine, &spans);
    } else {
      // HostSpans is single-threaded: the copies run without inner spans.
      std::vector<std::jthread> pool;
      pool.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          try {
            results[t] = run_queries(*copies[t].engine, nullptr);
          } catch (...) {
            failures[t] = std::current_exception();
          }
        });
      }
    }  // the pool joins here
    out.run = run.close();
    for (const std::exception_ptr& e : failures) {
      if (e) std::rethrow_exception(e);
    }
    SpanScope fold(spans, "fold");
    finish(results[0], threads, out);
    for (std::size_t t = 1; t < threads; ++t) {
      // A copy that disagrees with the first fails the pass's fingerprint.
      if (hash_queries(results[t]) != out.fingerprint) out.fingerprint = 0;
    }
    return out;
  }

 private:
  /// The CSR graph is generated once per pass (it is part of set-up) and
  /// shared read-only by the pass's copies; each copy lays it out in its
  /// own Machine.
  std::vector<GraphCopy> build(std::size_t copies, HostSpans& spans,
                               PassResult& out) {
    std::vector<GraphCopy> built(copies);
    SpanScope setup(spans, "setup");
    {
      SpanScope span(spans, "setup.runtime");
      MachineConfig mc;
      mc.nodes = kNodes;
      mc.workers_per_node = kWorkersPerNode;
      for (GraphCopy& c : built) c.machine = std::make_unique<Machine>(mc);
    }
    {
      SpanScope span(spans, "setup.graph");
      graph_ = std::make_unique<serve::CsrGraph>(
          serve::make_skewed_graph(kVertices, kAvgDegree, kSkew, seed_));
      source_ = highest_degree_vertex(*graph_);
      for (GraphCopy& c : built) {
        c.engine = std::make_unique<serve::GraphEngine>(*c.machine, *graph_);
      }
    }
    out.setup = setup.close();
    return built;
  }

  /// The three queries, each in its own span when `spans` is given.
  Queries run_queries(serve::GraphEngine& engine, HostSpans* spans) const {
    Queries q;
    {
      std::optional<SpanScope> span;
      if (spans != nullptr) span.emplace(*spans, "graph.bfs");
      q.bfs = engine.bfs(source_);
    }
    {
      std::optional<SpanScope> span;
      if (spans != nullptr) span.emplace(*spans, "graph.pagerank");
      q.pr = engine.pagerank(kPagerankIterations);
    }
    {
      std::optional<SpanScope> span;
      if (spans != nullptr) span.emplace(*spans, "graph.cc");
      q.cc = engine.connected_components();
    }
    return q;
  }

  void finish(const Queries& q, std::size_t copies, PassResult& out) const {
    out.ops = q.edge_reads() * copies;
    out.fingerprint = hash_queries(q);
  }

  static std::uint32_t highest_degree_vertex(const serve::CsrGraph& g) {
    std::uint32_t best = 0;
    for (std::size_t v = 1; v < g.vertices; ++v) {
      if (g.row[v + 1] - g.row[v] > g.row[best + 1] - g.row[best]) {
        best = static_cast<std::uint32_t>(v);
      }
    }
    return best;
  }

  std::uint64_t seed_;
  std::unique_ptr<serve::CsrGraph> graph_;
  std::uint32_t source_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_graph_pgas(std::uint64_t seed) {
  return std::make_unique<GraphWorkload>(seed);
}

}  // namespace perfbench
