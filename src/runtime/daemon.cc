#include "runtime/daemon.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"

namespace ecoscale {

namespace {
/// EWMA decay of a kernel's call score per tick.
constexpr double kDecay = 0.7;
/// Scores below this are too cold to prefetch.
constexpr double kMinScore = 0.05;

CounterId daemon_prefetch_name() {
  static const CounterId id = CounterRegistry::intern("daemon.prefetch");
  return id;
}
}  // namespace

std::size_t ReconfigDaemon::tick(SimTime now) {
  // 1. Fold the period's calls into the EWMA scores.
  for (auto& [kernel, score] : scores_) score *= kDecay;
  for (const auto& [kernel, calls] : pending_calls_) {
    scores_[kernel] += (1.0 - kDecay) * calls;
  }
  pending_calls_.clear();

  // 2. Prefetch hot non-resident kernels, hottest first, evicting strictly
  //    colder idle residents to make room (1.5x hysteresis so modules do
  //    not thrash between ticks).
  std::vector<std::pair<double, KernelId>> ranked;
  for (const auto& [kernel, score_value] : scores_) {
    if (!fabric_.is_loaded(kernel) && modules_.contains(kernel) &&
        score_value >= kMinScore) {
      ranked.emplace_back(score_value, kernel);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::size_t loaded = 0;
  for (const auto& [score_value, kernel] : ranked) {
    const auto& module = modules_.at(kernel);
    // Make room by evicting the coldest idle resident while it is clearly
    // colder than the candidate.
    while (!fabric_.floorplan().can_place(module.shape)) {
      KernelId victim = 0;
      double victim_score = score_value / 1.5;  // hysteresis ceiling
      bool found = false;
      for (const auto& [resident, resident_module] : modules_) {
        if (!fabric_.is_idle(resident, now)) continue;
        if (score(resident) < victim_score) {
          victim = resident;
          victim_score = score(resident);
          found = true;
        }
      }
      if (!found) break;
      fabric_.unload(victim);
      ++evictions_;
    }
    if (!fabric_.floorplan().can_place(module.shape)) continue;
    const auto r = fabric_.ensure_loaded(module, now);
    if (r && r->reconfigured) {
      ++prefetches_;
      ++loaded;
      ECO_TRACE_INSTANT(obs::Cat::kRuntime, daemon_prefetch_name(),
                        fabric_.trace_lane(), now, kernel);
    }
  }
  return loaded;
}

}  // namespace ecoscale
