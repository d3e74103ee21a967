// The runtime reconfiguration daemon (paper §4.2: "The runtime
// scheduler/daemon will read periodically the system status and the
// History file in order to decide at runtime what functions should be
// loaded on the reconfiguration block.").
//
// Policy: keep a per-kernel exponentially weighted call-frequency score
// from the Execution History; on each period, ensure the hottest kernels
// that fit are resident (prefetching their bitstreams during idle gaps),
// and evict cold residents. The payoff is measured as reconfiguration
// stalls avoided: calls that would have waited for the ICAP now find
// their module loaded.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.h"
#include "fabric/reconfig.h"
#include "hls/ir.h"

namespace ecoscale {

class ReconfigDaemon {
 public:
  explicit ReconfigDaemon(ReconfigManager& fabric) : fabric_(fabric) {}

  /// Register a kernel's preferred module.
  void register_module(const AcceleratorModule& module) {
    modules_[module.kernel] = module;
  }

  /// Record a call (from the scheduler's execution history feed).
  void record_call(KernelId kernel) { pending_calls_[kernel] += 1.0; }

  /// Periodic tick: decay scores, fold in the period's calls, prefetch the
  /// hottest non-resident kernels, evict cold residents. Returns the
  /// number of prefetch loads issued.
  std::size_t tick(SimTime now);

  /// Would a call to `kernel` at `now` stall on reconfiguration?
  bool is_resident(KernelId kernel) const {
    return fabric_.is_loaded(kernel);
  }

  double score(KernelId kernel) const {
    auto it = scores_.find(kernel);
    return it == scores_.end() ? 0.0 : it->second;
  }

  std::uint64_t prefetches() const { return prefetches_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  ReconfigManager& fabric_;
  std::map<KernelId, AcceleratorModule> modules_;
  std::map<KernelId, double> scores_;
  std::map<KernelId, double> pending_calls_;
  std::uint64_t prefetches_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ecoscale
