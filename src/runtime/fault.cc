#include "runtime/fault.h"

#include "common/check.h"
#include "obs/trace.h"

namespace ecoscale {

namespace {
/// Fault-domain trace names, interned once per process.
struct FaultTraceNames {
  CounterId crash = CounterRegistry::intern("fault.crash");
  CounterId repair = CounterRegistry::intern("fault.repair");
  CounterId node_loss = CounterRegistry::intern("fault.node_loss");
  CounterId seu = CounterRegistry::intern("fault.seu");
  CounterId link_degrade = CounterRegistry::intern("fault.link_degrade");
  CounterId link_restore = CounterRegistry::intern("fault.link_restore");
};
const FaultTraceNames& fault_trace_names() {
  static const FaultTraceNames names;
  return names;
}

obs::Lane worker_lane(std::size_t w, std::size_t per_node) {
  return obs::Lane{static_cast<std::uint16_t>(w / per_node),
                   static_cast<std::uint16_t>(w % per_node)};
}
}  // namespace

FaultInjector::FaultInjector(Simulator& sim, Machine& machine,
                             FaultConfig config, Callbacks callbacks)
    : sim_(sim),
      machine_(machine),
      config_(std::move(config)),
      cb_(std::move(callbacks)),
      seu_rng_(config_.seed ^ 0x5e05e05e05e05e0ull),
      down_epoch_(machine.worker_count(), 0),
      permanent_(machine.worker_count(), false) {
  ECO_CHECK(cb_.active != nullptr);
  crash_rng_.reserve(machine_.worker_count());
  for (std::size_t w = 0; w < machine_.worker_count(); ++w) {
    crash_rng_.emplace_back(config_.seed * 0x9e3779b97f4a7c15ull + w);
  }
}

void FaultInjector::arm() {
  ECO_CHECK_MSG(!armed_, "FaultInjector armed twice");
  armed_ = true;
  if (!config_.enabled) return;

  if (config_.worker_crash_per_second > 0.0) {
    for (std::size_t w = 0; w < machine_.worker_count(); ++w) {
      schedule_next_crash(w);
    }
  }
  if (config_.seu_per_second > 0.0) schedule_next_seu();

  for (const NodeLossEvent& loss : config_.node_losses) {
    ECO_CHECK(loss.node < machine_.node_count());
    sim_.schedule_at(loss.at, [this, loss] {
      ++node_losses_;
      ECO_TRACE_INSTANT(obs::Cat::kFault, fault_trace_names().node_loss,
                        (obs::Lane{static_cast<std::uint16_t>(loss.node), 0}),
                        sim_.now(), static_cast<std::uint32_t>(loss.node));
      const std::size_t per_node = machine_.workers_per_node();
      for (std::size_t i = 0; i < per_node; ++i) {
        take_down(loss.node * per_node + i, /*permanent=*/true);
      }
    });
  }

  for (const CrashEvent& crash : config_.scripted_crashes) {
    ECO_CHECK(crash.worker < machine_.worker_count());
    sim_.schedule_at(crash.at, [this, crash] {
      take_down(crash.worker, crash.permanent, crash.repair_after);
    });
  }

  for (const LinkDegradeEvent& deg : config_.link_degrades) {
    sim_.schedule_at(deg.at, [this, deg] {
      ++link_faults_;
      machine_.pgas().network().set_level_degradation(deg.level, deg.factor);
      ECO_TRACE_INSTANT(obs::Cat::kFault, fault_trace_names().link_degrade,
                        (obs::Lane{obs::kNetPid,
                                   static_cast<std::uint16_t>(deg.level)}),
                        sim_.now(), static_cast<std::uint32_t>(deg.factor));
    });
    sim_.schedule_at(deg.at + deg.duration, [this, deg] {
      machine_.pgas().network().set_level_degradation(deg.level, 1.0);
      ECO_TRACE_INSTANT(obs::Cat::kFault, fault_trace_names().link_restore,
                        (obs::Lane{obs::kNetPid,
                                   static_cast<std::uint16_t>(deg.level)}),
                        sim_.now(), static_cast<std::uint32_t>(deg.level));
    });
  }
}

void FaultInjector::schedule_next_crash(std::size_t worker) {
  const auto gap = static_cast<SimDuration>(
      crash_rng_[worker].exponential(1e12 / config_.worker_crash_per_second));
  sim_.schedule_at(sim_.now() + std::max<SimDuration>(gap, 1), [this, worker] {
    // The chain re-arms only while the workload is live; residual events
    // after completion are no-ops so the event queue can drain.
    if (!cb_.active()) return;
    if (machine_.health().up(worker)) {
      take_down(worker, /*permanent=*/false);
    }
    schedule_next_crash(worker);
  });
}

void FaultInjector::take_down(std::size_t worker, bool permanent,
                              SimDuration repair_after) {
  if (!machine_.health().up(worker)) {
    // Already down (e.g. node loss landing on a crashed worker): only
    // upgrade to permanent, cancelling any pending repair via the epoch.
    if (permanent && !permanent_[worker]) {
      permanent_[worker] = true;
      ++down_epoch_[worker];
    }
    return;
  }
  const SimTime now = sim_.now();
  const std::size_t per_node = machine_.workers_per_node();
  machine_.health().mark_down(worker);
  permanent_[worker] = permanent;
  const std::uint64_t epoch = ++down_epoch_[worker];
  if (!permanent) {
    ++crashes_;
    ECO_TRACE_INSTANT(obs::Cat::kFault, fault_trace_names().crash,
                      worker_lane(worker, per_node), now,
                      static_cast<std::uint32_t>(worker));
    const SimDuration repair =
        repair_after != 0 ? repair_after : config_.repair_time;
    sim_.schedule_at(now + repair, [this, worker, epoch] {
      // A newer fault (another crash cannot happen while down, but a node
      // loss can) invalidates this repair.
      if (down_epoch_[worker] != epoch || permanent_[worker]) return;
      machine_.health().mark_up(worker);
      ECO_TRACE_INSTANT(obs::Cat::kFault, fault_trace_names().repair,
                        worker_lane(worker, machine_.workers_per_node()),
                        sim_.now(), static_cast<std::uint32_t>(worker));
      if (cb_.on_worker_up) cb_.on_worker_up(worker, sim_.now());
    });
  }
  if (cb_.on_worker_down) cb_.on_worker_down(worker, now);
}

void FaultInjector::schedule_next_seu() {
  const auto gap = static_cast<SimDuration>(
      seu_rng_.exponential(1e12 / config_.seu_per_second));
  sim_.schedule_at(sim_.now() + std::max<SimDuration>(gap, 1), [this] {
    if (!cb_.active()) return;
    const std::size_t w = seu_rng_.uniform_u64(machine_.worker_count());
    if (machine_.health().up(w)) {
      // An upset flips configuration bits of a resident module. Busy
      // modules are protected by the invocation model (their result is
      // already committed); an idle one is corrupted — modelled as an
      // unload, so the next call pays a full reconfiguration (scrubbing).
      auto& fabric = machine_.worker(w).fabric();
      for (const KernelId kernel : fabric.loaded_kernels()) {
        if (fabric.is_idle(kernel, sim_.now())) {
          fabric.unload(kernel);
          ++seu_hits_;
          ECO_TRACE_INSTANT(obs::Cat::kFault, fault_trace_names().seu,
                            worker_lane(w, machine_.workers_per_node()),
                            sim_.now(), static_cast<std::uint32_t>(kernel));
          break;
        }
      }
    }
    schedule_next_seu();
  });
}

}  // namespace ecoscale
