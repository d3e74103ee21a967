// Task vocabulary of the runtime system.
#pragma once

#include <array>
#include <cstdint>

#include "address/address.h"
#include "common/units.h"
#include "hls/ir.h"
#include "model/predictor.h"

namespace ecoscale {

using TaskId = std::uint64_t;

/// One kernel invocation, the unit the per-worker schedulers manage.
struct Task {
  TaskId id = 0;
  KernelId kernel = 0;
  std::uint64_t items = 0;
  TaskFeatures features;
  /// Preferred worker: where the task's data partition lives.
  WorkerCoord home;
  /// Left its home worker's queue: set by the runtime where it routes the
  /// task away from home or spills it, kept across failover re-arrivals,
  /// and reported as TaskResult::forwarded.
  bool forwarded = false;
  /// Release (arrival) time.
  SimTime release = 0;
  /// Opaque application payload, carried untouched through routing,
  /// spilling, and failover. Serving workloads pack request descriptors
  /// (op, origin node, key, value) here and decode them in the
  /// completion handler; the scheduler itself never reads it.
  std::array<std::uint64_t, 2> payload{};
};

struct TaskResult {
  TaskId id = 0;
  SimTime release = 0;
  SimTime started = 0;   // dispatch time (left the queue)
  SimTime finished = 0;
  DeviceClass device = DeviceClass::kCpu;
  std::size_t executed_on = 0;  // flat worker index
  Picojoules energy = 0.0;
  bool reconfigured = false;
  bool forwarded = false;  // left its home worker's queue

  SimDuration queue_wait() const { return started - release; }
  SimDuration turnaround() const { return finished - release; }
};

}  // namespace ecoscale
