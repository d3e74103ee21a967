// Accelerator module descriptors — the unit the HLS flow emits and the
// middleware loads onto the fabric (paper §4.3 "accelerator module library").
#pragma once

#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/units.h"
#include "fabric/bitstream.h"
#include "fabric/floorplan.h"

namespace ecoscale {

using KernelId = std::uint32_t;

struct AcceleratorModule {
  std::string name;
  KernelId kernel = 0;

  // Physical footprint after floorplanning.
  ModuleShape shape;

  // Pipeline timing (from HLS): latency(n) = depth + (n - 1) * ii cycles.
  std::uint32_t pipeline_depth = 16;
  std::uint32_t initiation_interval = 1;
  double clock_ghz = 0.25;  // typical mid-2010s fabric clock

  // Per-item data movement (drives memory/interconnect traffic).
  Bytes bytes_in_per_item = 8;
  Bytes bytes_out_per_item = 8;

  // Energy.
  double pj_per_item = 40.0;       // dynamic energy per work item
  double pj_static_per_ns = 0.05;  // leakage while configured

  // Configuration data: full-region vs. bounding-box-minimised sizes are
  // computed from the shape; `density` feeds the synthetic bitstream.
  double logic_density = 0.45;

  SimDuration cycle_time() const {
    ECO_CHECK(clock_ghz > 0);
    return static_cast<SimDuration>(1000.0 / clock_ghz);  // ps per cycle
  }

  /// Pipelined execution time for `items` work items.
  SimDuration compute_time(std::uint64_t items) const {
    if (items == 0) return 0;
    const std::uint64_t cycles =
        pipeline_depth +
        (items - 1) * static_cast<std::uint64_t>(initiation_interval);
    return cycles * cycle_time();
  }

  Picojoules compute_energy(std::uint64_t items) const {
    return pj_per_item * static_cast<double>(items);
  }
};

}  // namespace ecoscale
