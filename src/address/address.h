// Global address space layout for the UNIMEM PGAS.
//
// A 64-bit global address encodes the Compute Node, the Worker within that
// node, and a 44-bit offset into the Worker's local DRAM. Every Worker can
// issue plain loads/stores to any global address; the interconnect routes
// them by the (node, worker) fields.
//
//   63      56 55      48 47          44 43                       0
//  +----------+----------+--------------+--------------------------+
//  |   node   |  worker  |   (reserved) |         offset           |
//  +----------+----------+--------------+--------------------------+
#pragma once

#include <compare>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/check.h"
#include "common/units.h"

namespace ecoscale {

using NodeId = std::uint16_t;    // Compute Node (PGAS partition)
using WorkerId = std::uint16_t;  // Worker within a Compute Node

/// Globally unique worker coordinate.
struct WorkerCoord {
  NodeId node = 0;
  WorkerId worker = 0;

  auto operator<=>(const WorkerCoord&) const = default;

  std::string str() const {
    return "n" + std::to_string(node) + ".w" + std::to_string(worker);
  }
};

class GlobalAddress {
 public:
  static constexpr int kOffsetBits = 44;
  static constexpr int kWorkerBits = 8;
  static constexpr int kNodeBits = 8;
  static constexpr std::uint64_t kOffsetMask = (1ull << kOffsetBits) - 1;

  GlobalAddress() = default;

  GlobalAddress(NodeId node, WorkerId worker, std::uint64_t offset) {
    ECO_CHECK_MSG(node < (1u << kNodeBits), "node id out of range");
    ECO_CHECK_MSG(worker < (1u << kWorkerBits), "worker id out of range");
    ECO_CHECK_MSG(offset <= kOffsetMask, "offset out of range");
    raw_ = (static_cast<std::uint64_t>(node) << 56) |
           (static_cast<std::uint64_t>(worker) << 48) | offset;
  }

  static GlobalAddress from_raw(std::uint64_t raw) {
    GlobalAddress a;
    a.raw_ = raw;
    return a;
  }

  std::uint64_t raw() const { return raw_; }
  NodeId node() const { return static_cast<NodeId>(raw_ >> 56); }
  WorkerId worker() const {
    return static_cast<WorkerId>((raw_ >> 48) & 0xff);
  }
  std::uint64_t offset() const { return raw_ & kOffsetMask; }
  WorkerCoord home() const { return WorkerCoord{node(), worker()}; }

  GlobalAddress operator+(std::uint64_t delta) const {
    ECO_CHECK_MSG(offset() + delta <= kOffsetMask, "address overflow");
    return from_raw(raw_ + delta);
  }

  auto operator<=>(const GlobalAddress&) const = default;

  std::string str() const {
    return home().str() + "+0x" + [this] {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%llx",
                    static_cast<unsigned long long>(offset()));
      return std::string(buf);
    }();
  }

 private:
  std::uint64_t raw_ = 0;
};

/// Pages are the grain of UNIMEM ownership and of SMMU translation.
inline constexpr Bytes kPageSize = 4 * kKiB;
inline constexpr int kPageShift = 12;

using PageId = std::uint64_t;

inline PageId page_of(GlobalAddress a) { return a.raw() >> kPageShift; }

}  // namespace ecoscale
