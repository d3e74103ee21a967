// Test-only access to the Network's dense route table. A Network routes
// implicitly whenever its topology is a tree and keeps the dense src·E+dst
// table for non-trees only; route_equiv_test and bench_scale build the
// table over a tree here, as the oracle and the cost baseline for the LCA
// walk.
#pragma once

#include <utility>

#include "interconnect/network.h"

namespace ecoscale {

class NetworkTestPeer {
 public:
  /// A Network over `topology` that resolves every route through the dense
  /// table, tree or not.
  static Network dense_table(Topology topology, NetworkConfig config) {
    return Network(std::move(topology), std::move(config), false);
  }
};

}  // namespace ecoscale
