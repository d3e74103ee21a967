// Test-only access to the ShardedSimulator's stretch policy and pair
// latency state. The engine picks solo or parallel stretches from
// deterministic slack counts, so a sparse test workload would never run a
// parallel round; tests that check the parallel path pin it here instead.
// Likewise only machines past kDensePairCap shards collapse the pair
// matrix into per-source floors; small tests lower the cap here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/parallel.h"

namespace ecoscale {

class ShardedSimulatorTestPeer {
 public:
  /// Run every stretch of `engine` on its worker pool from the next round
  /// on (no effect at one thread).
  static void pin_parallel(ShardedSimulator& engine) {
    engine.pinned_parallel_ = true;
    engine.parallel_ = engine.threads_ > 1;
  }

  /// An engine that materializes the dense pair matrix only up to
  /// `dense_pair_cap` shards, so a few shards reach the collapsed
  /// per-source-floor horizons.
  static ShardedSimulator with_dense_pair_cap(ShardedConfig config,
                                              std::size_t dense_pair_cap) {
    return ShardedSimulator(std::move(config), dense_pair_cap);
  }

  /// True when `engine` takes its horizons from the dense pair matrix.
  static bool has_pair_matrix(const ShardedSimulator& engine) {
    return !engine.pair_matrix_.empty();
  }

  /// Pins every engine constructed while it lives, on any thread, and
  /// counts the parallel rounds those engines run (summed as each is
  /// destroyed) — for engines a library call builds and drops.
  class PinNewEngines {
   public:
    PinNewEngines()
        : base_(ShardedSimulator::pinned_parallel_rounds_.load()) {
      ShardedSimulator::pin_new_engines_ = true;
    }
    ~PinNewEngines() { ShardedSimulator::pin_new_engines_ = false; }
    PinNewEngines(const PinNewEngines&) = delete;
    PinNewEngines& operator=(const PinNewEngines&) = delete;

    /// Parallel rounds run by the pinned engines destroyed so far.
    std::uint64_t parallel_rounds() const {
      return ShardedSimulator::pinned_parallel_rounds_.load() - base_;
    }

   private:
    std::uint64_t base_;
  };
};

}  // namespace ecoscale
