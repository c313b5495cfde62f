#pragma once

#include <cstdint>

#include "core/simulator.hpp"

namespace raidsim {

/// Compatibility name for bench/e2e, which still spells the retired
/// sharded engine's constructor. Simulator runs every shard count itself
/// (config.shards); the seed is ignored.
class ShardedSimulator : public Simulator {
 public:
  ShardedSimulator(const SimulationConfig& config,
                   const TraceGeometry& geometry, std::uint64_t /*seed*/ = 0)
      : Simulator(config, geometry) {}
};

}  // namespace raidsim
