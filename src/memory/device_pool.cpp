#include "memory/device_pool.hpp"

namespace gist {

DevicePool::DevicePool(const DevicePoolConfig &config)
    : config_(config),
      tier_(config.tier_path.empty()
                ? makeMemoryTier(config.tier_bytes_per_second)
                : makeFileTier(config.tier_path))
{
}

} // namespace gist
