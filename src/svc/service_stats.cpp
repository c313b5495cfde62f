#include "svc/service_stats.hpp"

#include <sstream>

namespace raidsim::svc {

std::string ServiceStats::to_json(std::size_t queue_depth, std::size_t running,
                                  std::size_t cache_size,
                                  std::uint64_t cache_hits,
                                  std::uint64_t cache_misses,
                                  std::uint64_t cache_evictions) const {
  std::ostringstream os;
  os << "{\"submitted\":" << submitted.load()
     << ",\"completed_ok\":" << completed_ok.load()
     << ",\"completed_cached\":" << completed_cached.load()
     << ",\"rejected_overload\":" << rejected_overload.load()
     << ",\"rejected_draining\":" << rejected_draining.load()
     << ",\"rejected_invalid\":" << rejected_invalid.load()
     << ",\"failed\":" << failed.load()
     << ",\"cancelled\":" << cancelled.load()
     << ",\"deadline_expired\":" << deadline_expired.load()
     << ",\"watchdog_kills\":" << watchdog_kills.load()
     << ",\"peak_queue_depth\":" << peak_queue_depth.load()
     << ",\"queue_depth\":" << queue_depth << ",\"running\":" << running
     << ",\"cache_size\":" << cache_size << ",\"cache_hits\":" << cache_hits
     << ",\"cache_misses\":" << cache_misses
     << ",\"cache_evictions\":" << cache_evictions << "}";
  return os.str();
}

}  // namespace raidsim::svc
