#pragma once

#include <cstdint>
#include <vector>

#include "obs/ring_buffer.hpp"
#include "obs/trace_event.hpp"

namespace raidsim {

/// Low-overhead request-lifecycle tracer. One instance per Simulator (the
/// simulation is single-threaded; parallel sweeps give every job its own
/// tracer, so no synchronization is needed). Recording one event is an
/// append into a pre-sized buffer; when the configured capacity is
/// reached the buffer wraps (ring mode), so long traced runs keep the
/// most recent window instead of exhausting memory.
///
/// Fast paths: every instrumentation site goes through the obs_* helpers
/// below, which compile to nothing when RAIDSIM_TRACING_DISABLED is
/// defined (CMake -DRAIDSIM_TRACING=OFF) and to a single null-pointer
/// test per event when tracing is compiled in but not requested.
class Tracer {
 public:
  struct Config {
    /// Event-buffer capacity; older events are overwritten once full.
    std::size_t max_events = 1u << 22;
  };

  Tracer() : Tracer(Config{}) {}
  explicit Tracer(Config config);

  /// Open a span; returns its id (never 0).
  std::uint64_t begin(ObsPhase phase, int array, int track, SimTime ts);
  /// Open a span under an existing id (e.g. an RMW op's write phase
  /// continuing the read phase's id).
  void begin_with(std::uint64_t id, ObsPhase phase, int array, int track,
                  SimTime ts);
  void end(std::uint64_t id, ObsPhase phase, int array, int track, SimTime ts);
  void instant(ObsPhase phase, int array, int track, SimTime ts,
               std::uint64_t id = 0);

  /// Events recorded and retained, oldest first (unwrapped).
  std::vector<TraceEvent> events() const;
  /// Visit retained events oldest-first without copying.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < ring_.size(); ++i) fn(ring_[i]);
  }

  std::uint64_t recorded() const { return ring_.pushed(); }
  std::size_t retained() const { return ring_.size(); }
  /// Events overwritten by ring wraparound.
  std::uint64_t overwritten() const {
    return ring_.pushed() - static_cast<std::uint64_t>(ring_.size());
  }
  bool wrapped() const { return ring_.wrapped(); }

 private:
  RingBuffer<TraceEvent> ring_;
  std::uint64_t next_id_ = 1;
};

#ifdef RAIDSIM_TRACING_DISABLED
inline constexpr bool kTracingCompiledIn = false;
#else
inline constexpr bool kTracingCompiledIn = true;
#endif

/// Instrumentation-site helpers: no-ops when the tracer pointer is null
/// (runtime off) and compiled out entirely under RAIDSIM_TRACING_DISABLED.
inline std::uint64_t obs_begin(Tracer* tracer, ObsPhase phase, int array,
                               int track, SimTime ts) {
  if constexpr (kTracingCompiledIn)
    if (tracer) return tracer->begin(phase, array, track, ts);
  return 0;
}

inline void obs_begin_with(Tracer* tracer, std::uint64_t id, ObsPhase phase,
                           int array, int track, SimTime ts) {
  if constexpr (kTracingCompiledIn)
    if (tracer && id) tracer->begin_with(id, phase, array, track, ts);
}

inline void obs_end(Tracer* tracer, std::uint64_t id, ObsPhase phase,
                    int array, int track, SimTime ts) {
  if constexpr (kTracingCompiledIn)
    if (tracer && id) tracer->end(id, phase, array, track, ts);
}

inline void obs_instant(Tracer* tracer, ObsPhase phase, int array, int track,
                        SimTime ts, std::uint64_t id = 0) {
  if constexpr (kTracingCompiledIn)
    if (tracer) tracer->instant(phase, array, track, ts, id);
}

}  // namespace raidsim
