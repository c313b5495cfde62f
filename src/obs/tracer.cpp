#include "obs/tracer.hpp"

namespace raidsim {

const char* to_string(ObsPhase phase) {
  switch (phase) {
    case ObsPhase::kHostRead: return "host-read";
    case ObsPhase::kHostWrite: return "host-write";
    case ObsPhase::kDiskQueue: return "disk-queue";
    case ObsPhase::kReadData: return "read-data";
    case ObsPhase::kReadOldData: return "read-old-data";
    case ObsPhase::kReadOldParity: return "read-old-parity";
    case ObsPhase::kWriteData: return "write-data";
    case ObsPhase::kWriteParity: return "write-parity";
    case ObsPhase::kMirrorCopy: return "mirror-copy";
    case ObsPhase::kDestage: return "destage";
    case ObsPhase::kRebuild: return "rebuild";
    case ObsPhase::kRecovery: return "recovery";
    case ObsPhase::kCacheHit: return "cache-hit";
    case ObsPhase::kCacheMiss: return "cache-miss";
    case ObsPhase::kWriteStall: return "write-stall";
    case ObsPhase::kDestageTick: return "destage-tick";
    case ObsPhase::kTimeoutFired: return "timeout-fired";
    case ObsPhase::kHedgeIssued: return "hedge-issued";
    case ObsPhase::kHedgeWon: return "hedge-won";
    case ObsPhase::kRedirected: return "redirected";
    case ObsPhase::kJobQueue: return "job-queue";
    case ObsPhase::kJobRun: return "job-run";
    case ObsPhase::kJobRejected: return "job-rejected";
    case ObsPhase::kJobDeadline: return "job-deadline";
    case ObsPhase::kJobWatchdog: return "job-watchdog";
    case ObsPhase::kAuto: return "auto";
  }
  return "?";
}

Tracer::Tracer(Config config) : ring_(config.max_events) {
  ring_.reserve(1u << 16);
}

std::uint64_t Tracer::begin(ObsPhase phase, int array, int track, SimTime ts) {
  const std::uint64_t id = next_id_++;
  ring_.push(TraceEvent{ts, id, array, static_cast<std::int16_t>(track),
                        phase, ObsType::kBegin});
  return id;
}

void Tracer::begin_with(std::uint64_t id, ObsPhase phase, int array, int track,
                        SimTime ts) {
  ring_.push(TraceEvent{ts, id, array, static_cast<std::int16_t>(track),
                        phase, ObsType::kBegin});
}

void Tracer::end(std::uint64_t id, ObsPhase phase, int array, int track,
                 SimTime ts) {
  ring_.push(TraceEvent{ts, id, array, static_cast<std::int16_t>(track),
                        phase, ObsType::kEnd});
}

void Tracer::instant(ObsPhase phase, int array, int track, SimTime ts,
                     std::uint64_t id) {
  ring_.push(TraceEvent{ts, id, array, static_cast<std::int16_t>(track),
                        phase, ObsType::kInstant});
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for_each([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

}  // namespace raidsim
