#include "obs/export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

namespace raidsim {

namespace {

bool is_service_phase(ObsPhase phase) {
  switch (phase) {
    case ObsPhase::kReadData:
    case ObsPhase::kReadOldData:
    case ObsPhase::kReadOldParity:
    case ObsPhase::kWriteData:
    case ObsPhase::kWriteParity:
    case ObsPhase::kMirrorCopy:
      return true;
    default:
      return false;
  }
}

const char* async_category(ObsPhase phase) {
  switch (phase) {
    case ObsPhase::kHostRead:
    case ObsPhase::kHostWrite:
      return "host";
    case ObsPhase::kDiskQueue:
      return "queue";
    case ObsPhase::kDestage:
      return "destage";
    case ObsPhase::kRebuild:
    case ObsPhase::kRecovery:
      return "maintenance";
    case ObsPhase::kJobQueue:
    case ObsPhase::kJobRun:
      return "svc";
    default:
      return nullptr;
  }
}

const char* instant_category(ObsPhase phase) {
  switch (phase) {
    case ObsPhase::kTimeoutFired:
    case ObsPhase::kHedgeIssued:
    case ObsPhase::kHedgeWon:
    case ObsPhase::kRedirected:
      return "tail";
    case ObsPhase::kJobRejected:
    case ObsPhase::kJobDeadline:
    case ObsPhase::kJobWatchdog:
      return "svc";
    default:
      return "cache";
  }
}

// pid 0 is the simulator-wide process; arrays map to pid = index + 1.
int pid_of(const TraceEvent& e) { return e.array + 1; }
// tid 0 is the array/controller track; disks map to tid = index + 1.
int tid_of(const TraceEvent& e) { return e.track + 1; }

class JsonEventWriter {
 public:
  explicit JsonEventWriter(std::ostream& out) : out_(out) {}

  std::ostream& open_event() {
    out_ << (first_ ? "\n    {" : ",\n    {");
    first_ = false;
    return out_;
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

void write_counter_events(JsonEventWriter& events,
                          const TimeSeriesSampler& sampler) {
  const auto& topology = sampler.disks_per_array();
  const auto& samples = sampler.samples();
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const TelemetrySample& sample = samples[s];
    const double ts_us = sample.t * 1e3;
    events.open_event() << "\"name\": \"outstanding\", \"ph\": \"C\", "
                        << "\"pid\": 0, \"ts\": " << ts_us
                        << ", \"args\": {\"requests\": " << sample.outstanding
                        << "}}";
    std::size_t disk = 0;
    for (std::size_t a = 0; a < topology.size(); ++a) {
      auto& out = events.open_event();
      out << "\"name\": \"queue-depth\", \"ph\": \"C\", \"pid\": " << (a + 1)
          << ", \"ts\": " << ts_us << ", \"args\": {";
      for (int d = 0; d < topology[a]; ++d, ++disk) {
        const std::uint32_t depth =
            disk < sample.queue_depth.size() ? sample.queue_depth[disk] : 0;
        out << (d ? ", " : "") << "\"d" << d << "\": " << depth;
      }
      out << "}}";
      if (a < sample.cache_blocks.size()) {
        events.open_event()
            << "\"name\": \"cache\", \"ph\": \"C\", \"pid\": " << (a + 1)
            << ", \"ts\": " << ts_us << ", \"args\": {\"used\": "
            << sample.cache_blocks[a]
            << ", \"dirty\": " << sample.cache_dirty[a] << "}}";
      }
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Tracer& tracer,
                        const TimeSeriesSampler* sampler) {
  out.setf(std::ios::fixed);
  out.precision(3);

  // Track topology seen in the events, for the metadata names.
  std::map<int, int> max_track_per_array;  // array -> max track
  tracer.for_each([&](const TraceEvent& e) {
    auto [it, inserted] = max_track_per_array.emplace(e.array, e.track);
    if (!inserted) it->second = std::max(it->second, static_cast<int>(e.track));
  });
  if (sampler) {
    const auto& topology = sampler->disks_per_array();
    for (std::size_t a = 0; a < topology.size(); ++a) {
      auto [it, inserted] = max_track_per_array.emplace(
          static_cast<int>(a), topology[a] - 1);
      if (!inserted) it->second = std::max(it->second, topology[a] - 1);
    }
  }

  out << "{\n"
      << "  \"displayTimeUnit\": \"ms\",\n"
      << "  \"otherData\": {\"schema\": 1, \"generator\": \"raidsim\", "
      << "\"events_recorded\": " << tracer.recorded()
      << ", \"events_retained\": " << tracer.retained() << "},\n"
      << "  \"traceEvents\": [";

  JsonEventWriter events(out);

  // Metadata: process/thread names, so Perfetto shows one named process
  // per array and one named track per disk.
  events.open_event() << "\"name\": \"process_name\", \"ph\": \"M\", "
                      << "\"pid\": 0, \"args\": {\"name\": \"simulator\"}}";
  for (const auto& [array, max_track] : max_track_per_array) {
    if (array < 0) continue;
    events.open_event() << "\"name\": \"process_name\", \"ph\": \"M\", "
                        << "\"pid\": " << (array + 1)
                        << ", \"args\": {\"name\": \"array " << array << "\"}}";
    events.open_event() << "\"name\": \"thread_name\", \"ph\": \"M\", "
                        << "\"pid\": " << (array + 1)
                        << ", \"tid\": 0, \"args\": {\"name\": \"array\"}}";
    for (int d = 0; d <= max_track; ++d)
      events.open_event() << "\"name\": \"thread_name\", \"ph\": \"M\", "
                          << "\"pid\": " << (array + 1) << ", \"tid\": "
                          << (d + 1) << ", \"args\": {\"name\": \"disk " << d
                          << "\"}}";
  }

  // Open service-phase begins awaiting their end (keyed by span id; the
  // phases under one id never nest, they run back to back).
  std::unordered_map<std::uint64_t, TraceEvent> open_spans;
  tracer.for_each([&](const TraceEvent& e) {
    if (is_service_phase(e.phase)) {
      if (e.type == ObsType::kBegin) {
        open_spans[e.id] = e;
      } else if (e.type == ObsType::kEnd) {
        auto it = open_spans.find(e.id);
        // Ends without a retained begin (ring wraparound) are dropped.
        if (it == open_spans.end()) return;
        const TraceEvent& b = it->second;
        events.open_event()
            << "\"name\": \"" << to_string(e.phase) << "\", \"cat\": \"disk\", "
            << "\"ph\": \"X\", \"pid\": " << pid_of(b)
            << ", \"tid\": " << tid_of(b) << ", \"ts\": " << b.ts * 1e3
            << ", \"dur\": " << (e.ts - b.ts) * 1e3
            << ", \"args\": {\"span\": " << e.id << "}}";
        open_spans.erase(it);
      }
      return;
    }
    if (const char* cat = async_category(e.phase)) {
      events.open_event()
          << "\"name\": \"" << to_string(e.phase) << "\", \"cat\": \"" << cat
          << "\", \"ph\": \"" << (e.type == ObsType::kBegin ? 'b' : 'e')
          << "\", \"id\": " << e.id << ", \"pid\": " << pid_of(e)
          << ", \"tid\": " << tid_of(e) << ", \"ts\": " << e.ts * 1e3 << "}";
      return;
    }
    events.open_event()
        << "\"name\": \"" << to_string(e.phase) << "\", \"cat\": \""
        << instant_category(e.phase) << "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": "
        << pid_of(e) << ", \"tid\": " << tid_of(e) << ", \"ts\": " << e.ts * 1e3
        << ", \"args\": {\"span\": " << e.id << "}}";
  });

  if (sampler) write_counter_events(events, *sampler);

  out << "\n  ]\n}\n";
}

void write_timeseries_csv(std::ostream& out,
                          const TimeSeriesSampler& sampler) {
  out.setf(std::ios::fixed);
  out.precision(6);
  const auto& samples = sampler.samples();
  const std::size_t disks =
      samples.size() ? samples[0].queue_depth.size() : 0;
  const std::size_t arrays =
      samples.size() ? samples[0].cache_blocks.size() : 0;

  out << "t_ms,outstanding,events_executed";
  for (std::size_t d = 0; d < disks; ++d) out << ",queue_d" << d;
  for (std::size_t d = 0; d < disks; ++d) out << ",util_d" << d;
  for (std::size_t a = 0; a < arrays; ++a)
    out << ",cache_used_a" << a << ",cache_dirty_a" << a;
  out << "\n";

  for (std::size_t s = 0; s < samples.size(); ++s) {
    const TelemetrySample& sample = samples[s];
    out << sample.t << "," << sample.outstanding << ","
        << sample.events_executed;
    for (std::size_t d = 0; d < disks; ++d)
      out << "," << (d < sample.queue_depth.size() ? sample.queue_depth[d] : 0);
    // Windowed utilization: busy-time delta over the elapsed delta since
    // the previous retained sample (first row: since time zero).
    const TelemetrySample* prev = s ? &samples[s - 1] : nullptr;
    const double window = sample.t - (prev ? prev->t : 0.0);
    for (std::size_t d = 0; d < disks; ++d) {
      const double busy = d < sample.busy_ms.size() ? sample.busy_ms[d] : 0.0;
      const double before =
          prev && d < prev->busy_ms.size() ? prev->busy_ms[d] : 0.0;
      out << "," << (window > 0.0 ? (busy - before) / window : 0.0);
    }
    for (std::size_t a = 0; a < arrays; ++a)
      out << "," << sample.cache_blocks[a] << "," << sample.cache_dirty[a];
    out << "\n";
  }
}

std::vector<std::string> export_run_artifacts(
    const std::string& prefix, const Tracer& tracer,
    const TimeSeriesSampler* sampler) {
  std::vector<std::string> written;
  const std::string trace_path = prefix + ".trace.json";
  {
    std::ofstream out(trace_path);
    if (!out)
      throw std::runtime_error("export_run_artifacts: cannot write " +
                               trace_path);
    write_chrome_trace(out, tracer, sampler);
  }
  written.push_back(trace_path);
  if (sampler) {
    const std::string series_path = prefix + ".timeseries.csv";
    std::ofstream out(series_path);
    if (!out)
      throw std::runtime_error("export_run_artifacts: cannot write " +
                               series_path);
    write_timeseries_csv(out, *sampler);
    written.push_back(series_path);
  }
  return written;
}

}  // namespace raidsim
