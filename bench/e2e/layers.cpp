#include "layers.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "cache/nv_cache.hpp"
#include "channel/channel.hpp"
#include "core/simulator.hpp"
#include "disk/disk.hpp"
#include "disk/seek_model.hpp"
#include "layout/layout.hpp"
#include "sim/event_queue.hpp"

namespace raidsim_bench {

using raidsim::DiskOpKind;
using raidsim::PhysicalExtent;
using raidsim::SimTime;
using raidsim::TraceRecord;

std::vector<NamedValue> model_metrics(const raidsim::Metrics& m) {
  const auto requests = static_cast<double>(std::max<std::uint64_t>(1, m.requests));
  const auto ops = static_cast<double>(m.disk_totals.ops());
  return {
      {"sim.events_per_request", static_cast<double>(m.events_executed) / requests, "count"},
      {"disk.ops_per_request", ops / requests, "count"},
      {"disk.rmw_share", ops > 0 ? static_cast<double>(m.disk_totals.rmws) / ops : 0.0, "ratio"},
      {"disk.held_rotations", static_cast<double>(m.disk_totals.held_rotations), "count"},
      {"disk.queue_ms_mean", ops > 0 ? m.disk_totals.queue_ms / ops : 0.0, "sim_ms"},
      {"disk.utilization_mean", m.mean_disk_utilization(), "ratio"},
      {"cache.read_hit_ratio", m.read_hit_ratio(), "ratio"},
      {"cache.write_hit_ratio", m.write_hit_ratio(), "ratio"},
      {"cache.stalls", static_cast<double>(m.cache.stalls), "count"},
      {"array.destage_writes", static_cast<double>(m.controller.destage_writes), "count"},
      {"channel.utilization", m.channel_utilization, "ratio"},
      {"core.mean_response_ms", m.mean_response_ms(), "sim_ms"},
      {"core.p99_response_ms", m.response_all.p99(), "sim_ms"},
  };
}

namespace {

constexpr int kBatch = SpanRecorder::kBatch;

/// The workload's trace, materialised once so every layer replay sees
/// the same records at the same arrival times.
struct Trace {
  raidsim::TraceGeometry geometry;
  std::vector<TraceRecord> records;
  std::vector<SimTime> arrivals;  // summed in record order, as the engines do
};

/// One disk access of the disk-only replay.
struct DiskOp {
  std::int64_t start = 0;
  std::int32_t count = 0;
  std::int16_t array = 0;
  std::int16_t disk = 0;
  std::int16_t twin = -1;  // reads only: the mirror twin that may serve it
  DiskOpKind kind = DiskOpKind::kRead;
};

/// The disk accesses of every record, in record order: record i owns
/// ops[first[i], first[i + 1]).
struct DiskStream {
  std::vector<DiskOp> ops;
  std::vector<std::uint32_t> first;
};

raidsim::SimulationConfig classic(const Workload& workload) {
  raidsim::SimulationConfig config = workload.config;
  config.shards = 0;
  return config;
}

bool is_parity_org(raidsim::Organization org) {
  return org == raidsim::Organization::kRaid4 ||
         org == raidsim::Organization::kRaid5 ||
         org == raidsim::Organization::kParityStriping;
}

/// Runs `body(i)` for every record in batches of kBatch, one span per
/// batch under a root span; `body` returns the layer calls it made.
template <typename Body>
void batched(SpanRecorder& spans, const std::string& root_name,
             const std::string& batch_name, std::size_t records, Body&& body) {
  const int root = spans.begin(root_name);
  std::uint64_t total = 0;
  for (std::size_t first = 0, batch = 0; first < records;
       first += kBatch, ++batch) {
    const std::size_t last = std::min(records, first + kBatch);
    const int span = spans.begin(batch_name, root,
                                 static_cast<std::uint32_t>(batch), first);
    std::uint64_t calls = 0;
    for (std::size_t i = first; i < last; ++i) calls += body(i);
    spans.end(span, static_cast<std::uint32_t>(calls));
    total += calls;
  }
  spans.end(root, static_cast<std::uint32_t>(std::min<std::uint64_t>(total, UINT32_MAX)));
}

/// Closes a drain span around `run`, for the events left after the last
/// arrival; counted as one call.
template <typename Run>
void drained(SpanRecorder& spans, const std::string& name, Run&& run) {
  const int span = spans.begin(name);
  run();
  spans.end(span, 1);
}

Trace drain_trace(const Workload& workload, std::uint64_t seed,
                  SpanRecorder& spans) {
  auto stream = raidsim::make_workload(workload.trace, workload.options(seed));
  Trace trace;
  trace.geometry = stream->geometry();
  trace.records.reserve(stream->size_hint());
  const int root = spans.begin("trace.drain");
  for (std::uint32_t batch = 0;; ++batch) {
    const int span = spans.begin("trace.next", root, batch, trace.records.size());
    std::uint32_t n = 0;
    for (; n < kBatch; ++n) {
      auto record = stream->next();
      if (!record) break;
      trace.records.push_back(*record);
    }
    spans.end(span, n);
    if (n < kBatch) break;
  }
  spans.end(root, static_cast<std::uint32_t>(trace.records.size()));
  trace.arrivals.reserve(trace.records.size());
  SimTime arrival = 0.0;
  for (const auto& r : trace.records) trace.arrivals.push_back(arrival += r.delta_ms);
  return trace;
}

/// The controllers' rule: RMW accesses must not cross a cylinder.
raidsim::ExtentList split_at_cylinders(const PhysicalExtent& extent,
                                       int blocks_per_cylinder) {
  raidsim::ExtentList out;
  std::int64_t pos = extent.start_block;
  int remaining = extent.block_count;
  while (remaining > 0) {
    const int take = static_cast<int>(std::min<std::int64_t>(
        remaining, blocks_per_cylinder - pos % blocks_per_cylinder));
    out.push_back(PhysicalExtent{extent.disk, pos, take, -1});
    pos += take;
    remaining -= take;
  }
  return out;
}

/// Mapped extents of every record: reads as kRead, plain-write plans as
/// kWrite (plus kRead for reconstruct reads), small-write plans as
/// cylinder-split kReadModifyWrite on the data and the parity.
DiskStream map_disk_ops(const Trace& trace, const raidsim::Simulator& router,
                        int blocks_per_cylinder) {
  DiskStream stream;
  stream.first.reserve(trace.records.size() + 1);
  auto push = [&](int array, const PhysicalExtent& e, DiskOpKind kind,
                  int twin = -1) {
    stream.ops.push_back(DiskOp{e.start_block, e.block_count,
                                static_cast<std::int16_t>(array),
                                static_cast<std::int16_t>(e.disk),
                                static_cast<std::int16_t>(twin), kind});
  };
  for (const auto& r : trace.records) {
    stream.first.push_back(static_cast<std::uint32_t>(stream.ops.size()));
    const auto [array, local] = router.route(r.block);
    const raidsim::Layout& layout = router.controller(array).layout();
    if (!r.is_write) {
      for (const auto& e : layout.map_read(local, r.block_count))
        push(array, e, DiskOpKind::kRead, layout.mirror_of(e.disk));
      continue;
    }
    for (const auto& plan : layout.map_write(local, r.block_count)) {
      if (plan.reconstruct || plan.full_stripe || !plan.parity.valid()) {
        for (const auto& w : plan.writes) push(array, w, DiskOpKind::kWrite);
        for (const auto& rd : plan.reconstruct_reads) push(array, rd, DiskOpKind::kRead);
        if (plan.parity.valid()) push(array, plan.parity, DiskOpKind::kWrite);
        continue;
      }
      for (const auto& w : plan.writes)
        for (const auto& piece : split_at_cylinders(w, blocks_per_cylinder))
          push(array, piece, DiskOpKind::kReadModifyWrite);
      for (const auto& piece : split_at_cylinders(plan.parity, blocks_per_cylinder))
        push(array, piece, DiskOpKind::kReadModifyWrite);
    }
  }
  stream.first.push_back(static_cast<std::uint32_t>(stream.ops.size()));
  return stream;
}

/// Shortest-seek member of a mirrored pair, ties to the shorter queue --
/// the controllers' read rule without the fault and tail overlays.
int mirror_choice(const std::vector<std::unique_ptr<raidsim::Disk>>& disks,
                  const DiskOp& op, const raidsim::DiskGeometry& geometry) {
  const int twin = op.twin;
  const int target = geometry.locate_block(op.start).cylinder;
  const auto& a = *disks[static_cast<std::size_t>(op.disk)];
  const auto& b = *disks[static_cast<std::size_t>(twin)];
  const int da = std::abs(a.current_cylinder() - target);
  const int db = std::abs(b.current_cylinder() - target);
  if (da != db) return da < db ? op.disk : twin;
  return a.queue_length() <= b.queue_length() ? op.disk : twin;
}

/// Host time of one isolated layer replay, the layer calls it made, and
/// the kernel events it executed (replays on a private EventQueue).
struct LayerReplay {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t events = 0;
};

LayerReplay disk_replay(const Workload& workload, const Trace& trace,
                         const DiskStream& stream,
                         const raidsim::Simulator& router,
                         std::vector<SimTime>& fire, SpanRecorder& spans) {
  const auto& config = workload.config;
  raidsim::EventQueue eq(config.event_kernel, config.op_alloc);
  const raidsim::SeekModel seek = raidsim::SeekModel::calibrate(config.seek);
  std::vector<std::vector<std::unique_ptr<raidsim::Disk>>> disks(
      static_cast<std::size_t>(router.arrays()));
  for (int a = 0; a < router.arrays(); ++a)
    for (int d = 0; d < router.controller(a).layout().total_disks(); ++d)
      disks[static_cast<std::size_t>(a)].push_back(std::make_unique<raidsim::Disk>(
          eq, config.disk_geometry, &seek, d, config.disk_scheduling));
  fire.assign(stream.ops.size(), 0.0);

  auto submit = [&](std::size_t index) {
    const DiskOp& op = stream.ops[index];
    auto& array = disks[static_cast<std::size_t>(op.array)];
    const int disk = op.twin >= 0 ? mirror_choice(array, op, config.disk_geometry)
                                  : op.disk;
    raidsim::DiskRequest req;
    req.kind = op.kind;
    req.start_block = op.start;
    req.block_count = op.count;
    if (op.kind == DiskOpKind::kReadModifyWrite)
      req.gate = raidsim::WriteGate::already_open(eq.op_arena());
    req.on_complete = [&fire, index](SimTime t) { fire[index] = t; };
    array[static_cast<std::size_t>(disk)]->submit(std::move(req));
  };
  batched(spans, "disk.replay", "disk.batch", trace.records.size(),
          [&](std::size_t i) {
            eq.run_until(trace.arrivals[i]);
            for (std::uint32_t k = stream.first[i]; k < stream.first[i + 1]; ++k)
              submit(k);
            return stream.first[i + 1] - stream.first[i];
          });
  drained(spans, "disk.drain", [&] { eq.run(); });
  return {spans.self_ns("disk.batch") + spans.self_ns("disk.drain"),
          stream.ops.size(), eq.executed()};
}

/// Bare kernel replay: every disk op of the disk-only replay becomes one
/// event scheduled at its submit time for its completion time.
LayerReplay sim_replay(const Workload& workload, const Trace& trace,
                        const DiskStream& stream,
                        const std::vector<SimTime>& fire, SpanRecorder& spans) {
  raidsim::EventQueue eq(workload.config.event_kernel, workload.config.op_alloc);
  std::uint64_t fired = 0;
  batched(spans, "sim.replay", "sim.batch", trace.records.size(),
          [&](std::size_t i) {
            eq.run_until(trace.arrivals[i]);
            for (std::uint32_t k = stream.first[i]; k < stream.first[i + 1]; ++k)
              eq.schedule_at(fire[k], [&fired] { ++fired; });
            return stream.first[i + 1] - stream.first[i];
          });
  drained(spans, "sim.drain", [&] { eq.run(); });
  if (fired != stream.ops.size()) throw std::runtime_error("sim replay lost events");
  return {spans.self_ns("sim.batch") + spans.self_ns("sim.drain"), eq.executed(),
          eq.executed()};
}

LayerReplay channel_replay(const Workload& workload, const Trace& trace,
                            const raidsim::Simulator& router, SpanRecorder& spans) {
  const auto& config = workload.config;
  raidsim::EventQueue eq(config.event_kernel, config.op_alloc);
  std::vector<std::unique_ptr<raidsim::Channel>> channels;
  for (int a = 0; a < router.arrays(); ++a)
    channels.push_back(
        std::make_unique<raidsim::Channel>(eq, config.channel_mb_per_second));
  const std::int64_t block_bytes = config.disk_geometry.block_bytes();
  std::uint64_t done = 0;
  batched(spans, "channel.replay", "channel.batch", trace.records.size(),
          [&](std::size_t i) {
            eq.run_until(trace.arrivals[i]);
            const TraceRecord& r = trace.records[i];
            channels[static_cast<std::size_t>(router.route(r.block).first)]->transfer(
                block_bytes * r.block_count, [&done](SimTime) { ++done; });
            return 1u;
          });
  drained(spans, "channel.drain", [&] { eq.run(); });
  if (done != trace.records.size()) throw std::runtime_error("channel replay lost transfers");
  return {spans.self_ns("channel.batch") + spans.self_ns("channel.drain"),
          trace.records.size(), eq.executed()};
}

/// NvCache calls of every record (read probes + fills on a miss, writes)
/// plus, at each destage period of trace time, a destage pass over every
/// array's dirty blocks. Workloads without a cache replay the paper's
/// 16 MB cache: the layer's cost on that trace.
LayerReplay cache_replay(const Workload& workload, const Trace& trace,
                          const raidsim::Simulator& router, SpanRecorder& spans) {
  const auto cache_config = workload.config.cache_config();
  const auto capacity = static_cast<std::size_t>(std::max<std::int64_t>(
      1, cache_config.cache_bytes / workload.config.disk_geometry.block_bytes()));
  const bool retain = cache_config.retain_old_data &&
                      is_parity_org(workload.config.organization);
  std::vector<raidsim::NvCache> caches;
  for (int a = 0; a < router.arrays(); ++a) caches.emplace_back(capacity, retain);
  const double period = cache_config.destage_period_ms;
  double next_tick = period;
  std::uint64_t sink = 0;

  auto destage = [&] {
    std::uint64_t calls = 0;
    for (auto& cache : caches) {
      auto dirty = cache.collect_dirty();
      std::sort(dirty.begin(), dirty.end());
      for (const auto b : dirty) cache.begin_destage(b);
      for (const auto b : dirty) cache.end_destage(b);
      calls += 2 * dirty.size();
    }
    return calls;
  };
  batched(spans, "cache.replay", "cache.batch", trace.records.size(),
          [&](std::size_t i) {
            std::uint64_t calls = 0;
            for (; trace.arrivals[i] >= next_tick; next_tick += period)
              calls += destage();
            const TraceRecord& r = trace.records[i];
            const auto [array, local] = router.route(r.block);
            auto& cache = caches[static_cast<std::size_t>(array)];
            if (r.is_write) {
              for (int b = 0; b < r.block_count; ++b)
                sink += cache.write(local + b).accepted;
              return calls + static_cast<std::uint64_t>(r.block_count);
            }
            bool all_cached = true;
            for (int b = 0; b < r.block_count; ++b)
              all_cached = cache.contains(local + b) && all_cached;
            for (int b = 0; b < r.block_count; ++b) sink += cache.read(local + b);
            calls += 2 * static_cast<std::uint64_t>(r.block_count);
            if (!all_cached) {
              for (int b = 0; b < r.block_count; ++b)
                sink += cache.insert_clean(local + b).inserted;
              calls += static_cast<std::uint64_t>(r.block_count);
            }
            return calls;
          });
  if (sink == UINT64_MAX) std::abort();  // keeps the calls observable
  return {spans.self_ns("cache.batch"), spans.calls("cache.batch"), 0};
}

LayerReplay layout_replay(const Trace& trace, const raidsim::Simulator& router,
                           SpanRecorder& spans) {
  std::uint64_t sink = 0;
  batched(spans, "layout.replay", "layout.map", trace.records.size(),
          [&](std::size_t i) {
            const TraceRecord& r = trace.records[i];
            const auto [array, local] = router.route(r.block);
            const raidsim::Layout& layout = router.controller(array).layout();
            if (r.is_write) {
              const auto plans = layout.map_write(local, r.block_count);
              sink += plans.size() + plans.front().writes.size();
            } else {
              const auto extents = layout.map_read(local, r.block_count);
              sink += extents.size() + static_cast<std::uint64_t>(extents[0].disk);
            }
            return 1u;
          });
  if (sink == UINT64_MAX) std::abort();
  return {spans.self_ns("layout.map"), trace.records.size(), 0};
}

/// Host-time split of a classic-engine replay driven from outside:
/// TraceStream::next, then event_queue().run_until(arrival), then
/// Simulator::submit, per record.
struct DrivenReplay {
  double wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t records = 0;
};

DrivenReplay driven_replay(const Workload& workload, std::uint64_t seed,
                           SpanRecorder* spans) {
  const std::int64_t t0 = now_ns();
  auto stream = raidsim::make_workload(workload.trace, workload.options(seed));
  raidsim::Simulator sim(classic(workload), stream->geometry());
  raidsim::EventQueue& eq = sim.event_queue();
  DrivenReplay out;
  SimTime arrival = 0.0;
  if (spans == nullptr) {
    while (auto r = stream->next()) {
      eq.run_until(arrival += r->delta_ms);
      sim.submit(*r);
      ++out.records;
    }
  } else {
    const int root = spans->begin("core.replay");
    for (std::uint32_t batch = 0;; ++batch) {
      const int span = spans->begin("core.batch", root, batch, out.records);
      std::int64_t next_ns = 0, events_ns = 0, submit_ns = 0;
      std::uint32_t n = 0;
      std::int64_t ta = now_ns();
      for (; n < kBatch; ++n) {
        auto r = stream->next();
        const std::int64_t tb = now_ns();
        next_ns += tb - ta;
        if (!r) break;
        eq.run_until(arrival += r->delta_ms);
        const std::int64_t tc = now_ns();
        events_ns += tc - tb;
        sim.submit(*r);
        ta = now_ns();
        submit_ns += ta - tc;
      }
      spans->end(span, n);
      spans->add_aggregate("core.trace_next", span, batch, out.records, n, next_ns);
      spans->add_aggregate("core.events", span, batch, out.records, n, events_ns);
      spans->add_aggregate("core.submit", span, batch, out.records, n, submit_ns);
      out.records += n;
      if (n < kBatch) break;
    }
    spans->end(root, static_cast<std::uint32_t>(out.records));
  }
  const int drain = spans ? spans->begin("core.drain") : -1;
  const raidsim::Metrics metrics = sim.drain_and_finalize();
  if (spans) spans->end(drain, 1);
  out.requests = metrics.requests;
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (out.requests != out.records)
    throw std::runtime_error("driven replay stranded requests");
  return out;
}

}  // namespace

std::vector<NamedValue> traced_run(const Workload& workload, std::uint64_t seed,
                                   const UntracedReference& reference,
                                   SpanRecorder& spans) {
  std::vector<NamedValue> out;
  auto ns_per = [](std::int64_t ns, std::uint64_t calls) {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  };
  const double cpu_ns = reference.cpu_s * 1e9;
  auto share = [&](double ns) { return cpu_ns > 0 ? ns / cpu_ns : 0.0; };

  double trace_ns = 0, layout_ns = 0, cache_ns = 0, disk_ns = 0, sim_ns = 0;
  {
    const Trace trace = drain_trace(workload, seed, spans);
    trace_ns = static_cast<double>(spans.self_ns("trace.next"));
    const raidsim::Simulator router(classic(workload), trace.geometry);

    const LayerReplay layout = layout_replay(trace, router, spans);
    layout_ns = static_cast<double>(layout.ns);
    const LayerReplay cache = cache_replay(workload, trace, router, spans);
    if (workload.config.cached) cache_ns = static_cast<double>(cache.ns);

    const DiskStream stream = map_disk_ops(
        trace, router, workload.config.disk_geometry.blocks_per_cylinder());
    std::vector<SimTime> fire;
    const LayerReplay disk = disk_replay(workload, trace, stream, router, fire, spans);
    const LayerReplay sim = sim_replay(workload, trace, stream, fire, spans);
    const LayerReplay channel = channel_replay(workload, trace, router, spans);

    // The disk and channel numbers include the kernel work their own
    // events cause. For the shares every event of the untraced replay is
    // charged once: disk events (at the disk replay's events per op) go
    // with the disk, the rest to the kernel at the bare replay's rate.
    const double ns_per_event = ns_per(sim.ns, sim.events);
    const double disk_ns_per_op = ns_per(disk.ns, disk.calls);
    const double disk_events = static_cast<double>(disk.events) /
                               static_cast<double>(std::max<std::uint64_t>(1, disk.calls)) *
                               static_cast<double>(reference.disk_ops);
    disk_ns = disk_ns_per_op * static_cast<double>(reference.disk_ops);
    sim_ns = ns_per_event *
             std::max(0.0, static_cast<double>(reference.events_executed) - disk_events);

    out.push_back({"trace.ns_per_record", ns_per(static_cast<std::int64_t>(trace_ns),
                                                 trace.records.size()), "ns"});
    out.push_back({"layout.ns_per_request", ns_per(layout.ns, layout.calls), "ns"});
    out.push_back({"cache.ns_per_block_op", ns_per(cache.ns, cache.calls), "ns"});
    out.push_back({"disk.ns_per_op", disk_ns_per_op, "ns"});
    out.push_back({"channel.ns_per_transfer", ns_per(channel.ns, channel.calls), "ns"});
    out.push_back({"sim.ns_per_event", ns_per_event, "ns"});
  }

  // Classic-engine replay driven through submit: a warm-up, then traced
  // and untraced passes alternately. The sharded engine has no submit
  // path, so its workload runs this split on the classic engine.
  constexpr int kDrivenPairs = 2;
  driven_replay(workload, seed, nullptr);
  double traced_s = 0.0, untraced_s = 0.0;
  std::uint64_t traced_records = 0;
  for (int i = 0; i < kDrivenPairs; ++i) {
    const DrivenReplay traced = driven_replay(workload, seed, &spans);
    traced_s += traced.wall_s;
    traced_records += traced.records;
    untraced_s += driven_replay(workload, seed, nullptr).wall_s;
  }
  out.push_back({"core.submit_ns_per_request",
                 ns_per(spans.self_ns("core.submit"), traced_records), "ns"});
  out.push_back({"core.events_ns_per_request",
                 ns_per(spans.self_ns("core.events") + spans.self_ns("core.drain"),
                        traced_records),
                 "ns"});

  out.push_back({"trace.share", share(trace_ns), "ratio"});
  out.push_back({"layout.share", share(layout_ns), "ratio"});
  out.push_back({"cache.share", share(cache_ns), "ratio"});
  out.push_back({"disk.share", share(disk_ns), "ratio"});
  out.push_back({"sim.share", share(sim_ns), "ratio"});
  out.push_back({"layers.residual_share",
                 1.0 - share(trace_ns + layout_ns + cache_ns + disk_ns + sim_ns),
                 "ratio"});
  out.push_back({"tracing.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%"});
  return out;
}

}  // namespace raidsim_bench
