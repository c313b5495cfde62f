// Micro-benchmarks (google-benchmark) for the simulator substrates:
// event queue, disk service model, NV cache (mixed ops, index probes,
// eviction churn), Fenwick-backed LRU stack (reuse-only and the
// generator's insertion-heavy traffic), trace generation, and trace
// loading (text parse vs binary walk).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/nv_cache.hpp"
#include "disk/disk.hpp"
#include "sim/event_queue.hpp"
#include "trace/lru_stack.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/fenwick.hpp"
#include "util/rng.hpp"

namespace {

using namespace raidsim;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < n; ++i)
      eq.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    eq.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void BM_DiskRandomReads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DiskGeometry geo;
  const SeekModel seek = SeekModel::calibrate(SeekSpec{});
  Rng rng(1);
  for (auto _ : state) {
    EventQueue eq;
    Disk disk(eq, geo, &seek, 0);
    for (int i = 0; i < n; ++i) {
      DiskRequest req;
      req.kind = DiskOpKind::kRead;
      req.start_block =
          static_cast<std::int64_t>(rng.uniform_u64(
              static_cast<std::uint64_t>(geo.total_blocks())));
      disk.submit(std::move(req));
    }
    eq.run();
    benchmark::DoNotOptimize(disk.stats().busy_ms);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DiskRandomReads)->Arg(4096);

void BM_NvCacheMixedOps(benchmark::State& state) {
  Rng rng(2);
  NvCache cache(4096, true);
  for (auto _ : state) {
    const std::int64_t block = rng.uniform_i64(0, 20000);
    if (rng.bernoulli(0.3)) {
      benchmark::DoNotOptimize(cache.write(block));
    } else if (!cache.read(block)) {
      benchmark::DoNotOptimize(cache.insert_clean(block));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvCacheMixedOps);

// Pure index probes on a full cache (every lookup hits): isolates the
// open-addressing find + LRU touch from eviction machinery.
void BM_NvCacheIndexProbe(benchmark::State& state) {
  const std::int64_t capacity = state.range(0);
  NvCache cache(static_cast<std::size_t>(capacity), false);
  for (std::int64_t b = 0; b < capacity; ++b) cache.insert_clean(b);
  Rng rng(5);
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.read(rng.uniform_i64(0, capacity - 1)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvCacheIndexProbe)->Arg(1024)->Arg(65536);

// Insert into a full cache: every op evicts the LRU entry (index erase
// with backward-shift deletion + slab recycle + fresh insert).
void BM_NvCacheInsertEvict(benchmark::State& state) {
  const std::int64_t capacity = state.range(0);
  NvCache cache(static_cast<std::size_t>(capacity), false);
  std::int64_t next = 0;
  for (; next < capacity; ++next) cache.insert_clean(next);
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.insert_clean(next++));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NvCacheInsertEvict)->Arg(1024)->Arg(65536);

// Destage sweep over a half-dirty cache: collect_dirty walks the
// intrusive LRU list, then each block takes the begin/end flag cycle.
void BM_NvCacheDestageSweep(benchmark::State& state) {
  const std::int64_t capacity = 16384;
  NvCache cache(static_cast<std::size_t>(capacity), false);
  for (std::int64_t b = 0; b < capacity; ++b) cache.insert_clean(b);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::int64_t b = 0; b < capacity; b += 2) cache.write(b);
    state.ResumeTiming();
    const auto dirty = cache.collect_dirty();
    for (const std::int64_t b : dirty) {
      cache.begin_destage(b);
      cache.end_destage(b);
    }
    benchmark::DoNotOptimize(dirty.size());
  }
  state.SetItemsProcessed(state.iterations() * (capacity / 2));
}
BENCHMARK(BM_NvCacheDestageSweep);

const std::string& trace_text_image() {
  static const std::string image = [] {
    TraceProfile profile = TraceProfile::trace2();
    profile.requests = 20000;
    SyntheticTrace trace(profile);
    std::ostringstream out;
    TraceWriter::write(trace, out);
    return out.str();
  }();
  return image;
}

const std::string& trace_binary_image() {
  static const std::string image = [] {
    TraceProfile profile = TraceProfile::trace2();
    profile.requests = 20000;
    SyntheticTrace trace(profile);
    std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
    BinaryTraceWriter::write(trace, out);
    return out.str();
  }();
  return image;
}

void BM_TraceLoadText(benchmark::State& state) {
  const std::string& image = trace_text_image();
  for (auto _ : state) {
    TraceReader reader(std::make_unique<std::istringstream>(image));
    std::int64_t sum = 0;
    while (auto rec = reader.next()) sum += rec->block;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TraceLoadText);

void BM_TraceLoadBinary(benchmark::State& state) {
  const std::string& image = trace_binary_image();
  for (auto _ : state) {
    auto reader =
        BinaryTraceReader::from_buffer(image.data(), image.size());
    std::int64_t sum = 0;
    while (auto rec = reader->next()) sum += rec->block;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TraceLoadBinary);

void BM_FenwickAddSelect(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  FenwickTree tree(n);
  Rng rng(3);
  for (std::size_t i = 0; i < n; i += 2) tree.add(i, 1);
  for (auto _ : state) {
    const auto i = static_cast<std::size_t>(rng.uniform_u64(n));
    tree.add(i, 1);
    benchmark::DoNotOptimize(
        tree.select(1 + static_cast<std::int64_t>(
                            rng.uniform_u64(
                                static_cast<std::uint64_t>(tree.total())))));
    tree.add(i, -1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FenwickAddSelect);

void BM_LruStackTouchAtDepth(benchmark::State& state) {
  LruStack stack;
  Rng rng(4);
  for (int i = 0; i < 50000; ++i) stack.touch(rng.uniform_i64(0, 99999));
  for (auto _ : state) {
    const auto depth =
        static_cast<std::size_t>(rng.uniform_u64(stack.size()));
    const auto block = stack.at_depth(depth);
    stack.touch(*block);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStackTouchAtDepth);

// The generator's real traffic, shaped like trace1 x0.25: 1.12M touches,
// most of them inserting a block never seen before (~0.63 distinct blocks
// per touch, ~700k in all), the rest re-touching the block at a depth
// drawn from trace1's read stack-distance distribution (a depth past the
// bottom falls back to a fresh block, as in the generator). Each
// iteration builds its stack inside the timing; the op list is drawn up
// front. BM_LruStackInsertHeavy grows the stack from empty, so every
// index doubling and compaction is timed; BM_LruStackInsertHeavySized
// first sizes it once as the generator does (the touches, and an index
// for trace1 x0.25's 840,626 records), so neither happens.
void lru_stack_insert_heavy(benchmark::State& state, bool sized) {
  struct Op {
    bool reuse;
    std::uint32_t depth;
    std::uint32_t fresh;
  };
  constexpr int kTouches = 1'120'000;
  constexpr std::size_t kRecords = 840'626;
  static const std::vector<Op> ops = [] {
    Rng rng(6);
    const LognormalMixture depth = TraceProfile::trace1().read_depth;
    const auto universe = static_cast<std::uint64_t>(
        TraceProfile::trace1().geometry.total_blocks());
    std::vector<Op> out(kTouches);
    for (Op& op : out) {
      op.reuse = rng.bernoulli(0.56);
      op.depth = static_cast<std::uint32_t>(
          std::min(depth.sample(rng), 4.0e9));
      op.fresh = static_cast<std::uint32_t>(rng.uniform_u64(universe));
    }
    return out;
  }();
  std::size_t distinct = 0;
  for (auto _ : state) {
    LruStack stack;
    if (sized) stack.reserve(kTouches, kRecords);
    for (const Op& op : ops) {
      std::optional<std::int64_t> block;
      if (op.reuse) block = stack.at_depth(op.depth);
      stack.touch(block ? *block : op.fresh);
    }
    distinct = stack.size();
    benchmark::DoNotOptimize(distinct);
  }
  state.SetItemsProcessed(state.iterations() * kTouches);
  state.counters["distinct_per_touch"] =
      static_cast<double>(distinct) / kTouches;
}
void BM_LruStackInsertHeavy(benchmark::State& state) {
  lru_stack_insert_heavy(state, false);
}
BENCHMARK(BM_LruStackInsertHeavy)->Unit(benchmark::kMillisecond);
void BM_LruStackInsertHeavySized(benchmark::State& state) {
  lru_stack_insert_heavy(state, true);
}
BENCHMARK(BM_LruStackInsertHeavySized)->Unit(benchmark::kMillisecond);

void BM_SyntheticTraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    TraceProfile profile = TraceProfile::trace2();
    profile.requests = 20000;
    SyntheticTrace trace(profile);
    std::uint64_t sum = 0;
    while (auto rec = trace.next()) sum += static_cast<std::uint64_t>(rec->block);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_SyntheticTraceGeneration);

}  // namespace

BENCHMARK_MAIN();
