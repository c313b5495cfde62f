#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace raidsim_bench {

struct NamedValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Simulated statistics of one run, exact and taken from Metrics. A pure
/// performance change leaves every one of them unchanged.
std::vector<NamedValue> model_metrics(const raidsim::Metrics& metrics);

/// What the traced run needs from the untraced reps of the same workload.
struct UntracedReference {
  double cpu_s = 0.0;                  // median rep CPU time (share base)
  std::uint64_t events_executed = 0;   // kernel events of one replay
  std::uint64_t disk_ops = 0;          // disk accesses of one replay
};

/// The traced run: times each layer's public calls from outside, in
/// batched spans recorded into `spans`, and returns the host-time
/// per-layer metrics (ns per call, shares of the untraced replay's CPU
/// time, the residual, and the tracing overhead).
std::vector<NamedValue> traced_run(const Workload& workload,
                                   std::uint64_t seed,
                                   const UntracedReference& reference,
                                   SpanRecorder& spans);

}  // namespace raidsim_bench
