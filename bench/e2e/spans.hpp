#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace raidsim_bench {

/// Monotonic host clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory recorder of batched host-time spans, written out as a
/// Chrome-trace JSON (loads in Perfetto / chrome://tracing) when the
/// traced run ends. The benchmark opens spans around its own calls into
/// each layer's public API, one span per batch of calls, so recording
/// costs two clock reads per batch.
///
/// A span either covers a contiguous interval (self time = end - start)
/// or aggregates calls interleaved with other layers' calls inside its
/// parent's interval; then `self_ns` is the summed call time and the span
/// is drawn at its parent's start with that duration.
class SpanRecorder {
 public:
  static constexpr int kBatch = 1024;  // layer calls per span

  struct Span {
    int name = 0;           // index into the interned span names
    int parent = -1;        // index of the parent span, -1 for a root
    std::uint32_t batch = 0;
    std::uint64_t first = 0;  // index of the first request/record covered
    std::uint32_t count = 0;  // layer calls covered
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// Open a span starting now; returns its index for end().
  int begin(const std::string& name, int parent = -1, std::uint32_t batch = 0,
            std::uint64_t first = 0);
  /// Close a span opened by begin(), covering `count` layer calls.
  void end(int span, std::uint32_t count);
  /// Record an aggregated span (see class comment).
  void add_aggregate(const std::string& name, int parent, std::uint32_t batch,
                     std::uint64_t first, std::uint32_t count,
                     std::int64_t self_ns);

  /// Summed self time and call count of every span with this name.
  std::int64_t self_ns(const std::string& name) const;
  std::uint64_t calls(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as Chrome-trace complete events under one process
  /// labelled `process`; each span name gets its own track.
  void write_chrome_trace(const std::string& path,
                          const std::string& process) const;

 private:
  int intern(const std::string& name);
  int find(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace raidsim_bench
