#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "svc/json.hpp"

namespace raidsim_bench {

int SpanRecorder::find(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  return -1;
}

int SpanRecorder::intern(const std::string& name) {
  const int found = find(name);
  if (found >= 0) return found;
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int SpanRecorder::begin(const std::string& name, int parent,
                        std::uint32_t batch, std::uint64_t first) {
  Span span;
  span.name = intern(name);
  span.parent = parent;
  span.batch = batch;
  span.first = first;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int index, std::uint32_t count) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  span.self_ns = span.end_ns - span.start_ns;
  span.count = count;
}

void SpanRecorder::add_aggregate(const std::string& name, int parent,
                                 std::uint32_t batch, std::uint64_t first,
                                 std::uint32_t count, std::int64_t self_ns) {
  Span span;
  span.name = intern(name);
  span.parent = parent;
  span.batch = batch;
  span.first = first;
  span.count = count;
  span.start_ns = parent >= 0 ? spans_[static_cast<std::size_t>(parent)].start_ns
                              : now_ns();
  span.end_ns = span.start_ns + self_ns;
  span.self_ns = self_ns;
  spans_.push_back(span);
}

std::int64_t SpanRecorder::self_ns(const std::string& name) const {
  const int id = find(name);
  std::int64_t total = 0;
  for (const Span& s : spans_)
    if (s.name == id) total += s.self_ns;
  return total;
}

std::uint64_t SpanRecorder::calls(const std::string& name) const {
  const int id = find(name);
  std::uint64_t total = 0;
  for (const Span& s : spans_)
    if (s.name == id) total += s.count;
  return total;
}

void SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::string& process) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  auto us = [](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
    return std::string(buf);
  };
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
      << raidsim::svc::json_quote(process) << "}}";
  for (std::size_t i = 0; i < names_.size(); ++i)
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i
        << ",\"args\":{\"name\":" << raidsim::svc::json_quote(names_[i]) << "}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"name\":"
        << raidsim::svc::json_quote(names_[static_cast<std::size_t>(s.name)])
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.name
        << ",\"ts\":" << us(s.start_ns - origin) << ",\"dur\":" << us(s.end_ns - s.start_ns)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"batch\":" << s.batch << ",\"first\":" << s.first
        << ",\"count\":" << s.count << ",\"self_ns\":" << s.self_ns << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to " + path);
}

}  // namespace raidsim_bench
