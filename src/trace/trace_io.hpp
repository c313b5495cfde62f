#pragma once

#include <cstdint>
#include <iosfwd>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace raidsim {

/// Text trace format, one request per line:
///
///   # comment
///   disks <n>
///   blocks_per_disk <b>
///   <delta_us> <block> <count> <R|W>
///
/// The two header directives must precede the first record (the geometry
/// is needed to bounds-check every record). This lets users replay real
/// traces (converted to this format) through the simulator in place of
/// the synthetic workloads. Malformed input -- records before the header,
/// unknown directives, non-numeric fields, negative or overflowing
/// deltas/addresses/counts, trailing garbage -- throws std::runtime_error
/// naming the offending line; CRLF line endings are accepted.
class TraceWriter {
 public:
  /// Serialise everything remaining in `stream` to `os`.
  static void write(TraceStream& stream, std::ostream& os);
};

/// Streaming reader for the text trace format.
class TraceReader : public TraceStream {
 public:
  /// Reads from an owned istream (e.g. std::ifstream moved in via
  /// unique_ptr). Throws std::runtime_error on malformed input.
  explicit TraceReader(std::unique_ptr<std::istream> input);

  /// Convenience: open a file by path.
  static std::unique_ptr<TraceReader> open(const std::string& path);

  const TraceGeometry& geometry() const override { return geometry_; }
  std::optional<TraceRecord> next() override;

 private:
  void parse_header();

  std::unique_ptr<std::istream> input_;
  TraceGeometry geometry_;
  std::uint64_t line_number_ = 0;
};

/// Compact binary trace format ("RSTB"): a 32-byte little-endian header
/// followed by fixed 24-byte records, so repeated replays of large
/// synthetic traces skip text parsing entirely.
///
///   header: magic "RSTB" | u32 version (=1) | u32 flags | i32 data_disks
///           | i64 blocks_per_disk | u64 record_count
///   record: f64 delta_ms | i64 block | i32 block_count | u8 is_write | pad
///
/// The writer stores 0 in `flags` and the reader ignores it, so files
/// with any flag bits set (older writers stamped bit 0) still load. A
/// file is outside input: the simulator checks every record it replays.
struct BinaryTraceHeader {
  static constexpr char kMagic[4] = {'R', 'S', 'T', 'B'};
  static constexpr std::uint32_t kVersion = 1;

  char magic[4] = {'R', 'S', 'T', 'B'};
  std::uint32_t version = kVersion;
  std::uint32_t flags = 0;
  std::int32_t data_disks = 0;
  std::int64_t blocks_per_disk = 0;
  std::uint64_t record_count = 0;
};
static_assert(sizeof(BinaryTraceHeader) == 32, "header layout is the format");

struct BinaryTraceRecord {
  double delta_ms = 0.0;
  std::int64_t block = 0;
  std::int32_t block_count = 1;
  std::uint8_t is_write = 0;
  std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(BinaryTraceRecord) == 24, "record layout is the format");

class BinaryTraceWriter {
 public:
  /// Serialise everything remaining in `stream` to `os`, validating each
  /// record against the stream geometry (malformed records, non-finite
  /// or negative deltas included, throw std::runtime_error). The record
  /// count is back-patched, so `os` must be seekable.
  static std::uint64_t write(TraceStream& stream, std::ostream& os);

  /// Convenience: write to a file by path.
  static std::uint64_t write_file(TraceStream& stream,
                                  const std::string& path);
};

/// Reader for the binary trace format. Maps the file read-only (mmap)
/// where the platform supports it, falling back to one buffered read;
/// either way next() is a bounds-free pointer walk.
class BinaryTraceReader : public TraceStream {
 public:
  /// Throws std::runtime_error on a bad magic, unsupported version, or a
  /// truncated file.
  static std::unique_ptr<BinaryTraceReader> open(const std::string& path);

  /// Parse an in-memory image (testing, non-file transports). Copies.
  static std::unique_ptr<BinaryTraceReader> from_buffer(
      const void* data, std::size_t bytes);

  ~BinaryTraceReader() override;

  const TraceGeometry& geometry() const override { return geometry_; }
  std::optional<TraceRecord> next() override;
  std::uint64_t size_hint() const override { return count_ - cursor_; }

  std::uint64_t record_count() const { return count_; }
  bool mapped() const { return mapped_ != nullptr; }

 private:
  BinaryTraceReader() = default;
  void parse(const unsigned char* data, std::size_t bytes);

  TraceGeometry geometry_;
  std::uint64_t count_ = 0;
  std::uint64_t cursor_ = 0;
  const unsigned char* records_ = nullptr;  // into mapped_ or owned_
  void* mapped_ = nullptr;                  // mmap base (munmap on destroy)
  std::size_t mapped_bytes_ = 0;
  std::vector<unsigned char> owned_;
};

/// Open a trace file of either format, sniffing the binary magic.
std::unique_ptr<TraceStream> open_trace(const std::string& path);

}  // namespace raidsim
