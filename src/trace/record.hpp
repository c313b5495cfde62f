#pragma once

#include <cstdint>
#include <memory>
#include <optional>

namespace raidsim {

/// One I/O request from a trace. Mirrors the paper's trace format
/// (Section 3.1): absolute database block address, access type, and time
/// since the previous request; multiblock requests are a single record
/// with `block_count` > 1 (equivalent to the paper's chained zero-delta
/// entries).
struct TraceRecord {
  double delta_ms = 0.0;        // time since the previous request
  std::int64_t block = 0;       // absolute database block address
  int block_count = 1;
  bool is_write = false;
};

/// Static description of the traced database (how absolute block
/// addresses decompose into original data disks).
struct TraceGeometry {
  int data_disks = 10;
  std::int64_t blocks_per_disk = 226000;

  std::int64_t total_blocks() const {
    return static_cast<std::int64_t>(data_disks) * blocks_per_disk;
  }
  int disk_of(std::int64_t block) const {
    return static_cast<int>(block / blocks_per_disk);
  }
  std::int64_t offset_of(std::int64_t block) const {
    return block % blocks_per_disk;
  }
};

/// Pull-based stream of trace records.
class TraceStream {
 public:
  virtual ~TraceStream() = default;

  virtual const TraceGeometry& geometry() const = 0;

  /// Next record, or nullopt at end of trace.
  virtual std::optional<TraceRecord> next() = 0;

  /// Number of records this stream will yield, when known up front
  /// (0 = unknown). Purely a pre-sizing hint for replay buffers.
  virtual std::uint64_t size_hint() const { return 0; }
};

/// Adapter scaling the arrival rate (Sections 4.2.4, 4.4.3: "modifying
/// trace speed"). speed > 1 compresses inter-arrival times.
class SpeedAdapter : public TraceStream {
 public:
  SpeedAdapter(std::unique_ptr<TraceStream> inner, double speed);

  const TraceGeometry& geometry() const override {
    return inner_->geometry();
  }
  std::optional<TraceRecord> next() override;
  std::uint64_t size_hint() const override { return inner_->size_hint(); }

 private:
  std::unique_ptr<TraceStream> inner_;
  double speed_;
};

/// Adapter truncating a trace to its first `limit` requests (used by the
/// --scale option of the reproduction benches).
class PrefixAdapter : public TraceStream {
 public:
  PrefixAdapter(std::unique_ptr<TraceStream> inner, std::uint64_t limit);

  const TraceGeometry& geometry() const override {
    return inner_->geometry();
  }
  std::optional<TraceRecord> next() override;
  std::uint64_t size_hint() const override;

 private:
  std::unique_ptr<TraceStream> inner_;
  std::uint64_t remaining_;
};

}  // namespace raidsim
