// Binary ("RSTB") trace format: round trips, header validation,
// truncation detection, ignored header flags, and the format-sniffing
// open_trace() entry point.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/workloads.hpp"
#include "trace/trace_io.hpp"

namespace raidsim {
namespace {

std::unique_ptr<std::istream> text(const std::string& s) {
  return std::make_unique<std::istringstream>(s);
}

const char* kSmallText =
    "disks 2\n"
    "blocks_per_disk 100\n"
    "1500 5 1 R\n"
    "0 105 3 W\n"
    "250 42 2 R\n";

std::string to_binary(const std::string& trace_text) {
  TraceReader reader(text(trace_text));
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter::write(reader, out);
  return out.str();
}

TEST(TraceBinary, RoundTripPreservesRecordsExactly) {
  const std::string bytes = to_binary(kSmallText);
  auto reader = BinaryTraceReader::from_buffer(bytes.data(), bytes.size());

  EXPECT_EQ(reader->geometry().data_disks, 2);
  EXPECT_EQ(reader->geometry().blocks_per_disk, 100);
  EXPECT_EQ(reader->record_count(), 3u);
  EXPECT_EQ(reader->size_hint(), 3u);

  TraceReader expect(text(kSmallText));
  for (int i = 0; i < 3; ++i) {
    auto want = expect.next();
    auto got = reader->next();
    ASSERT_TRUE(want && got) << "record " << i;
    // Deltas are stored as the f64 the text parser produced, so even the
    // floating-point bits survive the round trip.
    EXPECT_EQ(got->delta_ms, want->delta_ms);
    EXPECT_EQ(got->block, want->block);
    EXPECT_EQ(got->block_count, want->block_count);
    EXPECT_EQ(got->is_write, want->is_write);
  }
  EXPECT_FALSE(reader->next().has_value());
  EXPECT_EQ(reader->size_hint(), 0u);
}

TEST(TraceBinary, ReaderIgnoresHeaderFlags) {
  std::string bytes = to_binary(kSmallText);
  BinaryTraceHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(header.flags, 0u);

  // Older writers stamped bit 0; files with any flags set still load and
  // yield the same records.
  header.flags = ~0u;
  std::memcpy(bytes.data(), &header, sizeof(header));
  auto reader = BinaryTraceReader::from_buffer(bytes.data(), bytes.size());
  TraceReader expect(text(kSmallText));
  for (int i = 0; i < 3; ++i) {
    auto want = expect.next();
    auto got = reader->next();
    ASSERT_TRUE(want && got) << "record " << i;
    EXPECT_EQ(got->block, want->block);
    EXPECT_EQ(got->block_count, want->block_count);
  }
  EXPECT_FALSE(reader->next().has_value());
}

/// One record with the given delta over a 1x10 geometry.
class OneRecordStream : public TraceStream {
 public:
  explicit OneRecordStream(double delta_ms) { record_.delta_ms = delta_ms; }
  const TraceGeometry& geometry() const override { return geo_; }
  std::optional<TraceRecord> next() override {
    if (done_) return std::nullopt;
    done_ = true;
    return record_;
  }

 private:
  TraceGeometry geo_{1, 10};
  TraceRecord record_;
  bool done_ = false;
};

TEST(TraceBinary, WriterRejectsNonFiniteOrNegativeDeltas) {
  for (const double delta : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0}) {
    OneRecordStream stream(delta);
    std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
    EXPECT_THROW(BinaryTraceWriter::write(stream, out), std::runtime_error)
        << delta;
  }
}

TEST(TraceBinary, WriterRejectsOutOfBoundsRecords) {
  TraceReader reader(text("disks 1\n"
                          "blocks_per_disk 10\n"
                          "0 8 5 W\n"));  // blocks 8..12 overflow the disk
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(BinaryTraceWriter::write(reader, out), std::runtime_error);
}

TEST(TraceBinary, BadMagicRejected) {
  std::string bytes = to_binary(kSmallText);
  bytes[0] = 'X';
  EXPECT_THROW(BinaryTraceReader::from_buffer(bytes.data(), bytes.size()),
               std::runtime_error);
}

TEST(TraceBinary, UnsupportedVersionRejected) {
  std::string bytes = to_binary(kSmallText);
  BinaryTraceHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = 99;
  std::memcpy(bytes.data(), &header, sizeof(header));
  EXPECT_THROW(BinaryTraceReader::from_buffer(bytes.data(), bytes.size()),
               std::runtime_error);
}

TEST(TraceBinary, TruncationRejected) {
  const std::string bytes = to_binary(kSmallText);
  // Shorter than the header, and shorter than header + declared records.
  EXPECT_THROW(BinaryTraceReader::from_buffer(bytes.data(), 16),
               std::runtime_error);
  EXPECT_THROW(
      BinaryTraceReader::from_buffer(bytes.data(), bytes.size() - 1),
      std::runtime_error);
}

TEST(TraceBinary, EmptyTraceRoundTrips) {
  const std::string bytes = to_binary("disks 3\nblocks_per_disk 50\n");
  auto reader = BinaryTraceReader::from_buffer(bytes.data(), bytes.size());
  EXPECT_EQ(reader->geometry().data_disks, 3);
  EXPECT_EQ(reader->record_count(), 0u);
  EXPECT_FALSE(reader->next().has_value());
}

TEST(TraceBinary, FileRoundTripAndSniffing) {
  const std::string dir = ::testing::TempDir();
  const std::string binary_path = dir + "trace_binary_test.rstb";
  const std::string text_path = dir + "trace_binary_test.txt";

  {
    TraceReader reader(text(kSmallText));
    EXPECT_EQ(BinaryTraceWriter::write_file(reader, binary_path), 3u);
    std::ofstream out(text_path);
    out << kSmallText;
  }

  // open_trace() sniffs the magic and picks the right reader; both files
  // must replay to the same records.
  auto sniffed_binary = open_trace(binary_path);
  auto sniffed_text = open_trace(text_path);
  EXPECT_NE(dynamic_cast<BinaryTraceReader*>(sniffed_binary.get()), nullptr);
  EXPECT_NE(dynamic_cast<TraceReader*>(sniffed_text.get()), nullptr);
  for (int i = 0; i < 3; ++i) {
    auto a = sniffed_binary->next();
    auto b = sniffed_text->next();
    ASSERT_TRUE(a && b) << "record " << i;
    EXPECT_EQ(a->delta_ms, b->delta_ms);
    EXPECT_EQ(a->block, b->block);
    EXPECT_EQ(a->block_count, b->block_count);
    EXPECT_EQ(a->is_write, b->is_write);
  }
  EXPECT_FALSE(sniffed_binary->next().has_value());
  EXPECT_FALSE(sniffed_text->next().has_value());

  auto direct = BinaryTraceReader::open(binary_path);
  EXPECT_EQ(direct->record_count(), 3u);

  std::remove(binary_path.c_str());
  std::remove(text_path.c_str());
}

TEST(TraceBinary, SyntheticWorkloadRoundTripsThroughBinary) {
  WorkloadOptions wo;
  wo.scale = 0.002;
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  std::vector<TraceRecord> expected;
  {
    auto stream = make_workload("trace1", wo);
    auto copy = make_workload("trace1", wo);  // same seed -> same records
    while (auto r = copy->next()) expected.push_back(*r);
    EXPECT_EQ(BinaryTraceWriter::write(*stream, buffer), expected.size());
  }
  ASSERT_FALSE(expected.empty());

  const std::string bytes = buffer.str();
  auto reader = BinaryTraceReader::from_buffer(bytes.data(), bytes.size());
  EXPECT_EQ(reader->record_count(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    auto got = reader->next();
    ASSERT_TRUE(got) << "record " << i;
    EXPECT_EQ(got->delta_ms, expected[i].delta_ms);
    EXPECT_EQ(got->block, expected[i].block);
    EXPECT_EQ(got->block_count, expected[i].block_count);
    EXPECT_EQ(got->is_write, expected[i].is_write);
  }
  EXPECT_FALSE(reader->next().has_value());
}

}  // namespace
}  // namespace raidsim
