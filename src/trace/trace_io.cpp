#include "trace/trace_io.hpp"

#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define RAIDSIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace raidsim {

void TraceWriter::write(TraceStream& stream, std::ostream& os) {
  const auto& geo = stream.geometry();
  os << "# raidsim trace\n";
  os << "disks " << geo.data_disks << '\n';
  os << "blocks_per_disk " << geo.blocks_per_disk << '\n';
  while (auto rec = stream.next()) {
    // Round to the microsecond grid: truncation would walk deltas like
    // 1.023 ms (stored as 1.0229999...) down a microsecond per rewrite.
    os << std::llround(rec->delta_ms * 1000.0) << ' '
       << rec->block << ' ' << rec->block_count << ' '
       << (rec->is_write ? 'W' : 'R') << '\n';
  }
}

TraceReader::TraceReader(std::unique_ptr<std::istream> input)
    : input_(std::move(input)) {
  if (!input_ || !*input_)
    throw std::runtime_error("TraceReader: cannot read input");
  parse_header();
}

std::unique_ptr<TraceReader> TraceReader::open(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path);
  if (!file->is_open())
    throw std::runtime_error("TraceReader: cannot open '" + path + "'");
  return std::make_unique<TraceReader>(std::move(file));
}

namespace {

/// Strip a trailing carriage return (Windows line endings) in place.
void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

[[noreturn]] void fail_at(std::uint64_t line_number, const std::string& what) {
  throw std::runtime_error("TraceReader: " + what + " at line " +
                           std::to_string(line_number));
}

}  // namespace

void TraceReader::parse_header() {
  bool have_disks = false;
  bool have_blocks = false;
  std::string line;
  while (std::getline(*input_, line)) {
    ++line_number_;
    strip_cr(line);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;
    std::string extra;
    if (keyword == "disks") {
      if (!(ls >> geometry_.data_disks) || geometry_.data_disks < 1 ||
          (ls >> extra))
        fail_at(line_number_, "bad 'disks' directive");
      have_disks = true;
    } else if (keyword == "blocks_per_disk") {
      if (!(ls >> geometry_.blocks_per_disk) ||
          geometry_.blocks_per_disk < 1 || (ls >> extra))
        fail_at(line_number_, "bad 'blocks_per_disk' directive");
      have_blocks = true;
    } else if (!keyword.empty() &&
               (std::isdigit(static_cast<unsigned char>(keyword[0])) ||
                keyword[0] == '-' || keyword[0] == '+')) {
      // Looks like a data record; both directives must come first (the
      // geometry is needed to validate every record's bounds).
      fail_at(line_number_, "record before 'disks'/'blocks_per_disk' header");
    } else {
      fail_at(line_number_, "unknown directive '" + keyword + "'");
    }
    if (have_disks && have_blocks) return;
  }
  throw std::runtime_error("TraceReader: missing header directives");
}

std::optional<TraceRecord> TraceReader::next() {
  std::string line;
  while (true) {
    if (!std::getline(*input_, line)) return std::nullopt;
    ++line_number_;
    strip_cr(line);
    if (line.empty() || line[0] == '#') continue;

    std::istringstream ls(line);
    std::int64_t delta_us = 0;
    TraceRecord rec;
    char type = 0;
    // A failed extraction covers non-numeric fields, missing fields, and
    // values that overflow int64 (the stream sets failbit on overflow).
    if (!(ls >> delta_us >> rec.block >> rec.block_count >> type))
      fail_at(line_number_, "malformed record");
    std::string extra;
    if (ls >> extra)
      fail_at(line_number_, "trailing garbage '" + extra + "'");
    if (type != 'R' && type != 'W')
      fail_at(line_number_, std::string("bad access type '") + type + "'");
    if (delta_us < 0) fail_at(line_number_, "negative inter-arrival delta");
    if (rec.block < 0) fail_at(line_number_, "negative block address");
    if (rec.block_count < 1) fail_at(line_number_, "non-positive block count");
    // Overflow-safe bounds check: block + block_count may wrap int64.
    if (rec.block_count > geometry_.total_blocks() ||
        rec.block > geometry_.total_blocks() - rec.block_count)
      fail_at(line_number_, "extent beyond the traced database");
    rec.delta_ms = static_cast<double>(delta_us) / 1000.0;
    rec.is_write = (type == 'W');
    return rec;
  }
}

// ------------------------------------------------------- binary format

namespace {

void validate_against(const TraceGeometry& geo, const TraceRecord& rec,
                      std::uint64_t index) {
  const auto fail = [index](const std::string& what) {
    throw std::runtime_error("BinaryTraceWriter: " + what + " at record " +
                             std::to_string(index));
  };
  if (!std::isfinite(rec.delta_ms) || rec.delta_ms < 0.0)
    fail("negative or non-finite inter-arrival delta");
  if (rec.block < 0) fail("negative block address");
  if (rec.block_count < 1) fail("non-positive block count");
  // Overflow-safe bounds check: block + block_count may wrap int64.
  if (rec.block_count > geo.total_blocks() ||
      rec.block > geo.total_blocks() - rec.block_count)
    fail("extent beyond the traced database");
}

}  // namespace

std::uint64_t BinaryTraceWriter::write(TraceStream& stream, std::ostream& os) {
  const TraceGeometry& geo = stream.geometry();
  BinaryTraceHeader header;
  header.data_disks = geo.data_disks;
  header.blocks_per_disk = geo.blocks_per_disk;
  const auto header_pos = os.tellp();
  os.write(reinterpret_cast<const char*>(&header), sizeof(header));

  std::uint64_t count = 0;
  while (auto rec = stream.next()) {
    validate_against(geo, *rec, count);
    BinaryTraceRecord out;
    out.delta_ms = rec->delta_ms;
    out.block = rec->block;
    out.block_count = rec->block_count;
    out.is_write = rec->is_write ? 1 : 0;
    os.write(reinterpret_cast<const char*>(&out), sizeof(out));
    ++count;
  }

  header.record_count = count;
  os.seekp(header_pos);
  os.write(reinterpret_cast<const char*>(&header), sizeof(header));
  os.seekp(0, std::ios::end);
  if (!os) throw std::runtime_error("BinaryTraceWriter: write failed");
  return count;
}

std::uint64_t BinaryTraceWriter::write_file(TraceStream& stream,
                                            const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw std::runtime_error("BinaryTraceWriter: cannot open '" + path + "'");
  return write(stream, out);
}

void BinaryTraceReader::parse(const unsigned char* data, std::size_t bytes) {
  if (bytes < sizeof(BinaryTraceHeader))
    throw std::runtime_error("BinaryTraceReader: file shorter than header");
  BinaryTraceHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, BinaryTraceHeader::kMagic, 4) != 0)
    throw std::runtime_error("BinaryTraceReader: bad magic (not a binary "
                             "trace; text traces go through TraceReader)");
  if (header.version != BinaryTraceHeader::kVersion)
    throw std::runtime_error("BinaryTraceReader: unsupported version " +
                             std::to_string(header.version));
  if (header.data_disks < 1 || header.blocks_per_disk < 1)
    throw std::runtime_error("BinaryTraceReader: invalid geometry");
  const std::uint64_t payload = bytes - sizeof(BinaryTraceHeader);
  if (header.record_count > payload / sizeof(BinaryTraceRecord))
    throw std::runtime_error("BinaryTraceReader: truncated record section");
  geometry_.data_disks = header.data_disks;
  geometry_.blocks_per_disk = header.blocks_per_disk;
  count_ = header.record_count;
  records_ = data + sizeof(BinaryTraceHeader);
}

std::unique_ptr<BinaryTraceReader> BinaryTraceReader::open(
    const std::string& path) {
  std::unique_ptr<BinaryTraceReader> reader(new BinaryTraceReader());
#ifdef RAIDSIM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    throw std::runtime_error("BinaryTraceReader: cannot open '" + path + "'");
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                        PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base != MAP_FAILED) {
      reader->mapped_ = base;
      reader->mapped_bytes_ = static_cast<std::size_t>(st.st_size);
      try {
        reader->parse(static_cast<const unsigned char*>(base),
                      reader->mapped_bytes_);
      } catch (...) {
        // ~BinaryTraceReader has not run for a throwing factory.
        ::munmap(base, reader->mapped_bytes_);
        reader->mapped_ = nullptr;
        throw;
      }
      return reader;
    }
  } else {
    ::close(fd);
  }
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("BinaryTraceReader: cannot open '" + path + "'");
  reader->owned_.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  reader->parse(reader->owned_.data(), reader->owned_.size());
  return reader;
}

std::unique_ptr<BinaryTraceReader> BinaryTraceReader::from_buffer(
    const void* data, std::size_t bytes) {
  std::unique_ptr<BinaryTraceReader> reader(new BinaryTraceReader());
  const auto* bytes_ptr = static_cast<const unsigned char*>(data);
  reader->owned_.assign(bytes_ptr, bytes_ptr + bytes);
  reader->parse(reader->owned_.data(), reader->owned_.size());
  return reader;
}

BinaryTraceReader::~BinaryTraceReader() {
#ifdef RAIDSIM_HAVE_MMAP
  if (mapped_) ::munmap(mapped_, mapped_bytes_);
#endif
}

std::optional<TraceRecord> BinaryTraceReader::next() {
  if (cursor_ >= count_) return std::nullopt;
  BinaryTraceRecord packed;
  std::memcpy(&packed, records_ + cursor_ * sizeof(BinaryTraceRecord),
              sizeof(packed));
  ++cursor_;
  TraceRecord rec;
  rec.delta_ms = packed.delta_ms;
  rec.block = packed.block;
  rec.block_count = packed.block_count;
  rec.is_write = packed.is_write != 0;
  return rec;
}

std::unique_ptr<TraceStream> open_trace(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe)
    throw std::runtime_error("open_trace: cannot open '" + path + "'");
  char magic[4] = {0, 0, 0, 0};
  probe.read(magic, 4);
  probe.close();
  if (std::memcmp(magic, BinaryTraceHeader::kMagic, 4) == 0)
    return BinaryTraceReader::open(path);
  return TraceReader::open(path);
}

}  // namespace raidsim
