#include "trace/chunked.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/cache.h"
#include "common/log.h"
#include "common/str.h"

namespace stemroot {

// Chunk payloads and index records are raw little-endian object bytes.
static_assert(std::endian::native == std::endian::little,
              "SRTC chunked trace format assumes a little-endian host; "
              "port trace/chunked.cc with explicit byte swapping before "
              "building for big-endian targets");

namespace {

constexpr char kMagic[4] = {'S', 'R', 'T', 'C'};
constexpr char kTrailerMagic[4] = {'S', 'R', 'T', 'F'};
constexpr uint32_t kVersion = 2;

/// Fixed trailer at the very end of the file: u64 footer_offset,
/// u64 num_chunks, u64 total_invocations, u32 version, magic.
constexpr uint64_t kTrailerBytes = 3 * sizeof(uint64_t) + sizeof(uint32_t) +
                                   sizeof(kTrailerMagic);
constexpr uint64_t kFooterRecordBytes = 3 * sizeof(uint64_t);

/// Minimum header bytes of one kernel type: empty name (u32 length),
/// num_basic_blocks, and an empty weight table (u32 count).
constexpr uint64_t kTypeMinBytes = 3 * sizeof(uint32_t);

/// One invocation's footprint in a columnar chunk payload: 8 u32 columns
/// (ids + launch geometry), 2 u64 columns, 10 f32 behaviour columns, and
/// the f64 duration column.
constexpr uint64_t kColumnarBytesPerInvocation =
    8 * sizeof(uint32_t) + 2 * sizeof(uint64_t) + 10 * sizeof(float) +
    sizeof(double);

template <typename T>
void AppendPod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendString(std::string& out, std::string_view s) {
  AppendPod(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked cursor over in-memory file bytes (a chunk payload, the
/// header, the footer or the trailer). `bytes` and `what` (the context of
/// error messages) must outlive it; the cursor itself never allocates on
/// the decode path. Every length or count is checked against the bytes
/// remaining before any allocation is sized from it.
class PayloadCursor {
 public:
  PayloadCursor(std::string_view bytes, std::string_view what)
      : bytes_(bytes), what_(what) {}

  uint64_t Remaining() const { return bytes_.size() - pos_; }

  [[noreturn]] void Fail(const std::string& why) const {
    throw std::runtime_error(std::string(what_) + ": " + why);
  }

  std::string_view Bytes(uint64_t n) {
    if (Remaining() < n) Fail("truncated (corrupt or short input)");
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  template <typename T>
  T Read() {
    T value;
    std::memcpy(&value, Bytes(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// A u32-length-prefixed string of at most `max_len` bytes.
  std::string ReadString(uint64_t max_len, const char* field) {
    const uint32_t len = Read<uint32_t>();
    if (len > max_len || len > Remaining())
      Fail(std::string("corrupt ") + field +
           " length (exceeds the bytes remaining)");
    return std::string(Bytes(len));
  }

  /// Read one column of `count` elements, invoking set(i, value).
  template <typename T, typename Setter>
  void ReadColumn(uint64_t count, Setter set) {
    if (Remaining() / sizeof(T) < count)
      Fail("truncated (corrupt or short input)");
    for (uint64_t i = 0; i < count; ++i) {
      T value;
      std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
      set(i, value);
    }
  }

 private:
  std::string_view bytes_;
  uint64_t pos_ = 0;
  std::string_view what_;
};

/// Serialize the header section (magic, version, chunk capacity, key,
/// workload name, kernel-type table) into a byte string.
std::string EncodeHeader(const KernelTrace& header, uint64_t chunk_invocations,
                         std::string_view key) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendPod(out, kVersion);
  AppendPod(out, chunk_invocations);
  AppendString(out, key);
  AppendString(out, header.WorkloadName());
  AppendPod(out, static_cast<uint32_t>(header.NumKernelTypes()));
  for (const KernelType& type : header.Types()) {
    AppendString(out, type.name);
    AppendPod(out, type.num_basic_blocks);
    AppendPod(out, static_cast<uint32_t>(type.block_weights.size()));
    for (float w : type.block_weights) AppendPod(out, w);
  }
  return out;
}

/// `len` bytes at `offset`; the caller has bounded both by the file size.
std::string ReadAt(std::ifstream& in, uint64_t offset, uint64_t len,
                   const std::string& path) {
  std::string bytes(len, '\0');
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(bytes.data(), static_cast<std::streamsize>(len));
  if (!in)
    throw std::runtime_error("ChunkedTraceReader: short read: " + path);
  return bytes;
}

/// A fresh temp-file name next to `path`: unique per process and per
/// writer, so concurrent writers of one entry never share a temp file.
std::string TempPathFor(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

}  // namespace

uint32_t SrtcFormatVersion() { return kVersion; }

uint64_t ChunkWireBytesPerInvocation() { return kColumnarBytesPerInvocation; }

std::string EncodeChunk(std::span<const KernelInvocation> invocations) {
  const uint64_t count = invocations.size();
  std::string out;
  out.reserve(sizeof(uint64_t) + count * kColumnarBytesPerInvocation);
  AppendPod(out, count);
  for (const auto& inv : invocations) AppendPod(out, inv.kernel_id);
  for (const auto& inv : invocations) AppendPod(out, inv.context_id);
  for (const auto& inv : invocations) AppendPod(out, inv.launch.grid_x);
  for (const auto& inv : invocations) AppendPod(out, inv.launch.grid_y);
  for (const auto& inv : invocations) AppendPod(out, inv.launch.grid_z);
  for (const auto& inv : invocations) AppendPod(out, inv.launch.block_x);
  for (const auto& inv : invocations) AppendPod(out, inv.launch.block_y);
  for (const auto& inv : invocations) AppendPod(out, inv.launch.block_z);
  for (const auto& inv : invocations) AppendPod(out, inv.behavior.instructions);
  for (const auto& inv : invocations)
    AppendPod(out, inv.behavior.footprint_bytes);
  for (const auto& inv : invocations) AppendPod(out, inv.behavior.mem_fraction);
  for (const auto& inv : invocations)
    AppendPod(out, inv.behavior.shared_fraction);
  for (const auto& inv : invocations) AppendPod(out, inv.behavior.locality);
  for (const auto& inv : invocations) AppendPod(out, inv.behavior.coalescing);
  for (const auto& inv : invocations)
    AppendPod(out, inv.behavior.branch_divergence);
  for (const auto& inv : invocations)
    AppendPod(out, inv.behavior.fp16_fraction);
  for (const auto& inv : invocations)
    AppendPod(out, inv.behavior.fp32_fraction);
  for (const auto& inv : invocations) AppendPod(out, inv.behavior.ilp);
  for (const auto& inv : invocations) AppendPod(out, inv.behavior.input_scale);
  for (const auto& inv : invocations)
    AppendPod(out, inv.behavior.store_fraction);
  for (const auto& inv : invocations) AppendPod(out, inv.duration_us);
  return out;
}

std::vector<KernelInvocation> DecodeChunk(std::string_view payload,
                                          uint64_t first_seq) {
  PayloadCursor cur(payload, "DecodeChunk: chunk payload");
  const uint64_t count = cur.Read<uint64_t>();
  // Bound the count against the payload size BEFORE sizing the vector from
  // it -- a corrupt count must throw, never attempt a huge allocation.
  if (count > cur.Remaining() / kColumnarBytesPerInvocation ||
      count * kColumnarBytesPerInvocation != cur.Remaining())
    throw std::runtime_error(
        "DecodeChunk: invocation count prefix exceeds bytes remaining in "
        "chunk payload (corrupt or truncated input)");
  std::vector<KernelInvocation> out(count);
  cur.ReadColumn<uint32_t>(count,
                           [&](uint64_t i, uint32_t v) { out[i].kernel_id = v; });
  cur.ReadColumn<uint32_t>(
      count, [&](uint64_t i, uint32_t v) { out[i].context_id = v; });
  cur.ReadColumn<uint32_t>(
      count, [&](uint64_t i, uint32_t v) { out[i].launch.grid_x = v; });
  cur.ReadColumn<uint32_t>(
      count, [&](uint64_t i, uint32_t v) { out[i].launch.grid_y = v; });
  cur.ReadColumn<uint32_t>(
      count, [&](uint64_t i, uint32_t v) { out[i].launch.grid_z = v; });
  cur.ReadColumn<uint32_t>(
      count, [&](uint64_t i, uint32_t v) { out[i].launch.block_x = v; });
  cur.ReadColumn<uint32_t>(
      count, [&](uint64_t i, uint32_t v) { out[i].launch.block_y = v; });
  cur.ReadColumn<uint32_t>(
      count, [&](uint64_t i, uint32_t v) { out[i].launch.block_z = v; });
  cur.ReadColumn<uint64_t>(count, [&](uint64_t i, uint64_t v) {
    out[i].behavior.instructions = v;
  });
  cur.ReadColumn<uint64_t>(count, [&](uint64_t i, uint64_t v) {
    out[i].behavior.footprint_bytes = v;
  });
  cur.ReadColumn<float>(
      count, [&](uint64_t i, float v) { out[i].behavior.mem_fraction = v; });
  cur.ReadColumn<float>(
      count, [&](uint64_t i, float v) { out[i].behavior.shared_fraction = v; });
  cur.ReadColumn<float>(
      count, [&](uint64_t i, float v) { out[i].behavior.locality = v; });
  cur.ReadColumn<float>(
      count, [&](uint64_t i, float v) { out[i].behavior.coalescing = v; });
  cur.ReadColumn<float>(count, [&](uint64_t i, float v) {
    out[i].behavior.branch_divergence = v;
  });
  cur.ReadColumn<float>(
      count, [&](uint64_t i, float v) { out[i].behavior.fp16_fraction = v; });
  cur.ReadColumn<float>(
      count, [&](uint64_t i, float v) { out[i].behavior.fp32_fraction = v; });
  cur.ReadColumn<float>(count,
                        [&](uint64_t i, float v) { out[i].behavior.ilp = v; });
  cur.ReadColumn<float>(
      count, [&](uint64_t i, float v) { out[i].behavior.input_scale = v; });
  cur.ReadColumn<float>(
      count, [&](uint64_t i, float v) { out[i].behavior.store_fraction = v; });
  cur.ReadColumn<double>(
      count, [&](uint64_t i, double v) { out[i].duration_us = v; });
  if (cur.Remaining() != 0)
    throw std::runtime_error("DecodeChunk: trailing bytes after chunk payload");
  for (uint64_t i = 0; i < count; ++i) out[i].seq = first_seq + i;
  return out;
}

// ---------------------------------------------------------------------------
// ChunkedTraceWriter
// ---------------------------------------------------------------------------

struct ChunkedTraceWriter::Impl {
  std::ofstream out;
};

ChunkedTraceWriter::ChunkedTraceWriter(const std::string& path,
                                       const KernelTrace& header,
                                       uint64_t chunk_invocations,
                                       std::string_view key)
    : path_(path),
      tmp_path_(TempPathFor(path)),
      chunk_invocations_(chunk_invocations),
      impl_(std::make_unique<Impl>()) {
  if (chunk_invocations_ == 0)
    throw std::invalid_argument(
        "ChunkedTraceWriter: chunk_invocations must be > 0");
  if (key.size() > kMaxTraceKeyBytes)
    throw std::invalid_argument("ChunkedTraceWriter: key too long");
  impl_->out.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!impl_->out)
    throw std::runtime_error("ChunkedTraceWriter: cannot open " + tmp_path_);
  const std::string head = EncodeHeader(header, chunk_invocations_, key);
  impl_->out.write(head.data(), static_cast<std::streamsize>(head.size()));
  if (!impl_->out)
    throw std::runtime_error("ChunkedTraceWriter: header write failed: " +
                             tmp_path_);
  buffer_.reserve(chunk_invocations_);
}

ChunkedTraceWriter::~ChunkedTraceWriter() {
  if (finished_) return;
  // Abandoned (an exception, or no Finish()): publish nothing.
  impl_->out.close();
  std::error_code ec;
  std::filesystem::remove(tmp_path_, ec);
}

void ChunkedTraceWriter::Append(const KernelInvocation& inv) {
  buffer_.push_back(inv);
  ++appended_;
  if (buffer_.size() >= chunk_invocations_) FlushChunk();
}

void ChunkedTraceWriter::Append(std::span<const KernelInvocation> invocations) {
  for (const KernelInvocation& inv : invocations) Append(inv);
}

void ChunkedTraceWriter::FlushChunk() {
  if (buffer_.empty()) return;
  const std::string payload = EncodeChunk(buffer_);
  ChunkInfo info;
  info.offset = static_cast<uint64_t>(impl_->out.tellp());
  info.count = buffer_.size();
  info.digest = Fnv1a64(payload);
  impl_->out.write(payload.data(),
                   static_cast<std::streamsize>(payload.size()));
  if (!impl_->out)
    throw std::runtime_error("ChunkedTraceWriter: chunk write failed: " +
                             tmp_path_);
  chunks_.push_back(info);
  buffer_.clear();
}

void ChunkedTraceWriter::Finish() {
  if (finished_) return;
  FlushChunk();
  const uint64_t footer_offset = static_cast<uint64_t>(impl_->out.tellp());
  std::string tail;
  tail.reserve(chunks_.size() * kFooterRecordBytes + kTrailerBytes);
  for (const ChunkInfo& c : chunks_) {
    AppendPod(tail, c.offset);
    AppendPod(tail, c.count);
    AppendPod(tail, c.digest);
  }
  AppendPod(tail, footer_offset);
  AppendPod(tail, static_cast<uint64_t>(chunks_.size()));
  AppendPod(tail, appended_);
  AppendPod(tail, kVersion);
  tail.append(kTrailerMagic, sizeof(kTrailerMagic));
  impl_->out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  impl_->out.close();
  if (!impl_->out)
    throw std::runtime_error("ChunkedTraceWriter: footer write failed: " +
                             tmp_path_);
  // rename() is atomic within one filesystem, hence the same-directory
  // temp file: a reader of path_ sees the old file or the new one.
  std::error_code ec;
  std::filesystem::rename(tmp_path_, path_, ec);
  if (ec)
    throw std::runtime_error("ChunkedTraceWriter: rename into " + path_ +
                             " failed: " + ec.message());
  finished_ = true;
}

// ---------------------------------------------------------------------------
// ChunkedTraceReader
// ---------------------------------------------------------------------------

struct ChunkedTraceReader::Impl {
  // Opened once; ReadChunk seeks within it. mutable because chunk reads are
  // logically const (the file is immutable once published).
  mutable std::ifstream in;
};

ChunkedTraceReader::ChunkedTraceReader(const std::string& path)
    : path_(path), impl_(std::make_unique<Impl>()) {
  std::ifstream& in = impl_->in;
  in.open(path, std::ios::binary);
  if (!in) throw std::runtime_error("ChunkedTraceReader: cannot open " + path);
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  if (file_size < kTrailerBytes)
    throw std::runtime_error("ChunkedTraceReader: file too small: " + path);

  // Trailer first: it locates the footer without scanning any chunks.
  const std::string trailer_bytes =
      ReadAt(in, file_size - kTrailerBytes, kTrailerBytes, path);
  const std::string where = "ChunkedTraceReader: " + path;
  PayloadCursor trailer(trailer_bytes, where);
  const uint64_t footer_offset = trailer.Read<uint64_t>();
  const uint64_t num_chunks = trailer.Read<uint64_t>();
  total_invocations_ = trailer.Read<uint64_t>();
  const uint32_t version = trailer.Read<uint32_t>();
  if (trailer.Bytes(sizeof(kTrailerMagic)) !=
      std::string_view(kTrailerMagic, sizeof(kTrailerMagic)))
    trailer.Fail("bad trailer magic (unfinished or not an SRTC file)");
  if (version != kVersion) trailer.Fail("unsupported version");
  const uint64_t footer_end = file_size - kTrailerBytes;
  if (footer_offset > footer_end ||
      num_chunks > (footer_end - footer_offset) / kFooterRecordBytes ||
      num_chunks * kFooterRecordBytes != footer_end - footer_offset)
    trailer.Fail("inconsistent footer");

  // Footer index: its size was just checked against the file.
  const std::string footer_bytes =
      ReadAt(in, footer_offset, footer_end - footer_offset, path);
  PayloadCursor footer(footer_bytes, where);
  chunks_.resize(num_chunks);
  for (ChunkInfo& c : chunks_) {
    c.offset = footer.Read<uint64_t>();
    c.count = footer.Read<uint64_t>();
    c.digest = footer.Read<uint64_t>();
  }

  // Header: every byte before the first chunk (or the footer).
  const uint64_t header_end =
      chunks_.empty() ? footer_offset : chunks_[0].offset;
  if (header_end > footer_offset) footer.Fail("chunk 0 index out of bounds");
  const std::string header_bytes = ReadAt(in, 0, header_end, path);
  PayloadCursor head(header_bytes, where);
  if (head.Bytes(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic)))
    head.Fail("bad header magic");
  if (head.Read<uint32_t>() != kVersion) head.Fail("unsupported version");
  chunk_invocations_ = head.Read<uint64_t>();
  if (chunk_invocations_ == 0) head.Fail("corrupt chunk capacity");
  key_ = head.ReadString(kMaxTraceKeyBytes, "key");
  header_.SetWorkloadName(head.ReadString(head.Remaining(), "workload name"));
  const uint32_t num_types = head.Read<uint32_t>();
  if (num_types > head.Remaining() / kTypeMinBytes)
    head.Fail("corrupt kernel-type count");
  for (uint32_t k = 0; k < num_types; ++k) {
    KernelType type;
    type.name = head.ReadString(head.Remaining(), "kernel-type name");
    type.num_basic_blocks = head.Read<uint32_t>();
    const uint32_t weights = head.Read<uint32_t>();
    if (weights > head.Remaining() / sizeof(float))
      head.Fail("corrupt block-weight count");
    type.block_weights.resize(weights);
    head.ReadColumn<float>(
        weights, [&](uint64_t i, float w) { type.block_weights[i] = w; });
    header_.AddKernelType(std::move(type));
  }
  if (head.Remaining() != 0) head.Fail("trailing bytes after the header");

  // The chunks tile [header_end, footer_offset) back to back; every chunk
  // but the last is full.
  uint64_t next = header_end;
  uint64_t running_total = 0;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const ChunkInfo& c = chunks_[i];
    const uint64_t room = footer_offset - next;
    if (c.offset != next || room < sizeof(uint64_t) ||
        c.count > (room - sizeof(uint64_t)) / kColumnarBytesPerInvocation ||
        c.count > chunk_invocations_ ||
        (c.count < chunk_invocations_ && i + 1 != chunks_.size()))
      footer.Fail("chunk " + std::to_string(i) + " index out of bounds");
    next += sizeof(uint64_t) + c.count * kColumnarBytesPerInvocation;
    running_total += c.count;
  }
  if (next != footer_offset)
    footer.Fail("chunks do not end at the footer");
  if (running_total != total_invocations_)
    footer.Fail("chunk counts disagree with trailer total");
}

ChunkedTraceReader::~ChunkedTraceReader() = default;

std::string ChunkedTraceReader::ReadChunkPayload(size_t i) const {
  const ChunkInfo& c = chunks_.at(i);
  std::string payload =
      ReadAt(impl_->in, c.offset,
             sizeof(uint64_t) + c.count * kColumnarBytesPerInvocation, path_);
  if (Fnv1a64(payload) != c.digest)
    throw std::runtime_error("ChunkedTraceReader: digest mismatch on chunk " +
                             std::to_string(i) + " (corrupt data): " + path_);
  return payload;
}

std::vector<KernelInvocation> ChunkedTraceReader::ReadChunk(size_t i) const {
  const std::string payload = ReadChunkPayload(i);
  return DecodeChunk(payload, static_cast<uint64_t>(i) * chunk_invocations_);
}

bool ChunkedTraceReader::VerifyChunk(size_t i) const {
  try {
    (void)ReadChunkPayload(i);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// ---------------------------------------------------------------------------
// Chunk sources
// ---------------------------------------------------------------------------

uint64_t ChunkSource::ResidentBudgetBytes() const {
  return Header().ApproxBytes() +
         2 * ChunkCapacity() * sizeof(KernelInvocation);
}

InMemoryChunkSource::InMemoryChunkSource(const KernelTrace& trace,
                                         uint64_t chunk_invocations)
    : trace_(trace),
      header_(trace.HeaderClone()),
      chunk_invocations_(chunk_invocations) {
  if (chunk_invocations_ == 0)
    throw std::invalid_argument(
        "InMemoryChunkSource: chunk_invocations must be > 0");
}

uint64_t InMemoryChunkSource::NumInvocations() const {
  return trace_.NumInvocations();
}

size_t InMemoryChunkSource::NumChunks() const {
  return static_cast<size_t>(
      (trace_.NumInvocations() + chunk_invocations_ - 1) / chunk_invocations_);
}

std::vector<KernelInvocation> InMemoryChunkSource::Chunk(size_t i) const {
  if (i >= NumChunks())
    throw std::out_of_range("InMemoryChunkSource: chunk index out of range");
  const uint64_t begin = static_cast<uint64_t>(i) * chunk_invocations_;
  const uint64_t end =
      std::min<uint64_t>(begin + chunk_invocations_, trace_.NumInvocations());
  std::span<const KernelInvocation> all = trace_.Invocations();
  return {all.begin() + static_cast<ptrdiff_t>(begin),
          all.begin() + static_cast<ptrdiff_t>(end)};
}

FileChunkSource::FileChunkSource(const std::string& path) : reader_(path) {}

std::vector<KernelInvocation> FileChunkSource::Chunk(size_t i) const {
  return reader_.ReadChunk(i);
}

ReplicatedChunkSource::ReplicatedChunkSource(const KernelTrace& base,
                                             uint64_t total_invocations,
                                             uint64_t chunk_invocations)
    : base_(base),
      header_(base.HeaderClone()),
      total_invocations_(total_invocations),
      chunk_invocations_(chunk_invocations) {
  if (base_.Empty())
    throw std::invalid_argument("ReplicatedChunkSource: base trace is empty");
  if (chunk_invocations_ == 0)
    throw std::invalid_argument(
        "ReplicatedChunkSource: chunk_invocations must be > 0");
}

size_t ReplicatedChunkSource::NumChunks() const {
  return static_cast<size_t>(
      (total_invocations_ + chunk_invocations_ - 1) / chunk_invocations_);
}

std::vector<KernelInvocation> ReplicatedChunkSource::Chunk(size_t i) const {
  if (i >= NumChunks())
    throw std::out_of_range("ReplicatedChunkSource: chunk index out of range");
  const uint64_t begin = static_cast<uint64_t>(i) * chunk_invocations_;
  const uint64_t end =
      std::min<uint64_t>(begin + chunk_invocations_, total_invocations_);
  const uint64_t base_n = base_.NumInvocations();
  std::vector<KernelInvocation> out;
  out.reserve(end - begin);
  for (uint64_t j = begin; j < end; ++j) {
    KernelInvocation inv = base_.At(j % base_n);
    inv.seq = j;
    out.push_back(inv);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Whole-trace helpers
// ---------------------------------------------------------------------------

size_t SpillTraceChunked(const KernelTrace& trace, const std::string& path,
                         uint64_t chunk_invocations, std::string_view key) {
  ChunkedTraceWriter writer(path, trace, chunk_invocations, key);
  writer.Append(trace.Invocations());
  writer.Finish();
  const uint64_t cap = writer.ChunkCapacity();
  return static_cast<size_t>((trace.NumInvocations() + cap - 1) / cap);
}

TraceEntryInfo EnsureTraceEntry(const std::string& path, std::string_view key,
                                const KernelTrace& trace,
                                uint64_t chunk_invocations) {
  TraceEntryInfo info;
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    try {
      const ChunkedTraceReader reader(path);
      bool good = reader.Key() == key &&
                  reader.ChunkCapacity() == chunk_invocations &&
                  reader.NumInvocations() == trace.NumInvocations();
      for (size_t i = 0; good && i < reader.NumChunks(); ++i)
        good = reader.VerifyChunk(i);
      if (good) {
        info.chunks = reader.NumChunks();
        info.bytes = std::filesystem::file_size(path, ec);
        info.reused = true;
        return info;
      }
    } catch (const std::exception& e) {
      Warn("trace entry: unreadable, rebuilding: %s", e.what());
    }
    info.rebuilt = true;
  }
  info.chunks = SpillTraceChunked(trace, path, chunk_invocations, key);
  info.bytes = std::filesystem::file_size(path, ec);
  return info;
}

KernelTrace AssembleTrace(const ChunkSource& source) {
  KernelTrace trace = source.Header().HeaderClone();
  trace.Reserve(source.NumInvocations());
  for (size_t i = 0; i < source.NumChunks(); ++i)
    for (const KernelInvocation& inv : source.Chunk(i))
      trace.Add(inv);  // Add reassigns seq == global timeline position
  return trace;
}

}  // namespace stemroot
