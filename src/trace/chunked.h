/// \file
/// The one on-disk trace format ("SRTC") and the chunk-iterator
/// abstraction that lets the pipeline stream a billion-invocation workload
/// past the engine in bounded memory (DESIGN.md §11 and §16).
///
/// # The "SRTC" file format (version 2, explicitly little-endian)
///
///   [header]
///     magic "SRTC" | u32 version | u64 chunk_capacity |
///     key (u32 len + bytes) | workload name (u32 len + bytes) |
///     u32 num_types |
///     per type: name (u32 len + bytes) | u32 num_basic_blocks |
///               u32 num_weights | f32 weights[num_weights]
///   [chunk 0] .. [chunk N-1]     -- back-to-back chunk payloads
///   [footer]
///     per chunk: u64 offset | u64 count | u64 digest
///   [trailer]  (fixed 32 bytes at end of file)
///     u64 footer_offset | u64 num_chunks | u64 total_invocations |
///     u32 version | magic "SRTF"
///
/// `key` echoes the full content key of a trace entry (the trace-cache
/// key string, eval/trace_cache.h) so a file reached through a digest
/// collision or a rename is never served as the wrong trace; files the
/// CLI writes carry an empty key.
///
/// Each chunk payload is self-delimiting and columnar:
///
///     u64 count |
///     kernel_id u32[count] | context_id u32[count] |
///     grid_x,grid_y,grid_z,block_x,block_y,block_z u32[count] each |
///     instructions u64[count] | footprint_bytes u64[count] |
///     mem_fraction, shared_fraction, locality, coalescing,
///     branch_divergence, fp16_fraction, fp32_fraction, ilp,
///     input_scale, store_fraction f32[count] each |
///     duration_us f64[count]
///
/// and its footer `digest` is FNV-1a64 over exactly those payload bytes,
/// so every chunk is independently loadable and independently verifiable:
/// a reader seeks the footer, picks any chunk, reads `offset..offset+len`
/// and checks the digest -- no scan of preceding chunks, which also makes
/// the layout mmap-friendly (all addressing is absolute offsets into an
/// immutable file). The invocation `seq` field is implicit: chunk i spans
/// global indices [i * chunk_capacity, i * chunk_capacity + count).
///
/// Failure contract: any defect found while *opening* a file (bad
/// magic/version, a length or count prefix larger than the bytes left,
/// inconsistent footer, chunks not back to back) or while *reading* a
/// chunk (short read, digest mismatch) throws std::runtime_error. Every
/// prefix is checked before any allocation is sized from it. Writers
/// publish atomically: bytes go to a temp file in the same directory that
/// Finish() renames into place, so a reader never sees a partial file at
/// the final path. Callers that treat a file as a cache entry
/// (EnsureTraceEntry, eval::TraceCache) catch and rebuild -- corrupt
/// bytes on disk can only cost a recompute, never serve wrong data.
///
/// # ChunkSource
///
/// Streaming consumers (core::StreamingTraceClusterer, eval::StreamTrace)
/// are written against the ChunkSource interface, not a concrete file:
///
///   - InMemoryChunkSource slices an existing KernelTrace (no copy of the
///     timeline until a chunk is materialized);
///   - FileChunkSource reads an "SRTC" file chunk by chunk;
///   - ReplicatedChunkSource tiles a small profiled base trace out to an
///     arbitrary logical population (the 10^8..10^9-invocation synthetic
///     suites of the perf_scalability bench) without ever materializing
///     it.
///
/// All three yield byte-identical chunk contents for the same underlying
/// timeline, which is what pins the chunked-vs-in-memory equivalence
/// tests.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"

namespace stemroot {

/// Version tag of the "SRTC" trace format.
uint32_t SrtcFormatVersion();

/// Default invocations per chunk (2^20 invocations ~= 96 MiB resident).
inline constexpr uint64_t kDefaultChunkInvocations = 1u << 20;

/// Longest key a file may echo (a trace-cache key is about 100 bytes).
inline constexpr uint32_t kMaxTraceKeyBytes = 1u << 16;

/// Bytes one invocation occupies in a chunk payload (the columnar record).
uint64_t ChunkWireBytesPerInvocation();

/// Footer metadata of one chunk.
struct ChunkInfo {
  uint64_t offset = 0;  ///< absolute file offset of the chunk payload
  uint64_t count = 0;   ///< invocations in this chunk
  uint64_t digest = 0;  ///< FNV-1a64 over the payload bytes
};

/// Encode one chunk of invocations as a self-delimiting columnar payload
/// (the byte string a chunk occupies on disk and in the chunk cache).
std::string EncodeChunk(std::span<const KernelInvocation> invocations);

/// Decode a payload produced by EncodeChunk. `first_seq` rebuilds the
/// implicit global seq numbering. Every length prefix is bounds-checked
/// against the payload size before any allocation; throws
/// std::runtime_error on truncation or trailing bytes.
std::vector<KernelInvocation> DecodeChunk(std::string_view payload,
                                          uint64_t first_seq);

/// Streaming writer: header up front, invocations appended in timeline
/// order, chunks flushed as they fill, footer on Finish(). `header`
/// supplies the workload name and kernel-type table; its invocations are
/// ignored. `key` is echoed in the header (at most kMaxTraceKeyBytes).
/// Everything goes to a unique temp file next to `path`; Finish() renames
/// it into place, so `path` only ever holds a complete file. A writer
/// destroyed without Finish() deletes its temp file and publishes nothing.
class ChunkedTraceWriter {
 public:
  ChunkedTraceWriter(const std::string& path, const KernelTrace& header,
                     uint64_t chunk_invocations = kDefaultChunkInvocations,
                     std::string_view key = {});
  ~ChunkedTraceWriter();

  ChunkedTraceWriter(const ChunkedTraceWriter&) = delete;
  ChunkedTraceWriter& operator=(const ChunkedTraceWriter&) = delete;

  /// Append one invocation (kernel_id must be valid in the header table).
  void Append(const KernelInvocation& inv);
  /// Append a batch; flushes whole chunks as the buffer fills.
  void Append(std::span<const KernelInvocation> invocations);

  uint64_t NumAppended() const { return appended_; }
  uint64_t ChunkCapacity() const { return chunk_invocations_; }

  /// Flush the partial tail chunk, write the footer + trailer, and rename
  /// the temp file to the final path. Idempotent. Throws
  /// std::runtime_error on I/O failure; the writer then publishes nothing.
  void Finish();

 private:
  void FlushChunk();

  std::string path_;
  std::string tmp_path_;
  uint64_t chunk_invocations_ = 0;
  uint64_t appended_ = 0;
  bool finished_ = false;
  std::vector<KernelInvocation> buffer_;
  std::vector<ChunkInfo> chunks_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Random-access reader over an "SRTC" file. Opening validates the
/// header, trailer, and footer index (offsets inside the file, counts
/// consistent); chunk payload digests are verified on each ReadChunk.
class ChunkedTraceReader {
 public:
  /// Throws std::runtime_error on any open/format defect.
  explicit ChunkedTraceReader(const std::string& path);
  ~ChunkedTraceReader();

  ChunkedTraceReader(const ChunkedTraceReader&) = delete;
  ChunkedTraceReader& operator=(const ChunkedTraceReader&) = delete;

  const std::string& Path() const { return path_; }
  /// The key echoed in the header ("" for files the CLI writes).
  const std::string& Key() const { return key_; }
  /// Workload name + kernel-type table (zero invocations).
  const KernelTrace& Header() const { return header_; }
  uint64_t NumInvocations() const { return total_invocations_; }
  size_t NumChunks() const { return chunks_.size(); }
  uint64_t ChunkCapacity() const { return chunk_invocations_; }
  const ChunkInfo& Chunk(size_t i) const { return chunks_.at(i); }

  /// Read chunk i, verify its digest, and materialize the invocations
  /// (seq fields globally consistent). Throws std::runtime_error on a
  /// short read or digest mismatch.
  std::vector<KernelInvocation> ReadChunk(size_t i) const;

  /// Raw verified payload bytes of chunk i. Throws like ReadChunk.
  std::string ReadChunkPayload(size_t i) const;

  /// Digest-check chunk i without materializing invocations; false on
  /// any defect (never throws).
  bool VerifyChunk(size_t i) const;

 private:
  std::string path_;
  std::string key_;
  KernelTrace header_;
  uint64_t chunk_invocations_ = 0;
  uint64_t total_invocations_ = 0;
  std::vector<ChunkInfo> chunks_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Chunk iterators
// ---------------------------------------------------------------------------

/// The chunk-iterator abstraction every streaming consumer is written
/// against. Chunk(i) materializes one chunk; implementations charge the
/// resident bytes to the "trace" resource category as a deterministic
/// per-worker peak (header + 2 chunk budgets -- current chunk plus one
/// in flight), never the whole-timeline total the in-memory path charges.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Workload name + kernel-type table shared by every chunk.
  virtual const KernelTrace& Header() const = 0;
  virtual uint64_t NumInvocations() const = 0;
  virtual size_t NumChunks() const = 0;
  virtual uint64_t ChunkCapacity() const = 0;
  /// Materialize chunk i with globally consistent seq fields. Throws
  /// std::runtime_error on storage defects.
  virtual std::vector<KernelInvocation> Chunk(size_t i) const = 0;

  /// Deterministic logical bytes resident while one worker streams: the
  /// shared header plus two chunk budgets. This is the number charged to
  /// resource::AccountPeak("trace", ...) by streaming consumers.
  uint64_t ResidentBudgetBytes() const;
};

/// Slices an in-memory trace into chunks (the zero-copy degenerate case;
/// chunks are copied out only when materialized).
class InMemoryChunkSource : public ChunkSource {
 public:
  /// `trace` must outlive the source.
  InMemoryChunkSource(const KernelTrace& trace, uint64_t chunk_invocations);

  const KernelTrace& Header() const override { return header_; }
  uint64_t NumInvocations() const override;
  size_t NumChunks() const override;
  uint64_t ChunkCapacity() const override { return chunk_invocations_; }
  std::vector<KernelInvocation> Chunk(size_t i) const override;

 private:
  const KernelTrace& trace_;
  KernelTrace header_;
  uint64_t chunk_invocations_ = 0;
};

/// Streams chunks out of an "SRTC" file.
class FileChunkSource : public ChunkSource {
 public:
  /// Throws std::runtime_error on any open/format defect.
  explicit FileChunkSource(const std::string& path);

  const KernelTrace& Header() const override { return reader_.Header(); }
  uint64_t NumInvocations() const override {
    return reader_.NumInvocations();
  }
  size_t NumChunks() const override { return reader_.NumChunks(); }
  uint64_t ChunkCapacity() const override { return reader_.ChunkCapacity(); }
  std::vector<KernelInvocation> Chunk(size_t i) const override;

  const ChunkedTraceReader& Reader() const { return reader_; }

 private:
  ChunkedTraceReader reader_;
};

/// Tiles a small profiled base trace out to `total_invocations` logical
/// invocations: global invocation j is base.At(j % base.NumInvocations())
/// with seq rewritten to j. Deterministic, never materialized, and the
/// base trace is the only resident state besides the chunk being built --
/// this is how the 10^8..10^9-invocation synthetic suites stream.
class ReplicatedChunkSource : public ChunkSource {
 public:
  /// `base` must be non-empty and outlive the source.
  ReplicatedChunkSource(const KernelTrace& base, uint64_t total_invocations,
                        uint64_t chunk_invocations);

  const KernelTrace& Header() const override { return header_; }
  uint64_t NumInvocations() const override { return total_invocations_; }
  size_t NumChunks() const override;
  uint64_t ChunkCapacity() const override { return chunk_invocations_; }
  std::vector<KernelInvocation> Chunk(size_t i) const override;

 private:
  const KernelTrace& base_;
  KernelTrace header_;
  uint64_t total_invocations_ = 0;
  uint64_t chunk_invocations_ = 0;
};

// ---------------------------------------------------------------------------
// Whole-trace helpers
// ---------------------------------------------------------------------------

/// Write an in-memory trace as a chunked file (atomically, see
/// ChunkedTraceWriter) echoing `key`. Returns chunks written.
size_t SpillTraceChunked(const KernelTrace& trace, const std::string& path,
                         uint64_t chunk_invocations = kDefaultChunkInvocations,
                         std::string_view key = {});

/// What EnsureTraceEntry left at its path.
struct TraceEntryInfo {
  uint64_t chunks = 0;    ///< chunks in the file
  uint64_t bytes = 0;     ///< file size
  bool reused = false;    ///< a verified entry was already in place
  bool rebuilt = false;   ///< a defective entry was overwritten
};

/// The one owner of an on-disk trace entry -- a trace-cache entry or a
/// pipeline spill. An existing file at `path` is reused only when it
/// opens, echoes `key`, has `chunk_invocations` capacity, holds as many
/// invocations as `trace`, and every chunk digest verifies. Anything less
/// is rebuilt from `trace` through SpillTraceChunked (temp file + rename).
/// Throws std::runtime_error when the write fails.
TraceEntryInfo EnsureTraceEntry(const std::string& path, std::string_view key,
                                const KernelTrace& trace,
                                uint64_t chunk_invocations);

/// Reassemble a full in-memory trace from any chunk source (tests and
/// small traces only -- this is exactly the materialization streaming
/// avoids). Throws on storage defects.
KernelTrace AssembleTrace(const ChunkSource& source);

}  // namespace stemroot
