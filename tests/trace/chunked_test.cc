#include "trace/chunked.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads/rodinia.h"

namespace stemroot {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// Profiled deterministic trace: durations derived from seq so every
/// field of the columnar payload carries distinguishable data.
KernelTrace MakeTrace(size_t min_invocations = 0) {
  KernelTrace trace = workloads::MakeRodinia("gaussian", 42, 0.05);
  EXPECT_GE(trace.NumInvocations(), min_invocations);
  for (auto& inv : trace.MutableInvocations())
    inv.duration_us = static_cast<double>(inv.seq + 1) * 0.25;
  return trace;
}

void ExpectInvocationEq(const KernelInvocation& a, const KernelInvocation& b) {
  EXPECT_EQ(a.kernel_id, b.kernel_id);
  EXPECT_EQ(a.context_id, b.context_id);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.launch, b.launch);
  EXPECT_EQ(a.behavior.instructions, b.behavior.instructions);
  EXPECT_EQ(a.behavior.footprint_bytes, b.behavior.footprint_bytes);
  EXPECT_EQ(a.behavior.mem_fraction, b.behavior.mem_fraction);
  EXPECT_EQ(a.behavior.shared_fraction, b.behavior.shared_fraction);
  EXPECT_EQ(a.behavior.locality, b.behavior.locality);
  EXPECT_EQ(a.behavior.coalescing, b.behavior.coalescing);
  EXPECT_EQ(a.behavior.branch_divergence, b.behavior.branch_divergence);
  EXPECT_EQ(a.behavior.fp16_fraction, b.behavior.fp16_fraction);
  EXPECT_EQ(a.behavior.fp32_fraction, b.behavior.fp32_fraction);
  EXPECT_EQ(a.behavior.ilp, b.behavior.ilp);
  EXPECT_EQ(a.behavior.input_scale, b.behavior.input_scale);
  EXPECT_EQ(a.behavior.store_fraction, b.behavior.store_fraction);
  EXPECT_EQ(a.duration_us, b.duration_us);
}

void ExpectTraceEq(const KernelTrace& a, const KernelTrace& b) {
  EXPECT_EQ(a.WorkloadName(), b.WorkloadName());
  ASSERT_EQ(a.NumKernelTypes(), b.NumKernelTypes());
  for (uint32_t k = 0; k < a.NumKernelTypes(); ++k) {
    EXPECT_EQ(a.Type(k).name, b.Type(k).name);
    EXPECT_EQ(a.Type(k).num_basic_blocks, b.Type(k).num_basic_blocks);
    EXPECT_EQ(a.Type(k).block_weights, b.Type(k).block_weights);
  }
  ASSERT_EQ(a.NumInvocations(), b.NumInvocations());
  for (size_t i = 0; i < a.NumInvocations(); ++i)
    ExpectInvocationEq(a.At(i), b.At(i));
}

// ---------------------------------------------------------------------------
// Chunk payload encode/decode

TEST(ChunkPayloadTest, RoundTripPreservesEveryColumn) {
  const KernelTrace trace = MakeTrace(3);
  const auto invocations = InMemoryChunkSource(trace, 64).Chunk(0);
  const std::string payload = EncodeChunk(invocations);
  EXPECT_EQ(payload.size(),
            8 + invocations.size() * ChunkWireBytesPerInvocation());
  const std::vector<KernelInvocation> decoded = DecodeChunk(payload, 0);
  ASSERT_EQ(decoded.size(), invocations.size());
  for (size_t i = 0; i < decoded.size(); ++i)
    ExpectInvocationEq(decoded[i], invocations[i]);
}

TEST(ChunkPayloadTest, EmptyChunkRoundTrips) {
  const std::string payload = EncodeChunk({});
  EXPECT_EQ(payload.size(), 8u);  // just the u64 count
  EXPECT_TRUE(DecodeChunk(payload, 0).empty());
}

TEST(ChunkPayloadTest, SingleInvocationRoundTripsWithSeqRebase) {
  KernelInvocation inv;
  inv.kernel_id = 3;
  inv.seq = 999;  // encoder drops seq; decoder rebuilds from first_seq
  inv.duration_us = 7.5;
  const std::string payload =
      EncodeChunk(std::span<const KernelInvocation>(&inv, 1));
  const auto decoded = DecodeChunk(payload, 12345);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].seq, 12345u);
  EXPECT_EQ(decoded[0].kernel_id, 3u);
  EXPECT_EQ(decoded[0].duration_us, 7.5);
}

TEST(ChunkPayloadTest, HugeCountPrefixThrowsWithoutAllocating) {
  // A hostile count prefix far beyond the payload bytes must throw
  // std::runtime_error from the bounds check, never reach a
  // count-driven allocation (the header hardening contract
  // applied to the chunk layer).
  std::string payload = EncodeChunk({});
  payload.resize(8);
  const uint64_t huge = ~uint64_t{0} / 2;
  payload.replace(0, 8, reinterpret_cast<const char*>(&huge), 8);
  EXPECT_THROW(DecodeChunk(payload, 0), std::runtime_error);
}

TEST(ChunkPayloadTest, TruncatedAndOversizedPayloadsThrow) {
  const KernelTrace trace = MakeTrace(2);
  const auto invocations = InMemoryChunkSource(trace, 8).Chunk(0);
  const std::string payload = EncodeChunk(invocations);
  EXPECT_THROW(DecodeChunk(std::string_view(payload).substr(0, 4), 0),
               std::runtime_error);
  EXPECT_THROW(
      DecodeChunk(std::string_view(payload).substr(0, payload.size() - 1), 0),
      std::runtime_error);
  EXPECT_THROW(DecodeChunk(payload + "x", 0), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Writer + reader round trips

TEST(ChunkedFileTest, RoundTripWithPartialLastChunk) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("partial_last.srtc");
  // A capacity that does not divide the trace: the last chunk is partial.
  const uint64_t cap = trace.NumInvocations() / 2 + 1;
  ASSERT_NE(trace.NumInvocations() % cap, 0u);
  EXPECT_EQ(SpillTraceChunked(trace, path, cap), 2u);

  const ChunkedTraceReader reader(path);
  EXPECT_EQ(reader.ChunkCapacity(), cap);
  EXPECT_EQ(reader.NumInvocations(), trace.NumInvocations());
  ASSERT_EQ(reader.NumChunks(), 2u);
  EXPECT_EQ(reader.Chunk(0).count, cap);
  EXPECT_EQ(reader.Chunk(1).count, trace.NumInvocations() - cap);
  for (size_t i = 0; i < reader.NumChunks(); ++i)
    EXPECT_TRUE(reader.VerifyChunk(i));
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);
}

TEST(ChunkedFileTest, SingleInvocationFileRoundTrips) {
  KernelTrace trace("one");
  const uint32_t k = trace.InternKernel("solo");
  KernelInvocation inv;
  inv.kernel_id = k;
  inv.duration_us = 3.0;
  trace.Add(inv);
  const std::string path = TempPath("single.srtc");
  EXPECT_EQ(SpillTraceChunked(trace, path, 4), 1u);
  const ChunkedTraceReader reader(path);
  ASSERT_EQ(reader.NumChunks(), 1u);
  EXPECT_EQ(reader.Chunk(0).count, 1u);
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);
}

TEST(ChunkedFileTest, EmptyTraceRoundTripsWithZeroChunks) {
  KernelTrace trace("empty");
  trace.InternKernel("unused");
  const std::string path = TempPath("empty.srtc");
  EXPECT_EQ(SpillTraceChunked(trace, path, 16), 0u);
  const ChunkedTraceReader reader(path);
  EXPECT_EQ(reader.NumChunks(), 0u);
  EXPECT_EQ(reader.NumInvocations(), 0u);
  EXPECT_EQ(reader.Header().WorkloadName(), "empty");
  EXPECT_EQ(reader.Header().NumKernelTypes(), 1u);
  EXPECT_EQ(AssembleTrace(FileChunkSource(path)).NumInvocations(), 0u);
}

TEST(ChunkedFileTest, ExactMultipleCapacityHasNoPartialChunk) {
  KernelTrace trace("exact");
  const uint32_t k = trace.InternKernel("k");
  for (int i = 0; i < 8; ++i) {
    KernelInvocation inv;
    inv.kernel_id = k;
    inv.duration_us = 1.0 + i;
    trace.Add(inv);
  }
  const std::string path = TempPath("exact.srtc");
  EXPECT_EQ(SpillTraceChunked(trace, path, 4), 2u);
  const ChunkedTraceReader reader(path);
  EXPECT_EQ(reader.Chunk(0).count, 4u);
  EXPECT_EQ(reader.Chunk(1).count, 4u);
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);
}

TEST(ChunkedFileTest, ReadChunkRebuildsGlobalSeq) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("seq.srtc");
  const uint64_t cap = 3;
  SpillTraceChunked(trace, path, cap);
  const ChunkedTraceReader reader(path);
  for (size_t i = 0; i < reader.NumChunks(); ++i) {
    const auto chunk = reader.ReadChunk(i);
    for (size_t j = 0; j < chunk.size(); ++j)
      EXPECT_EQ(chunk[j].seq, i * cap + j);
  }
}

TEST(ChunkedFileTest, WriterBatchAndSingleAppendsAgree) {
  const KernelTrace trace = MakeTrace(4);
  const std::string batch_path = TempPath("batch.srtc");
  const std::string single_path = TempPath("single_append.srtc");
  SpillTraceChunked(trace, batch_path, 7);  // batch Append under the hood
  {
    ChunkedTraceWriter writer(single_path, trace, 7);
    for (size_t i = 0; i < trace.NumInvocations(); ++i)
      writer.Append(trace.At(i));
    writer.Finish();
  }
  std::ifstream a(batch_path, std::ios::binary);
  std::ifstream b(single_path, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

// ---------------------------------------------------------------------------
// Corruption: throw on read, false on verify, reject on open

TEST(ChunkedFileTest, CorruptChunkDigestIsDetectedPerChunk) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("corrupt_chunk.srtc");
  SpillTraceChunked(trace, path, trace.NumInvocations() / 2 + 1);
  ChunkInfo second;
  {
    const ChunkedTraceReader reader(path);
    ASSERT_EQ(reader.NumChunks(), 2u);
    second = reader.Chunk(1);
  }
  {
    // Flip one byte inside chunk 1's payload; chunk 0 stays intact.
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(second.offset + 8));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(second.offset + 8));
    file.put(static_cast<char>(byte ^ 0x5a));
  }
  const ChunkedTraceReader reader(path);  // footer still consistent
  EXPECT_TRUE(reader.VerifyChunk(0));
  EXPECT_FALSE(reader.VerifyChunk(1));
  EXPECT_NO_THROW(reader.ReadChunk(0));
  EXPECT_THROW(reader.ReadChunk(1), std::runtime_error);
  EXPECT_THROW(AssembleTrace(FileChunkSource(path)), std::runtime_error);
}

TEST(ChunkedFileTest, TruncatedFileIsRejectedAtOpen) {
  const KernelTrace trace = MakeTrace(2);
  const std::string full = TempPath("trunc_full.srtc");
  SpillTraceChunked(trace, full, 8);
  std::ifstream in(full, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  // Chop at several depths: inside the trailer, inside the footer, and
  // down to a stub shorter than any trailer. All must throw at open.
  for (const size_t keep :
       {bytes.size() - 1, bytes.size() - 40, bytes.size() / 2, size_t{10}}) {
    const std::string cut = TempPath("trunc_cut.srtc");
    std::ofstream(cut, std::ios::binary) << bytes.substr(0, keep);
    EXPECT_THROW(ChunkedTraceReader{cut}, std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(ChunkedFileTest, MissingFileAndGarbageAreRejected) {
  EXPECT_THROW(ChunkedTraceReader{"/nonexistent/x.srtc"},
               std::runtime_error);
  const std::string path = TempPath("garbage.srtc");
  std::ofstream(path, std::ios::binary)
      << std::string(4096, '\x5a');  // big enough to hold a fake trailer
  EXPECT_THROW(ChunkedTraceReader{path}, std::runtime_error);
}

/// Files in `dir` whose name starts with `prefix`.
size_t CountFiles(const std::filesystem::path& dir, const std::string& prefix) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  return n;
}

TEST(ChunkedFileTest, UnfinishedWriterLeavesRejectedFile) {
  const KernelTrace trace = MakeTrace(2);
  const std::string path = TempPath("unfinished.srtc");
  std::filesystem::remove(path);
  {
    ChunkedTraceWriter writer(path, trace, 4);
    writer.Append(trace.At(0));
    // No Finish(): the writer is abandoned, as when an exception unwinds.
  }
  // Nothing was published and the temp file is gone.
  EXPECT_THROW(ChunkedTraceReader{path}, std::runtime_error);
  EXPECT_EQ(CountFiles(testing::TempDir(), "unfinished.srtc"), 0u);

  // A crash mid-write leaves at most a footerless file; readers reject it.
  const std::string full = TempPath("finished.srtc");
  SpillTraceChunked(trace, full, 4);
  const std::string crashed = TempPath("crashed.srtc");
  {
    std::ifstream in(full, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 32u);
    std::ofstream(crashed, std::ios::binary)
        << bytes.substr(0, bytes.size() - 32);  // strip the trailer
  }
  EXPECT_THROW(ChunkedTraceReader{crashed}, std::runtime_error);
}

TEST(ChunkedFileTest, WriterPublishesAtomicallyOnFinish) {
  const std::filesystem::path dir = TempPath("atomic_publish");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "entry.srtc").string();
  const KernelTrace trace = MakeTrace(5);
  {
    ChunkedTraceWriter writer(path, trace, 4, "k1");
    writer.Append(trace.Invocations());
    // Every chunk is written, yet the final path does not exist yet.
    EXPECT_FALSE(std::filesystem::exists(path));
    writer.Finish();
  }
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);

  // Rewriting the same entry: the old file stays whole and readable until
  // the new one is renamed over it.
  {
    ChunkedTraceWriter writer(path, trace, 3, "k1");
    writer.Append(trace.Invocations());
    EXPECT_EQ(ChunkedTraceReader(path).ChunkCapacity(), 4u);
    ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);
    writer.Finish();
  }
  EXPECT_EQ(ChunkedTraceReader(path).ChunkCapacity(), 3u);
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);
  // No temp file is left behind: the directory holds just the entry.
  EXPECT_EQ(CountFiles(dir, ""), 1u);
}

TEST(ChunkedFileTest, KeyIsEchoedAndBounded) {
  const KernelTrace trace = MakeTrace(1);
  const std::string path = TempPath("keyed.srtc");
  SpillTraceChunked(trace, path, 8, "suite|workload|seed=1");
  EXPECT_EQ(ChunkedTraceReader(path).Key(), "suite|workload|seed=1");
  SpillTraceChunked(trace, path, 8);
  EXPECT_EQ(ChunkedTraceReader(path).Key(), "");
  EXPECT_THROW(SpillTraceChunked(trace, path, 8,
                                 std::string(kMaxTraceKeyBytes + 1, 'k')),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// EnsureTraceEntry: reuse a verified entry, rebuild anything less

TEST(TraceEntryTest, EnsureReusesVerifiedAndRebuildsDefectiveEntries) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("ensured.srtc");
  std::filesystem::remove(path);
  const uint64_t cap = trace.NumInvocations() / 2 + 1;

  TraceEntryInfo info = EnsureTraceEntry(path, "k1", trace, cap);
  EXPECT_FALSE(info.reused);
  EXPECT_FALSE(info.rebuilt);  // nothing was there
  EXPECT_EQ(info.chunks, 2u);
  EXPECT_EQ(info.bytes, std::filesystem::file_size(path));

  info = EnsureTraceEntry(path, "k1", trace, cap);
  EXPECT_TRUE(info.reused);
  EXPECT_EQ(info.chunks, 2u);

  // Another key or another capacity is not this entry.
  info = EnsureTraceEntry(path, "k2", trace, cap);
  EXPECT_TRUE(info.rebuilt);
  EXPECT_EQ(ChunkedTraceReader(path).Key(), "k2");
  info = EnsureTraceEntry(path, "k2", trace, cap + 1);
  EXPECT_TRUE(info.rebuilt);

  // A flipped byte in the last chunk fails its digest: rebuilt.
  const ChunkInfo last = ChunkedTraceReader(path).Chunk(1);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(last.offset + 9));
    file.put('\x7f');
  }
  info = EnsureTraceEntry(path, "k2", trace, cap + 1);
  EXPECT_TRUE(info.rebuilt);
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);

  // Truncated: rebuilt, and the result reads back whole.
  std::filesystem::resize_file(path, info.bytes / 2);
  info = EnsureTraceEntry(path, "k2", trace, cap + 1);
  EXPECT_TRUE(info.rebuilt);
  ExpectTraceEq(AssembleTrace(FileChunkSource(path)), trace);
}

// ---------------------------------------------------------------------------
// Chunk sources

TEST(ChunkSourceTest, InMemoryAndFileChunksAreByteIdentical) {
  const KernelTrace trace = MakeTrace(5);
  const std::string path = TempPath("byte_identical.srtc");
  const uint64_t cap = trace.NumInvocations() / 3 + 1;
  SpillTraceChunked(trace, path, cap);
  const InMemoryChunkSource mem(trace, cap);
  const FileChunkSource file(path);
  ASSERT_EQ(mem.NumChunks(), file.NumChunks());
  for (size_t i = 0; i < mem.NumChunks(); ++i) {
    EXPECT_EQ(EncodeChunk(mem.Chunk(i)), file.Reader().ReadChunkPayload(i));
  }
  ExpectTraceEq(AssembleTrace(mem), AssembleTrace(file));
}

TEST(ChunkSourceTest, ReplicatedTilesBaseTraceDeterministically) {
  const KernelTrace base = MakeTrace(3);
  const uint64_t n = base.NumInvocations();
  const uint64_t total = 2 * n + 3;  // partial final tile
  const ReplicatedChunkSource source(base, total, n);
  EXPECT_EQ(source.NumInvocations(), total);
  EXPECT_EQ(source.NumChunks(), 3u);
  uint64_t seen = 0;
  for (size_t i = 0; i < source.NumChunks(); ++i) {
    const auto chunk = source.Chunk(i);
    for (const KernelInvocation& inv : chunk) {
      EXPECT_EQ(inv.seq, seen);
      KernelInvocation expected = base.At(seen % n);
      expected.seq = seen;
      ExpectInvocationEq(inv, expected);
      ++seen;
    }
    // Determinism: re-materializing yields byte-identical chunks.
    EXPECT_EQ(EncodeChunk(chunk), EncodeChunk(source.Chunk(i)));
  }
  EXPECT_EQ(seen, total);
}

TEST(ChunkSourceTest, ResidentBudgetIsIndependentOfLogicalSize) {
  const KernelTrace base = MakeTrace(1);
  const ReplicatedChunkSource small(base, 1000, 256);
  const ReplicatedChunkSource huge(base, 1000000000ull, 256);
  EXPECT_GT(small.ResidentBudgetBytes(), 0u);
  // The streaming memory contract: the budget scales with the chunk
  // capacity and header, never with the logical invocation count.
  EXPECT_EQ(small.ResidentBudgetBytes(), huge.ResidentBudgetBytes());
  const ReplicatedChunkSource wider(base, 1000, 512);
  EXPECT_GT(wider.ResidentBudgetBytes(), small.ResidentBudgetBytes());
}

TEST(ChunkSourceTest, InMemorySourceCoversWholeTraceOnce) {
  const KernelTrace trace = MakeTrace(4);
  const InMemoryChunkSource source(trace, 3);
  uint64_t seen = 0;
  for (size_t i = 0; i < source.NumChunks(); ++i) {
    for (const KernelInvocation& inv : source.Chunk(i)) {
      ExpectInvocationEq(inv, trace.At(seen));
      ++seen;
    }
  }
  EXPECT_EQ(seen, trace.NumInvocations());
}

}  // namespace
}  // namespace stemroot
