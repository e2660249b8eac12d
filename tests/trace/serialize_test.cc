/// \file
/// Whole-trace serialization: the "SRTC" file round trip
/// (trace/chunked.h), hostile length prefixes in its header, truncation,
/// and the timeline CSV export.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "common/csv.h"
#include "trace/chunked.h"
#include "trace/trace.h"
#include "workloads/rodinia.h"

namespace stemroot {
namespace {

/// A temp file private to the running test (ctest runs tests of one
/// binary in parallel processes).
std::string TempPath(const char* name) {
  return testing::TempDir() + "/" +
         testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

KernelTrace LoadFile(const std::string& path) {
  return AssembleTrace(FileChunkSource(path));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(SerializeTest, BinaryRoundTripPreservesEverything) {
  KernelTrace original = workloads::MakeRodinia("gaussian", 42, 0.05);
  for (auto& inv : original.MutableInvocations())
    inv.duration_us = static_cast<double>(inv.seq + 1) * 0.5;

  // A small chunk capacity so the timeline spans several chunks.
  const std::string path = TempPath("trace_roundtrip.srtc");
  ASSERT_GT(SpillTraceChunked(original, path, 64, "entry-key"), 1u);
  EXPECT_EQ(ChunkedTraceReader(path).Key(), "entry-key");
  const KernelTrace loaded = LoadFile(path);

  EXPECT_EQ(loaded.WorkloadName(), original.WorkloadName());
  ASSERT_EQ(loaded.NumInvocations(), original.NumInvocations());
  ASSERT_EQ(loaded.NumKernelTypes(), original.NumKernelTypes());
  for (size_t i = 0; i < original.NumInvocations(); ++i) {
    const KernelInvocation& a = original.At(i);
    const KernelInvocation& b = loaded.At(i);
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
  for (uint32_t k = 0; k < original.NumKernelTypes(); ++k) {
    EXPECT_EQ(loaded.Type(k).name, original.Type(k).name);
    EXPECT_EQ(loaded.Type(k).num_basic_blocks,
              original.Type(k).num_basic_blocks);
    EXPECT_EQ(loaded.Type(k).block_weights,
              original.Type(k).block_weights);
  }
}

TEST(SerializeTest, LoadRejectsMissingFile) {
  EXPECT_THROW(LoadFile("/nonexistent/trace.srtc"), std::runtime_error);
}

TEST(SerializeTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("bad_magic.srtc");
  WriteBytes(path, "NOPE this is not a trace");
  EXPECT_THROW(LoadFile(path), std::runtime_error);

  // A well-formed file whose header magic alone is wrong.
  SpillTraceChunked(workloads::MakeRodinia("lud", 1, 0.05), path, 16);
  std::string bytes = ReadBytes(path);
  bytes[0] = 'X';
  WriteBytes(path, bytes);
  EXPECT_THROW(LoadFile(path), std::runtime_error);
}

TEST(SerializeTest, LoadRejectsTruncatedFile) {
  KernelTrace trace = workloads::MakeRodinia("lud", 1, 0.05);
  const std::string full_path = TempPath("full.srtc");
  SpillTraceChunked(trace, full_path, 16);
  const std::string bytes = ReadBytes(full_path);
  const std::string cut_path = TempPath("cut.srtc");
  WriteBytes(cut_path, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(LoadFile(cut_path), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Hostile length/count prefixes: every prefix in the SRTC header is
// bounds-checked against the bytes actually remaining, so a corrupt
// prefix throws std::runtime_error *before* any allocation is sized from
// it. Each test below corrupts exactly one prefix in a valid file and
// expects the reader to refuse it.

/// Overwrite a little-endian POD at `offset` in `bytes`.
template <typename T>
std::string CorruptAt(std::string bytes, size_t offset, T value) {
  EXPECT_LE(offset + sizeof(T), bytes.size());
  bytes.replace(offset, sizeof(T), reinterpret_cast<const char*>(&value),
                sizeof(T));
  return bytes;
}

template <typename T>
T PodAt(const std::string& bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

/// A tiny trace with deterministic prefix offsets: workload "wl" (2
/// bytes), one interned kernel type "k", `n` invocations.
KernelTrace TinyTrace(int n) {
  KernelTrace trace("wl");
  const uint32_t k = trace.InternKernel("k");
  for (int i = 0; i < n; ++i) {
    KernelInvocation inv;
    inv.kernel_id = k;
    inv.duration_us = 1.0 + i;
    trace.Add(inv);
  }
  return trace;
}

constexpr const char* kTinyKey = "key";

/// TinyTrace(n) as SRTC file bytes, keyed kTinyKey, two-invocation chunks.
std::string TinyFile(int n) {
  const std::string path = TempPath("tiny.srtc");
  SpillTraceChunked(TinyTrace(n), path, 2, kTinyKey);
  return ReadBytes(path);
}

// Prefix offsets in TinyFile bytes: magic(4) version(4) capacity(8), then
// the key length at 16, the workload-name length at 16+4+3, the type count
// at 23+4+2, the first type-name length at 33, and (after name "k" and
// num_basic_blocks) the block-weight count at 33+4+1+4 = 42.
constexpr size_t kKeyLenOffset = 16;
constexpr size_t kWorkloadLenOffset = 23;
constexpr size_t kNumTypesOffset = 29;
constexpr size_t kTypeNameLenOffset = 33;
constexpr size_t kWeightCountOffset = 42;

/// Load `bytes` as a file; the reader must throw std::runtime_error.
void ExpectRejected(const std::string& bytes) {
  const std::string path = TempPath("hostile.srtc");
  WriteBytes(path, bytes);
  EXPECT_THROW(LoadFile(path), std::runtime_error);
}

TEST(SerializeTest, PrefixOffsetsMatchTheLayout) {
  const std::string bytes = TinyFile(2);
  EXPECT_EQ(PodAt<uint32_t>(bytes, kKeyLenOffset), 3u);
  EXPECT_EQ(PodAt<uint32_t>(bytes, kWorkloadLenOffset), 2u);
  EXPECT_EQ(PodAt<uint32_t>(bytes, kNumTypesOffset), 1u);
  EXPECT_EQ(PodAt<uint32_t>(bytes, kTypeNameLenOffset), 1u);
  EXPECT_EQ(PodAt<uint32_t>(bytes, kWeightCountOffset),
            TinyTrace(0).Type(0).block_weights.size());
}

TEST(SerializeTest, CorruptKeyLengthThrows) {
  const std::string bytes = TinyFile(2);
  // Over the key cap, and under the cap but past the end of the header.
  ExpectRejected(CorruptAt<uint32_t>(bytes, kKeyLenOffset, 0x7fffffffu));
  ExpectRejected(CorruptAt<uint32_t>(bytes, kKeyLenOffset,
                                     static_cast<uint32_t>(bytes.size())));
}

TEST(SerializeTest, CorruptWorkloadNameLengthThrows) {
  const std::string bytes = TinyFile(2);
  ExpectRejected(CorruptAt<uint32_t>(bytes, kWorkloadLenOffset, 0x7fffffffu));
  ExpectRejected(CorruptAt<uint32_t>(
      bytes, kWorkloadLenOffset, static_cast<uint32_t>(bytes.size() + 1)));
}

TEST(SerializeTest, CorruptKernelTypeCountThrows) {
  ExpectRejected(CorruptAt<uint32_t>(TinyFile(2), kNumTypesOffset, 0xffffffu));
}

TEST(SerializeTest, CorruptTypeNameLengthThrows) {
  const std::string bytes = TinyFile(2);
  ExpectRejected(CorruptAt<uint32_t>(bytes, kTypeNameLenOffset,
                                     static_cast<uint32_t>(bytes.size())));
}

TEST(SerializeTest, CorruptBlockWeightCountThrows) {
  ExpectRejected(
      CorruptAt<uint32_t>(TinyFile(2), kWeightCountOffset, 0xffffffu));
}

TEST(SerializeTest, CorruptInvocationCountThrows) {
  // Invocation counts live in the trailer total, in each footer record,
  // and in each chunk payload's own u64 prefix. Trailer: footer_offset,
  // num_chunks, total, version, magic (32 bytes at the end).
  const std::string bytes = TinyFile(3);
  const size_t total_offset = bytes.size() - 32 + 16;
  const size_t footer_offset =
      static_cast<size_t>(PodAt<uint64_t>(bytes, bytes.size() - 32));
  const size_t chunk0_offset =
      static_cast<size_t>(PodAt<uint64_t>(bytes, footer_offset));
  // Over- and undercounting totals disagree with the chunk counts.
  ExpectRejected(CorruptAt<uint64_t>(bytes, total_offset, uint64_t{1} << 50));
  ExpectRejected(CorruptAt<uint64_t>(bytes, total_offset, 2));
  // A footer count past the file must throw from the bounds check, never
  // size a chunk read from it.
  ExpectRejected(
      CorruptAt<uint64_t>(bytes, footer_offset + 8, uint64_t{1} << 50));
  // A chunk payload count no longer matches its digest.
  ExpectRejected(CorruptAt<uint64_t>(bytes, chunk0_offset, 1));
}

TEST(SerializeTest, TruncationAtEveryByteThrowsNotCrashes) {
  const std::string bytes = TinyFile(3);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    ExpectRejected(bytes.substr(0, keep));
  }
}

TEST(SerializeTest, TimelineCsvHasHeaderAndAllRows) {
  KernelTrace trace("wl");
  const uint32_t k = trace.InternKernel("sgemm");
  for (int i = 0; i < 3; ++i) {
    KernelInvocation inv;
    inv.kernel_id = k;
    inv.behavior.instructions = 100;
    inv.duration_us = 1.0;
    trace.Add(inv);
  }
  const std::string path = TempPath("timeline.csv");
  ExportTimelineCsv(trace, path);
  const CsvTable table = CsvTable::ReadFile(path);
  ASSERT_EQ(table.rows.size(), 4u);  // header + 3
  EXPECT_EQ(table.rows[0][0], "kernel");
  EXPECT_EQ(table.rows[1][0], "sgemm");
}

TEST(SerializeTest, HostileKernelNamesRoundTripThroughCsv) {
  // Kernel names are the one externally-controlled CSV cell. RFC-4180
  // quoting in CsvWriter::WriteRow must carry commas, quotes, newlines,
  // and leading/trailing spaces through CsvTable's parser unchanged.
  const std::vector<std::string> hostile = {
      "plain",
      "with,comma",
      "with\"quote",
      "with\nnewline",
      " padded ",
      "\"quoted,mix\"\nall",
  };
  KernelTrace trace("hostile");
  for (const std::string& name : hostile) {
    KernelInvocation inv;
    inv.kernel_id = trace.InternKernel(name);
    inv.duration_us = 1.0;
    trace.Add(inv);
  }
  const std::string path = TempPath("hostile.csv");
  ExportTimelineCsv(trace, path);
  const CsvTable table = CsvTable::ReadFile(path);
  ASSERT_EQ(table.rows.size(), hostile.size() + 1);  // header + rows
  for (size_t i = 0; i < hostile.size(); ++i)
    EXPECT_EQ(table.rows[i + 1][0], hostile[i]) << "row " << i;
}

}  // namespace
}  // namespace stemroot
