/// \file
/// Synthetic warp instruction-trace generation.
///
/// The cycle simulator is trace-driven; since the workloads are generative
/// (no real binaries), each warp's instruction stream is synthesized
/// deterministically from the invocation's KernelBehavior: the mix follows
/// the behaviour fractions, global addresses follow a hot-set/streaming
/// model parameterized by locality, and coalescing controls how many
/// distinct cache lines one warp access touches. The same seed always
/// yields the same stream, so full and sampled simulations see identical
/// kernels.

#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/gpu_config.h"
#include "trace/kernel.h"

namespace stemroot::sim {

/// Warp instruction categories.
enum class OpKind : uint8_t {
  kAlu,
  kFp32,
  kFp16,
  kSfu,
  kSharedMem,
  kLoad,
  kStore,
  kBranch,
};

/// One warp-level instruction.
struct WarpInstr {
  OpKind kind = OpKind::kAlu;
  /// True when this instruction consumes the previous one's result
  /// (issue must wait for its latency). Probability 1/ilp.
  bool depends_on_prev = false;
  /// For kLoad/kStore: the distinct line addresses this warp access
  /// touches after coalescing.
  std::vector<uint64_t> lines;
};

/// The per-invocation shape of every warp's stream: everything the
/// streams of one invocation share, computed once per invocation instead
/// of once per warp. That is the instruction count per warp, the mix and
/// dependency thresholds, the coalescing fan-out, the hot-set size (a
/// pow/exp/log blend) and the hot ring's initial content (one 64-bit
/// modulo per entry, several MB for a low-locality kernel with a large
/// footprint). Must outlive every WarpProgram started from it.
struct InvocationStream {
  /// `stream_seed` ties all warps of one invocation together;
  /// `region_base` is the kernel's data region -- invocations of the same
  /// kernel share it, so repeated kernels reuse L2 content across
  /// launches (the inter-kernel reuse of the paper's Sec. 6.2).
  InvocationStream(const KernelBehavior& behavior, const LaunchConfig& launch,
                   const SimConfig& config, uint64_t stream_seed,
                   uint64_t region_base);

  uint64_t stream_seed = 0;
  uint64_t region_base = 0;      ///< address-space base of this kernel
  uint64_t line_bytes = 0;
  uint64_t footprint_lines = 0;  ///< footprint in cache lines
  uint64_t instructions = 0;     ///< warp instructions per warp
  double dep_prob = 0.0;
  uint32_t avg_transactions = 1;
  /// Behaviour fractions widened to double, plus the cumulative
  /// thresholds of the compute mix, summed in the order Next() tests them.
  double locality = 0.0;
  double store_fraction = 0.0;
  double mem_threshold = 0.0;
  double shared_threshold = 0.0;
  double branch_threshold = 0.0;
  double sfu_threshold = 0.0;
  double fp16_threshold = 0.0;
  double fp32_threshold = 0.0;
  /// Initial content of every warp's recent-reuse ring.
  std::vector<uint64_t> hot_ring;
};

/// Generates the instruction stream of one warp of an InvocationStream.
/// A warp keeps only the ring slots it has overwritten: fresh lines fill
/// the ring from slot 0 in order, so slots [0, written) are the warp's
/// own and the rest still read the shared initial content.
class WarpProgram {
 public:
  /// An empty program (no instructions) until Start().
  WarpProgram() = default;
  WarpProgram(const InvocationStream& stream, uint32_t global_warp_id) {
    Start(stream, global_warp_id);
  }

  /// (Re)start as warp `global_warp_id` of `stream`; the id individualizes
  /// the stream and its address partition. Keeps the ring's capacity, so
  /// a program reused across waves does not reallocate.
  void Start(const InvocationStream& stream, uint32_t global_warp_id);

  /// Produce the next instruction; false when the warp is done. The
  /// WarpInstr is overwritten (lines vector reused to avoid allocation).
  bool Next(WarpInstr& out);

  uint64_t InstructionsRemaining() const { return remaining_; }
  uint64_t InstructionsTotal() const {
    return stream_ == nullptr ? 0 : stream_->instructions;
  }

 private:
  uint64_t NextAddress();

  const InvocationStream* stream_ = nullptr;
  Rng rng_;
  uint64_t remaining_ = 0;
  uint64_t stream_pos_ = 0;  ///< streaming cursor (line units)
  std::vector<uint64_t> written_;  ///< ring slots [0, size) this warp wrote
  size_t hot_cursor_ = 0;
};

}  // namespace stemroot::sim
