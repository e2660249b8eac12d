/// \file
/// KernelTrace: an ordered workload of kernel invocations plus the kernel
/// type (name) table, with the group-by-name view that every kernel-level
/// sampler starts from (paper Fig. 3, step 1).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/kernel.h"

namespace stemroot {

/// A complete workload: kernel type table + invocation timeline.
class KernelTrace {
 public:
  KernelTrace() = default;
  explicit KernelTrace(std::string workload_name)
      : workload_name_(std::move(workload_name)) {}

  const std::string& WorkloadName() const { return workload_name_; }
  void SetWorkloadName(std::string name) { workload_name_ = std::move(name); }

  /// Register a kernel type; returns its id. Registering the same name
  /// twice returns the existing id (the type definition must match).
  uint32_t AddKernelType(KernelType type);

  /// Register-or-get by name with a synthesized CFG of the given size.
  uint32_t InternKernel(const std::string& name,
                        uint32_t num_basic_blocks = 8);

  /// Append an invocation. kernel_id must be registered; seq is assigned
  /// automatically as the current timeline length.
  void Add(KernelInvocation inv);

  size_t NumInvocations() const { return invocations_.size(); }
  size_t NumKernelTypes() const { return types_.size(); }
  bool Empty() const { return invocations_.empty(); }

  const KernelInvocation& At(size_t i) const { return invocations_.at(i); }
  KernelInvocation& At(size_t i) { return invocations_.at(i); }
  std::span<const KernelInvocation> Invocations() const {
    return invocations_;
  }
  std::span<KernelInvocation> MutableInvocations() { return invocations_; }

  const KernelType& TypeOf(const KernelInvocation& inv) const {
    return types_.at(inv.kernel_id);
  }
  const KernelType& Type(uint32_t kernel_id) const {
    return types_.at(kernel_id);
  }
  /// The whole kernel-type table in id order.
  std::span<const KernelType> Types() const { return types_; }
  const std::string& NameOf(const KernelInvocation& inv) const {
    return types_.at(inv.kernel_id).name;
  }

  /// Lookup a kernel id by name; returns -1 when unknown.
  int64_t FindKernel(const std::string& name) const;

  /// Sum of profiled durations over the whole timeline (microseconds).
  /// This is the ground-truth t* of Eq. (1) in profile-based evaluation.
  double TotalDurationUs() const;

  /// Indices of invocations grouped by kernel id, in timeline order.
  /// Index k of the result holds the invocation indices of kernel id k.
  std::vector<std::vector<uint32_t>> GroupByKernel() const;

  /// Reserve capacity for n invocations (generators know their size).
  void Reserve(size_t n) { invocations_.reserve(n); }

  /// A copy carrying only the identity of this trace -- workload name and
  /// the full kernel-type table, zero invocations. This is the shared
  /// "header" a chunked trace file or chunk iterator hands to streaming
  /// consumers (trace/chunked.h): kernel ids stay valid, the timeline
  /// arrives chunk by chunk.
  KernelTrace HeaderClone() const;

  /// Logical size of this trace's payload in bytes: invocation timeline +
  /// kernel type table (names, CFG weights) + the name index. Computed
  /// from element *counts*, never vector capacities, so the number is
  /// deterministic for a given trace regardless of growth history — the
  /// "trace" category of resource::Account (DESIGN.md §15).
  uint64_t ApproxBytes() const;

 private:
  std::string workload_name_;
  std::vector<KernelType> types_;
  std::unordered_map<std::string, uint32_t> name_to_id_;
  std::vector<KernelInvocation> invocations_;
};

/// Export the profiled timeline as CSV (header: kernel,seq,duration_us,
/// grid,block,instructions), mirroring what an Nsight Systems export looks
/// like, for external plotting. Throws std::runtime_error on I/O failure.
void ExportTimelineCsv(const KernelTrace& trace, const std::string& path);

}  // namespace stemroot
