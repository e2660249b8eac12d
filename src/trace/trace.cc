#include "trace/trace.h"

#include <stdexcept>

#include "common/csv.h"
#include "common/str.h"

namespace stemroot {

uint32_t KernelTrace::AddKernelType(KernelType type) {
  auto it = name_to_id_.find(type.name);
  if (it != name_to_id_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(types_.size());
  name_to_id_.emplace(type.name, id);
  types_.push_back(std::move(type));
  return id;
}

uint32_t KernelTrace::InternKernel(const std::string& name,
                                   uint32_t num_basic_blocks) {
  auto it = name_to_id_.find(name);
  if (it != name_to_id_.end()) return it->second;
  return AddKernelType(KernelType::Synthesize(name, num_basic_blocks));
}

void KernelTrace::Add(KernelInvocation inv) {
  if (inv.kernel_id >= types_.size())
    throw std::invalid_argument("KernelTrace::Add: unregistered kernel_id");
  inv.seq = invocations_.size();
  invocations_.push_back(inv);
}

KernelTrace KernelTrace::HeaderClone() const {
  KernelTrace header(workload_name_);
  for (const KernelType& type : types_) header.AddKernelType(type);
  return header;
}

int64_t KernelTrace::FindKernel(const std::string& name) const {
  auto it = name_to_id_.find(name);
  return it == name_to_id_.end() ? -1 : static_cast<int64_t>(it->second);
}

double KernelTrace::TotalDurationUs() const {
  double total = 0.0;
  for (const auto& inv : invocations_) total += inv.duration_us;
  return total;
}

uint64_t KernelTrace::ApproxBytes() const {
  uint64_t bytes = sizeof(*this);
  bytes += invocations_.size() * sizeof(KernelInvocation);
  for (const KernelType& type : types_) {
    bytes += sizeof(KernelType) + type.name.size();
    bytes += type.block_weights.size() * sizeof(float);
    // name_to_id_ entry: key string + mapped id + node overhead (two
    // pointers is the conventional unordered_map node estimate).
    bytes += type.name.size() + sizeof(uint32_t) + 2 * sizeof(void*);
  }
  return bytes;
}

std::vector<std::vector<uint32_t>> KernelTrace::GroupByKernel() const {
  std::vector<std::vector<uint32_t>> groups(types_.size());
  for (size_t i = 0; i < invocations_.size(); ++i)
    groups[invocations_[i].kernel_id].push_back(static_cast<uint32_t>(i));
  return groups;
}

void ExportTimelineCsv(const KernelTrace& trace, const std::string& path) {
  CsvWriter csv(path);
  csv.WriteHeader({"kernel", "seq", "duration_us", "grid", "block",
                   "instructions"});
  // Kernel names are the one externally-controlled cell: CsvWriter::
  // WriteRow applies RFC-4180 quoting to every cell, so names carrying
  // commas, quotes, or newlines round-trip through CsvTable::Parse
  // (pinned by the hostile-name test in tests/trace/serialize_test.cc).
  for (const KernelInvocation& inv : trace.Invocations()) {
    csv.WriteRow({trace.NameOf(inv), std::to_string(inv.seq),
                  Format("%.4f", inv.duration_us),
                  Format("%ux%ux%u", inv.launch.grid_x, inv.launch.grid_y,
                         inv.launch.grid_z),
                  Format("%ux%ux%u", inv.launch.block_x, inv.launch.block_y,
                         inv.launch.block_z),
                  std::to_string(inv.behavior.instructions)});
  }
  csv.Flush();
}

}  // namespace stemroot
