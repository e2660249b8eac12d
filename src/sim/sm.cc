#include "sim/sm.h"

#include <algorithm>
#include <queue>

namespace stemroot::sim {

void SmStats::Merge(const SmStats& other) {
  warp_instructions += other.warp_instructions;
  l1_hits += other.l1_hits;
  l1_misses += other.l1_misses;
  l2_hits += other.l2_hits;
  l2_misses += other.l2_misses;
  dram_bytes += other.dram_bytes;
}

SmModel::SmModel(const SimConfig& config, Cache* l2, DramModel* dram)
    : config_(config),
      l1_(config.l1_bytes, config.l1_assoc, config.line_bytes),
      l2_(l2), dram_(dram) {
  config.Validate();
}

void SmModel::ResetL1() { l1_.Flush(); }

double SmModel::ExecuteWave(std::vector<WarpContext>& warps,
                            double start_cycle,
                            const PeerWarming& peer_warming,
                            SmStats* stats) {
  struct HeapEntry {
    double ready;
    uint32_t warp;
    bool operator>(const HeapEntry& other) const {
      return ready > other.ready;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>> heap;
  for (uint32_t w = 0; w < warps.size(); ++w) {
    warps[w].ready = start_cycle;
    warps[w].result_ready = start_cycle;
    warps[w].done = false;
    heap.push({start_cycle, w});
  }

  const double issue_interval = 1.0 / config_.issue_width;
  double issue_free = start_cycle;
  double finish = start_cycle;
  WarpInstr instr;

  while (!heap.empty()) {
    const HeapEntry entry = heap.top();
    heap.pop();
    WarpContext& warp = warps[entry.warp];
    if (warp.done) continue;

    if (!warp.program.Next(instr)) {
      warp.done = true;
      finish = std::max(finish, warp.ready);
      continue;
    }
    if (stats) ++stats->warp_instructions;

    // Issue: wait for the warp's own readiness, for the previous result if
    // dependent, and for an issue slot.
    double t = std::max(entry.ready, issue_free);
    if (instr.depends_on_prev) t = std::max(t, warp.result_ready);
    issue_free = t + issue_interval;

    double result_at = t;
    switch (instr.kind) {
      case OpKind::kAlu:
        result_at = t + config_.alu_latency;
        break;
      case OpKind::kFp32:
        result_at = t + config_.fp32_latency;
        break;
      case OpKind::kFp16:
        result_at = t + config_.fp16_latency;
        break;
      case OpKind::kSfu:
        result_at = t + config_.sfu_latency;
        break;
      case OpKind::kSharedMem:
        result_at = t + config_.shmem_latency;
        break;
      case OpKind::kBranch:
        // Divergent branches serialize both paths at the issue stage;
        // modelled as an extra issue bubble.
        result_at = t + config_.alu_latency;
        issue_free += issue_interval;
        break;
      case OpKind::kLoad:
      case OpKind::kStore: {
        double data_at = t;
        for (uint64_t line : instr.lines) {
          double line_at;
          if (l1_.Access(line)) {
            if (stats) ++stats->l1_hits;
            line_at = t + config_.l1_latency;
          } else {
            if (stats) ++stats->l1_misses;
            if (l2_->Access(line)) {
              if (stats) ++stats->l2_hits;
              line_at = t + config_.l1_latency + config_.l2_latency;
            } else {
              if (stats) {
                ++stats->l2_misses;
                stats->dram_bytes += config_.line_bytes;
              }
              line_at = dram_->Request(t + config_.l1_latency +
                                           config_.l2_latency,
                                       config_.line_bytes);
              // Peer SMs are missing sibling lines of the same region
              // concurrently: insert them so the shared L2's content
              // evolves at machine rate (timing unaffected -- peer DRAM
              // traffic is already modelled by the per-SM bandwidth
              // share).
              if (peer_warming.peers > 0 &&
                  line >= peer_warming.region_base) {
                const uint64_t line_index =
                    (line - peer_warming.region_base) / config_.line_bytes;
                for (uint32_t peer = 1; peer <= peer_warming.peers;
                     ++peer) {
                  const uint64_t sibling =
                      (line_index + static_cast<uint64_t>(peer) * 2654435761ULL) %
                      peer_warming.footprint_lines;
                  (void)l2_->Access(peer_warming.region_base +
                                    sibling * config_.line_bytes);
                }
              }
            }
          }
          data_at = std::max(data_at, line_at);
        }
        // Stores retire through the write buffer: the warp does not wait.
        result_at = instr.kind == OpKind::kLoad ? data_at : t + 1.0;
        break;
      }
    }

    // Pipelined issue: the warp may issue its next (independent)
    // instruction one issue slot later; dependent consumers wait for
    // result_ready.
    warp.ready = t + 1.0;
    warp.result_ready = result_at;
    finish = std::max(finish, result_at);
    heap.push({warp.ready, entry.warp});
  }
  return finish;
}

}  // namespace stemroot::sim
