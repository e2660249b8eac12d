/// \file
/// Warp execution context: a WarpProgram plus its scheduling state inside
/// an SM.

#pragma once

#include "sim/itrace.h"

namespace stemroot::sim {

/// One resident warp, held by value: the simulator keeps one vector of
/// these per kernel and restarts its programs wave after wave.
struct WarpContext {
  WarpProgram program;
  /// Cycle at which this warp may issue its next instruction.
  double ready = 0.0;
  /// Cycle at which the previous instruction's result is available
  /// (dependent instructions must wait for this instead).
  double result_ready = 0.0;
  bool done = false;
};

}  // namespace stemroot::sim
