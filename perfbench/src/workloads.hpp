// The benchmark's workloads. Each returns the metrics of one run: the
// end-to-end metrics when options.trace is off, the per-layer metrics of
// the traced run when it is on.
#pragma once

#include "common.hpp"

namespace perfbench {

RunResult run_batch_paper(const RunOptions& options);
RunResult run_batch_deep(const RunOptions& options);
RunResult run_serve_mixed(const RunOptions& options);

}  // namespace perfbench
