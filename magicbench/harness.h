#ifndef MAGICBENCH_HARNESS_H_
#define MAGICBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace magicbench {

/// One invocation of the benchmark: a workload, its seed, how long to
/// measure, and whether this is the traced run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: one untraced phase of `seconds`, reporting the end-to-end
  /// metrics. true: an untraced and a traced phase of `seconds / 2` each,
  /// reporting the per-layer metrics and the tracing overhead.
  bool trace = false;
  /// Where the run report and the span file are written.
  std::string out_dir;
  /// Parent directory of this run's spill area (analytic_spill).
  std::string spill_dir;
  /// Provenance fields supplied by the caller (git sha, dirty flag, source
  /// digest); the binary adds build type, compiler, nproc and CPU model.
  std::vector<std::pair<std::string, std::string>> stamp;
};

/// Runs one workload end to end: set-up, reference answers, the closed
/// loop, the correctness gate and the report. Prints the result line last
/// on stdout and returns the process exit code. Refuses (exit code 3) to
/// time a build that is not Release.
int RunBenchmark(const RunOptions& options);

}  // namespace magicbench

#endif  // MAGICBENCH_HARNESS_H_
