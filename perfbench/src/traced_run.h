#ifndef PERFBENCH_SRC_TRACED_RUN_H_
#define PERFBENCH_SRC_TRACED_RUN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "perfbench/src/metrics.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

/// What one traced run leaves behind: the parity fields the untraced
/// report also has, the span totals, and the simulated server load.
struct TracedRun {
  uint64_t final_state_digest = 0;
  uint64_t client_digests = 0;  // FoldDigests of per-client stable digests
  int64_t events_run = 0;
  int64_t submitted = 0;
  double wall_s = 0.0;  // the whole traced call, set-up and collection too
  /// Max over server nodes of simulated CPU busy time / run end time.
  double server_busy_frac = 0.0;
  std::array<Tracer::Totals, kSpanNames> totals{};
};

/// True for the architectures RunTraced can drive (kSeve, kSeveSharded,
/// with no scheduled migrations).
bool CanTrace(const Workload& workload);

/// Runs `workload` through the layers' public classes with a span around
/// every call into a layer and every callback a layer makes into this
/// code. Mirrors RunScenario's assembly step for step, so the run must end
/// in the same digests and event count as Engine::Run. Requires
/// CanTrace(workload).
TracedRun RunTraced(const Workload& workload, Tracer* tracer);

/// The traced per-layer rows: self µs per submitted move for the run-time
/// layers (they add up to the RunUntil + stop + RunUntilIdle wall time),
/// milliseconds for the set-up phases, and protocol.server_busy_frac.
std::vector<Metric> LayerTimes(const TracedRun& run);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_RUN_H_
