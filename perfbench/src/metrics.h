#ifndef PERFBENCH_SRC_METRICS_H_
#define PERFBENCH_SRC_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "sim/report.h"
#include "store/rw_set.h"

namespace perfbench {

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

/// Quantile q of `h`, interpolated linearly by rank inside the bucket that
/// holds it and clamped to the exact min/max. Histogram::Percentile returns
/// the bucket's upper bound, which is ~6% coarse and identical for nearby
/// distributions; interpolation keeps the figure continuous.
double InterpolatedPercentile(const seve::Histogram& h, double q);

/// Inclusive value range of histogram bucket `index`. Mirrors the layout in
/// common/histogram.cc; HistogramLayoutMatches() checks that it still does.
struct BucketRange {
  int64_t lo = 0;
  int64_t hi = 0;
};
BucketRange HistogramBucket(size_t index);
bool HistogramLayoutMatches();

/// The simulated end-to-end metrics of one run. They repeat exactly for a
/// given workload and seed.
struct SimMetrics {
  int64_t submitted = 0;  // moves the generator submitted
  int64_t answered = 0;   // moves that reached a stable result
  double response_p50_ms = 0.0;
  double response_p99_ms = 0.0;
  double kb_per_move = 0.0;       // bytes sent on all links / submitted
  double answered_frac = 0.0;     // answered / submitted
  double audit_agree_frac = 1.0;  // 1 - mismatches / compared
};
SimMetrics ExtractSim(const seve::RunReport& report, int64_t submitted);

/// Adds the fields ExtractSim reads (response histogram, bytes sent,
/// audit counts) of `report` into `pool`, so that ExtractSim over the pool
/// gives the metrics of several instances taken together.
void PoolInto(seve::RunReport* pool, const seve::RunReport& report);

/// A named per-layer figure.
struct Metric {
  std::string name;
  double value = 0.0;
};

/// Deterministic per-layer counts of one run, most per submitted move.
/// `store_delta` is the change in the calling thread's ObjectSet kernel
/// counters across the run.
std::vector<Metric> LayerCounts(const seve::RunReport& report,
                                int64_t submitted,
                                const seve::ObjectSetCounters& store_delta);

/// Invariants every benchmark run must satisfy. Returns one line per
/// violation; empty when the run is sound.
///   - every run: answered <= submitted;
///   - sharded tier: no handoff left pending, no escalation aborted, and
///     every escalation resolved (escalated == commits + aborts);
///   - encoded wire mode: every frame had a codec (unencodable == 0).
std::vector<std::string> CheckInvariants(const seve::RunReport& report,
                                         int64_t submitted);

/// FNV-1a fold of the per-client stable-state digests.
uint64_t FoldDigests(const std::vector<uint64_t>& digests);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_METRICS_H_
