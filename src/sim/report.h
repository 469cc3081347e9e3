#ifndef SEVE_SIM_REPORT_H_
#define SEVE_SIM_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "shard/shard_stats.h"
#include "sim/consistency.h"
#include "sim/scenario.h"
#include "wire/audit.h"

namespace seve {

/// Everything measured in one run — the raw material for every table and
/// figure of Section V.
struct RunReport {
  Architecture architecture = Architecture::kSeve;
  int num_clients = 0;

  /// Response time observed by clients (submit -> stable result).
  Histogram response_us;
  /// Aggregated client-side protocol counters.
  ProtocolStats client_stats;
  /// Server-side protocol counters (drops, closure sizes, ...).
  ProtocolStats server_stats;

  /// Traffic through the server node and through the whole network.
  TrafficStats server_traffic;
  TrafficStats total_traffic;
  /// Average (sent+received) kilobytes per client over the run — the
  /// Figure 9 metric.
  double per_client_kb = 0.0;

  /// Average number of other avatars visible to an avatar (sampled) —
  /// the Figure 8 x-axis.
  double avg_visible_avatars = 0.0;

  /// Fraction of submitted moves dropped by the Information Bound Model —
  /// the Table II metric.
  double drop_rate = 0.0;

  ConsistencyReport consistency;

  /// kSeveSharded: per-shard commit-protocol counters (shard order);
  /// empty for every other architecture.
  std::vector<ShardCounters> shard_counters;

  /// kSeveSharded: load-imbalance series, one sample per rebalance
  /// window — max/mean of the per-shard queue-depth peaks in that
  /// window (all-zero windows are skipped). First sample ≈ the static
  /// partition's imbalance, last ≈ post-rebalancing.
  std::vector<double> shard_imbalance_windows;
  double load_imbalance_first = 0.0;
  double load_imbalance_last = 0.0;
  /// Total handoffs the rebalancer planned (scheduled MigrationEvents
  /// are not counted; see shard_counters migrations_out for executed).
  int64_t migration_moves_planned = 0;

  /// Final stable-state digest of every client replica (client order) and
  /// of the authoritative/observer state — the chaos-matrix convergence
  /// check: under loss with the reliable channel these must match the
  /// lossless run bit for bit.
  std::vector<uint64_t> client_state_digests;
  uint64_t final_state_digest = 0;

  /// Declared-vs-encoded byte accounting (empty unless the scenario ran
  /// with WireMode::kEncoded or kVerify).
  wire::WireAudit wire_audit;
  /// kVerify round-trip mismatches (0 means every frame round-tripped).
  int64_t wire_verify_failures = 0;

  /// Virtual time when the run quiesced.
  VirtualTime end_time = 0;
  /// Wall-time events executed (simulator load indicator).
  size_t events_run = 0;

  /// Host work of move pricing: wall counts answered from the world's
  /// memo, and wall counts computed (one per distinct query). Host-side
  /// only, so DigestReport leaves them out.
  int64_t wall_memo_hits = 0;
  int64_t wall_memo_misses = 0;

  double MeanResponseMs() const {
    return response_us.Mean() / static_cast<double>(kMicrosPerMilli);
  }
  double P95ResponseMs() const {
    return static_cast<double>(response_us.P95()) /
           static_cast<double>(kMicrosPerMilli);
  }

  /// Multi-line human-readable summary.
  std::string Summary() const;
};

}  // namespace seve

#endif  // SEVE_SIM_REPORT_H_
