#include "sim/report.h"

#include <cstdio>

namespace seve {

std::string RunReport::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%s clients=%d\n"
      "  response_ms: mean=%.1f p50=%.1f p95=%.1f max=%.1f (n=%lld)\n"
      "  drops=%.2f%% visible_avatars=%.2f per_client_kb=%.1f\n"
      "  server: submitted=%lld committed=%lld closure_visits=%lld\n"
      "  consistency: %s\n"
      "  end_time=%.1fs events=%zu",
      ArchitectureName(architecture), num_clients, MeanResponseMs(),
      static_cast<double>(response_us.Median()) / 1000.0, P95ResponseMs(),
      static_cast<double>(response_us.max()) / 1000.0,
      static_cast<long long>(response_us.count()), drop_rate * 100.0,
      avg_visible_avatars, per_client_kb,
      static_cast<long long>(server_stats.actions_submitted),
      static_cast<long long>(server_stats.actions_committed),
      static_cast<long long>(server_stats.closure_visits),
      consistency.ToString().c_str(),
      static_cast<double>(end_time) / 1e6, events_run);
  std::string out = buf;
  const ChannelStats& client_ch = client_stats.channel;
  const ChannelStats& server_ch = server_stats.channel;
  if (client_ch.data_frames + server_ch.data_frames != 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n  channel: retransmits=%lld dup_drops=%lld "
                  "rtx_timeouts=%lld acks=%lld ack_kb=%.1f rejoins=%lld",
                  static_cast<long long>(client_ch.retransmits +
                                         server_ch.retransmits),
                  static_cast<long long>(client_ch.dup_drops +
                                         server_ch.dup_drops),
                  static_cast<long long>(client_ch.rtx_timeouts +
                                         server_ch.rtx_timeouts),
                  static_cast<long long>(client_ch.acks_sent +
                                         server_ch.acks_sent),
                  static_cast<double>(client_ch.ack_bytes +
                                      server_ch.ack_bytes) /
                      1024.0,
                  static_cast<long long>(client_stats.rejoins));
    out += buf;
  }
  const FanoutCounters& fan = server_stats.fanout;
  if (fan.push_batches != 0 || fan.superseded_moves != 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n  fanout: batches=%lld coalesced=%lld superseded=%lld "
                  "dirty_flushed=%lld cycles=%lld ratio=%.3f "
                  "route_alloc=%lld",
                  static_cast<long long>(fan.push_batches),
                  static_cast<long long>(fan.coalesced_pushes),
                  static_cast<long long>(fan.superseded_moves),
                  static_cast<long long>(fan.dirty_slots_flushed),
                  static_cast<long long>(fan.flush_cycles),
                  fan.DirtyScanRatio(num_clients),
                  static_cast<long long>(fan.route_alloc));
    out += buf;
  }
  SyncCounters sync = server_stats.sync;  // retries/repairs are client-side
  sync.Merge(client_stats.sync);
  if (sync.sync_rounds != 0 || sync.nacks != 0 ||
      sync.snapshot_retries != 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n  sync: rounds=%lld delta_rejoins=%lld fallbacks=%lld "
                  "shipped=%lld removed=%lld delta_kb=%.1f full_kb=%.1f "
                  "ae=%lld repaired=%lld owner_repairs=%lld nacks=%lld "
                  "retries=%lld",
                  static_cast<long long>(sync.sync_rounds),
                  static_cast<long long>(sync.delta_rejoins),
                  static_cast<long long>(sync.fallbacks),
                  static_cast<long long>(sync.objects_shipped),
                  static_cast<long long>(sync.objects_removed),
                  static_cast<double>(sync.delta_bytes) / 1024.0,
                  static_cast<double>(sync.full_bytes_estimate) / 1024.0,
                  static_cast<long long>(sync.ae_rounds),
                  static_cast<long long>(sync.ae_objects_repaired),
                  static_cast<long long>(sync.owner_repairs),
                  static_cast<long long>(sync.nacks),
                  static_cast<long long>(sync.snapshot_retries));
    out += buf;
  }
  if (!shard_counters.empty()) {
    ShardCounters total;
    for (const ShardCounters& s : shard_counters) total.Merge(s);
    std::snprintf(buf, sizeof(buf),
                  "\n  shards: n=%zu fast_path=%lld escalated=%lld "
                  "(%.1f%% fast) tokens=%lld commits=%lld aborts=%lld "
                  "stale=%lld",
                  shard_counters.size(),
                  static_cast<long long>(total.fast_path),
                  static_cast<long long>(total.escalated),
                  total.FastPathFraction() * 100.0,
                  static_cast<long long>(total.tokens_served),
                  static_cast<long long>(total.commits),
                  static_cast<long long>(total.aborts),
                  static_cast<long long>(total.stale_tokens));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\n  shard load: submits=%lld queue_peak=%lld "
                  "imbalance=%.2f->%.2f (windows=%zu)",
                  static_cast<long long>(total.submits),
                  static_cast<long long>(total.queue_depth_peak),
                  load_imbalance_first, load_imbalance_last,
                  shard_imbalance_windows.size());
    out += buf;
    if (total.migrations_out + total.migrations_in +
            total.migration_aborts + total.migrations_pending !=
        0) {
      std::snprintf(
          buf, sizeof(buf),
          "\n  migration: planned=%lld out=%lld in=%lld aborts=%lld "
          "rehomed=%lld pending=%lld pushes=%lld",
          static_cast<long long>(migration_moves_planned),
          static_cast<long long>(total.migrations_out),
          static_cast<long long>(total.migrations_in),
          static_cast<long long>(total.migration_aborts),
          static_cast<long long>(total.rehomed_clients),
          static_cast<long long>(total.migrations_pending),
          static_cast<long long>(total.escalated_pushes));
      out += buf;
    }
  }
  const int64_t wall_queries = wall_memo_hits + wall_memo_misses;
  if (wall_queries != 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n  wall_memo: hits=%lld misses=%lld (%.1f%% hit)",
                  static_cast<long long>(wall_memo_hits),
                  static_cast<long long>(wall_memo_misses),
                  100.0 * static_cast<double>(wall_memo_hits) /
                      static_cast<double>(wall_queries));
    out += buf;
  }
  if (!wire_audit.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "\n  wire: verify_failures=%lld unencodable=%lld "
                  "declared=%lldB encoded=%lldB",
                  static_cast<long long>(wire_verify_failures),
                  static_cast<long long>(wire_audit.TotalUnencodable()),
                  static_cast<long long>(wire_audit.TotalDeclaredBytes()),
                  static_cast<long long>(wire_audit.TotalEncodedBytes()));
    out += buf;
  }
  return out;
}

}  // namespace seve
