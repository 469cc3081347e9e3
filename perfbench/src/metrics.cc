#include "perfbench/src/metrics.h"

#include <algorithm>

#include "common/types.h"
#include "shard/shard_stats.h"

namespace perfbench {
namespace {

constexpr int kSubBucketBits = 4;
constexpr int64_t kSubBuckets = int64_t{1} << kSubBucketBits;

std::string Violation(const char* what, int64_t lhs, int64_t rhs) {
  return std::string(what) + " (" + std::to_string(lhs) + " vs " +
         std::to_string(rhs) + ")";
}

}  // namespace

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

BucketRange HistogramBucket(size_t index) {
  const size_t exponent = index >> kSubBucketBits;
  const int64_t sub = static_cast<int64_t>(index) & (kSubBuckets - 1);
  if (exponent == 0) return BucketRange{sub, sub};
  const int64_t base = int64_t{1} << exponent;
  const int64_t width = base / kSubBuckets;
  return BucketRange{base + sub * width, base + (sub + 1) * width - 1};
}

bool HistogramLayoutMatches() {
  for (const int64_t v : {int64_t{0}, int64_t{7}, int64_t{15}, int64_t{16},
                          int64_t{17}, int64_t{31}, int64_t{1000},
                          int64_t{123457}, int64_t{9'999'999}}) {
    seve::Histogram h;
    h.Add(v);
    const std::vector<int64_t>& buckets = h.buckets();
    const auto it = std::find(buckets.begin(), buckets.end(), 1);
    if (it == buckets.end()) return false;
    const BucketRange r =
        HistogramBucket(static_cast<size_t>(it - buckets.begin()));
    if (v < r.lo || v > r.hi) return false;
  }
  return true;
}

double InterpolatedPercentile(const seve::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(h.count());
  const std::vector<int64_t>& buckets = h.buckets();
  double seen = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double n = static_cast<double>(buckets[i]);
    if (seen + n >= rank) {
      const BucketRange r = HistogramBucket(i);
      const double within = std::clamp((rank - seen) / n, 0.0, 1.0);
      const double v = static_cast<double>(r.lo) +
                       within * static_cast<double>(r.hi - r.lo);
      return std::clamp(v, static_cast<double>(h.min()),
                        static_cast<double>(h.max()));
    }
    seen += n;
  }
  return static_cast<double>(h.max());
}

SimMetrics ExtractSim(const seve::RunReport& report, int64_t submitted) {
  SimMetrics m;
  const double ms = static_cast<double>(seve::kMicrosPerMilli);
  const double moves = static_cast<double>(submitted);
  m.submitted = submitted;
  m.answered = report.response_us.count();
  m.response_p50_ms = InterpolatedPercentile(report.response_us, 0.50) / ms;
  m.response_p99_ms = InterpolatedPercentile(report.response_us, 0.99) / ms;
  m.kb_per_move =
      Ratio(static_cast<double>(report.total_traffic.sent.bytes) / 1024.0,
            moves);
  m.answered_frac = Ratio(static_cast<double>(m.answered), moves);
  // Nothing compared means nothing disagreed.
  m.audit_agree_frac =
      1.0 - Ratio(static_cast<double>(report.consistency.mismatches),
                  static_cast<double>(report.consistency.compared));
  return m;
}

void PoolInto(seve::RunReport* pool, const seve::RunReport& report) {
  pool->response_us.Merge(report.response_us);
  pool->total_traffic.Merge(report.total_traffic);
  pool->consistency.compared += report.consistency.compared;
  pool->consistency.mismatches += report.consistency.mismatches;
}

std::vector<Metric> LayerCounts(const seve::RunReport& report,
                                int64_t submitted,
                                const seve::ObjectSetCounters& store_delta) {
  const double moves = static_cast<double>(submitted);
  auto per_move = [moves](int64_t n) {
    return Ratio(static_cast<double>(n), moves);
  };
  auto frac = [](int64_t a, int64_t b) {
    return Ratio(static_cast<double>(a), static_cast<double>(b));
  };
  const seve::ProtocolStats& srv = report.server_stats;
  const seve::FanoutCounters& fan = srv.fanout;
  seve::ShardCounters shards;
  for (const seve::ShardCounters& c : report.shard_counters) shards.Merge(c);
  seve::ChannelStats channel = report.client_stats.channel;
  channel.Merge(srv.channel);
  seve::SyncCounters sync = report.client_stats.sync;
  sync.Merge(srv.sync);
  const auto intersects = static_cast<int64_t>(store_delta.intersect_calls);
  const auto sig_rejects = static_cast<int64_t>(store_delta.sig_rejects);

  return {
      {"protocol.evals_per_move",
       per_move(report.client_stats.actions_evaluated)},
      {"protocol.closure_visits_per_move", per_move(srv.closure_visits)},
      {"store.intersect_calls_per_move", per_move(intersects)},
      {"store.sig_reject_frac", frac(sig_rejects, intersects)},
      {"protocol.push_batches_per_move", per_move(fan.push_batches)},
      {"protocol.coalesced_frac",
       frac(fan.coalesced_pushes, fan.push_batches + fan.coalesced_pushes)},
      {"protocol.dirty_scan_ratio", fan.DirtyScanRatio(report.num_clients)},
      {"protocol.drop_frac", srv.DropRate()},
      {"protocol.rejoins", static_cast<double>(report.client_stats.rejoins)},
      {"shard.migrations_out", static_cast<double>(shards.migrations_out)},
      {"shard.fast_path_frac",
       frac(shards.fast_path, shards.fast_path + shards.escalated)},
      {"shard.imbalance_last", report.load_imbalance_last},
      {"shard.queue_depth_peak", static_cast<double>(shards.queue_depth_peak)},
      {"net.events_per_move",
       per_move(static_cast<int64_t>(report.events_run))},
      {"net.msgs_per_move", per_move(report.total_traffic.sent.messages)},
      {"net.channel.retransmits_per_move", per_move(channel.retransmits)},
      {"net.channel.dup_frac", frac(channel.dup_drops, channel.retransmits)},
      {"net.channel.abandoned", static_cast<double>(channel.rtx_abandoned)},
      {"wire.encoded_kb_per_move",
       Ratio(static_cast<double>(report.wire_audit.TotalEncodedBytes()) /
                 1024.0,
             moves)},
      {"wire.unencodable",
       static_cast<double>(report.wire_audit.TotalUnencodable())},
      {"sync.snapshot_chunks", static_cast<double>(srv.snapshot_chunks)},
      {"sync.delta_kb", static_cast<double>(sync.delta_bytes) / 1024.0},
      {"sync.fallbacks", static_cast<double>(sync.fallbacks)},
  };
}

std::vector<std::string> CheckInvariants(const seve::RunReport& report,
                                         int64_t submitted) {
  std::vector<std::string> violations;
  const int64_t answered = report.response_us.count();
  if (answered > submitted) {
    violations.push_back(
        Violation("answered exceeds submitted", answered, submitted));
  }
  if (!report.shard_counters.empty()) {
    seve::ShardCounters c;
    for (const seve::ShardCounters& s : report.shard_counters) c.Merge(s);
    if (c.migrations_pending != 0) {
      violations.push_back(
          Violation("handoffs left pending", c.migrations_pending, 0));
    }
    if (c.aborts != 0) {
      violations.push_back(Violation("escalations aborted", c.aborts, 0));
    }
    if (c.escalated != c.commits + c.aborts) {
      violations.push_back(Violation("escalated != commits + aborts",
                                     c.escalated, c.commits + c.aborts));
    }
  }
  const int64_t unencodable = report.wire_audit.TotalUnencodable();
  if (unencodable != 0) {
    violations.push_back(Violation("unencodable frames", unencodable, 0));
  }
  return violations;
}

uint64_t FoldDigests(const std::vector<uint64_t>& digests) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint64_t d : digests) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (d >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace perfbench
