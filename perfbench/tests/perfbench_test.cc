// Tests of the benchmark's own code: metric extraction, invariant checks,
// the span recorder, and traced-run parity with Engine::Run on a shrunken
// copy of every workload. Build and run with
// `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/engine.h"
#include "perfbench/src/metrics.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/traced_run.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

double Value(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return NAN;
}

// A report whose fields are set by hand: 8 moves submitted, 4 answered.
seve::RunReport HandBuiltReport() {
  seve::RunReport r;
  r.num_clients = 2;
  for (const int64_t ms : {100, 200, 300, 400}) r.response_us.Add(ms * 1000);
  r.total_traffic.sent.bytes = 8 * 1024;
  r.total_traffic.sent.messages = 24;
  r.consistency.compared = 200;
  r.consistency.mismatches = 2;
  r.events_run = 80;
  r.client_stats.actions_evaluated = 12;
  r.client_stats.rejoins = 3;
  r.client_stats.channel.retransmits = 4;
  r.client_stats.channel.dup_drops = 1;
  r.server_stats.actions_submitted = 8;
  r.server_stats.actions_dropped = 2;
  r.server_stats.closure_visits = 16;
  r.server_stats.snapshot_chunks = 5;
  r.server_stats.fanout.push_batches = 5;
  r.server_stats.fanout.coalesced_pushes = 15;
  r.server_stats.sync.delta_bytes = 2048;
  r.wire_audit.RecordEncoded(1, 100, 4096);
  return r;
}

TEST(SimMetricsTest, ArithmeticOnHandBuiltReport) {
  const SimMetrics m = ExtractSim(HandBuiltReport(), 8);
  EXPECT_EQ(m.submitted, 8);
  EXPECT_EQ(m.answered, 4);
  EXPECT_DOUBLE_EQ(m.answered_frac, 0.5);
  EXPECT_DOUBLE_EQ(m.kb_per_move, 1.0);
  EXPECT_DOUBLE_EQ(m.audit_agree_frac, 0.99);
  EXPECT_GE(m.response_p50_ms, 100.0);
  EXPECT_LE(m.response_p50_ms, 210.0);
  EXPECT_LE(m.response_p99_ms, 400.0);
  EXPECT_GT(m.response_p99_ms, m.response_p50_ms);
}

TEST(SimMetricsTest, ZeroDenominators) {
  const SimMetrics m = ExtractSim(seve::RunReport{}, 0);
  EXPECT_EQ(m.answered, 0);
  EXPECT_EQ(m.answered_frac, 0.0);
  EXPECT_EQ(m.kb_per_move, 0.0);
  EXPECT_EQ(m.response_p50_ms, 0.0);
  EXPECT_EQ(m.response_p99_ms, 0.0);
  // Nothing compared: nothing disagreed.
  EXPECT_EQ(m.audit_agree_frac, 1.0);
  for (const Metric& c :
       LayerCounts(seve::RunReport{}, 0, seve::ObjectSetCounters{})) {
    EXPECT_TRUE(std::isfinite(c.value)) << c.name;
    EXPECT_EQ(c.value, 0.0) << c.name;
  }
}

TEST(SimMetricsTest, PoolingMatchesOneMergedReport) {
  const seve::RunReport a = HandBuiltReport();
  seve::RunReport b = HandBuiltReport();
  b.response_us.Add(900 * 1000);
  b.consistency.mismatches = 0;
  seve::RunReport pool;
  PoolInto(&pool, a);
  PoolInto(&pool, b);
  const SimMetrics m = ExtractSim(pool, 16);
  EXPECT_EQ(m.answered, 9);
  EXPECT_DOUBLE_EQ(m.answered_frac, 9.0 / 16.0);
  EXPECT_DOUBLE_EQ(m.kb_per_move, 1.0);
  EXPECT_DOUBLE_EQ(m.audit_agree_frac, 1.0 - 2.0 / 400.0);
}

TEST(PercentileTest, HistogramLayoutStillMatches) {
  EXPECT_TRUE(HistogramLayoutMatches());
}

TEST(PercentileTest, ExactOnSingleValueBuckets) {
  seve::Histogram h;
  for (int64_t v = 1; v <= 10; ++v) h.Add(v);
  EXPECT_DOUBLE_EQ(InterpolatedPercentile(h, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(InterpolatedPercentile(h, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(InterpolatedPercentile(h, 0.0), 1.0);
  EXPECT_EQ(InterpolatedPercentile(seve::Histogram{}, 0.5), 0.0);
}

TEST(PercentileTest, SeparatesDistributionsSharingABucket) {
  // 900 and 1000 sit in different buckets; the 55th percentile falls in
  // 1000's bucket for both histograms, at a different rank within it.
  seve::Histogram a;
  seve::Histogram b;
  for (int i = 0; i < 40; ++i) a.Add(900);
  for (int i = 0; i < 60; ++i) a.Add(1000);
  for (int i = 0; i < 50; ++i) b.Add(900);
  for (int i = 0; i < 50; ++i) b.Add(1000);
  EXPECT_EQ(a.Percentile(0.55), b.Percentile(0.55));
  EXPECT_GT(InterpolatedPercentile(a, 0.55), InterpolatedPercentile(b, 0.55));
  EXPECT_GE(InterpolatedPercentile(b, 0.55), 900.0);
  EXPECT_LE(InterpolatedPercentile(a, 0.55), 1000.0);
}

TEST(LayerCountsTest, ArithmeticOnHandBuiltReport) {
  seve::RunReport r = HandBuiltReport();
  seve::ShardCounters shard;
  shard.fast_path = 9;
  shard.escalated = 1;
  shard.commits = 1;
  shard.migrations_out = 7;
  shard.queue_depth_peak = 30;
  r.shard_counters = {shard, shard};
  r.load_imbalance_last = 1.25;
  seve::ObjectSetCounters store;
  store.intersect_calls = 40;
  store.sig_rejects = 10;
  const std::vector<Metric> c = LayerCounts(r, 8, store);
  EXPECT_DOUBLE_EQ(Value(c, "protocol.evals_per_move"), 1.5);
  EXPECT_DOUBLE_EQ(Value(c, "protocol.closure_visits_per_move"), 2.0);
  EXPECT_DOUBLE_EQ(Value(c, "store.intersect_calls_per_move"), 5.0);
  EXPECT_DOUBLE_EQ(Value(c, "store.sig_reject_frac"), 0.25);
  EXPECT_DOUBLE_EQ(Value(c, "protocol.coalesced_frac"), 0.75);
  EXPECT_DOUBLE_EQ(Value(c, "protocol.drop_frac"), 0.25);
  EXPECT_DOUBLE_EQ(Value(c, "protocol.rejoins"), 3.0);
  EXPECT_DOUBLE_EQ(Value(c, "shard.migrations_out"), 14.0);
  EXPECT_DOUBLE_EQ(Value(c, "shard.fast_path_frac"), 0.9);
  EXPECT_DOUBLE_EQ(Value(c, "shard.imbalance_last"), 1.25);
  EXPECT_DOUBLE_EQ(Value(c, "shard.queue_depth_peak"), 30.0);
  EXPECT_DOUBLE_EQ(Value(c, "net.events_per_move"), 10.0);
  EXPECT_DOUBLE_EQ(Value(c, "net.msgs_per_move"), 3.0);
  EXPECT_DOUBLE_EQ(Value(c, "net.channel.retransmits_per_move"), 0.5);
  EXPECT_DOUBLE_EQ(Value(c, "net.channel.dup_frac"), 0.25);
  EXPECT_DOUBLE_EQ(Value(c, "wire.encoded_kb_per_move"), 0.5);
  EXPECT_DOUBLE_EQ(Value(c, "sync.snapshot_chunks"), 5.0);
  EXPECT_DOUBLE_EQ(Value(c, "sync.delta_kb"), 2.0);
}

TEST(InvariantsTest, CleanReportPasses) {
  EXPECT_TRUE(CheckInvariants(HandBuiltReport(), 8).empty());
}

TEST(InvariantsTest, AnsweredBeyondSubmittedFires) {
  EXPECT_EQ(CheckInvariants(HandBuiltReport(), 3).size(), 1u);
}

TEST(InvariantsTest, EachShardInvariantFires) {
  seve::ShardCounters clean;
  clean.escalated = 3;
  clean.commits = 3;
  seve::RunReport r = HandBuiltReport();
  r.shard_counters = {clean};
  EXPECT_TRUE(CheckInvariants(r, 8).empty());

  seve::ShardCounters pending = clean;
  pending.migrations_pending = 1;
  r.shard_counters = {clean, pending};
  EXPECT_EQ(CheckInvariants(r, 8).size(), 1u);

  seve::ShardCounters aborted = clean;
  aborted.escalated = 4;
  aborted.aborts = 1;
  r.shard_counters = {aborted};
  EXPECT_EQ(CheckInvariants(r, 8).size(), 1u);

  seve::ShardCounters unresolved = clean;
  unresolved.escalated = 4;
  r.shard_counters = {unresolved};
  EXPECT_EQ(CheckInvariants(r, 8).size(), 1u);
}

TEST(InvariantsTest, UnencodableFrameFires) {
  seve::RunReport r = HandBuiltReport();
  r.wire_audit.RecordUnencodable(7);
  EXPECT_EQ(CheckInvariants(r, 8).size(), 1u);
}

TEST(TracerTest, SelfTimeExcludesChildren) {
  Tracer tracer;
  const uint32_t outer = tracer.Begin(SpanName::kRunUntil);
  {
    SpanScope inner(&tracer, SpanName::kClientMessage);
    SpanScope leaf(&tracer, SpanName::kWorldCost);
  }
  { SpanScope inner(&tracer, SpanName::kClientMessage); }
  tracer.End(outer);
  ASSERT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.spans()[0].parent, Tracer::kNoParent);
  EXPECT_EQ(tracer.spans()[1].parent, 0u);
  EXPECT_EQ(tracer.spans()[2].parent, 1u);
  EXPECT_EQ(tracer.spans()[3].parent, 0u);
  const auto totals = tracer.Aggregate();
  const auto& loop = totals[static_cast<size_t>(SpanName::kRunUntil)];
  const auto& client = totals[static_cast<size_t>(SpanName::kClientMessage)];
  const auto& cost = totals[static_cast<size_t>(SpanName::kWorldCost)];
  EXPECT_EQ(loop.calls, 1);
  EXPECT_EQ(client.calls, 2);
  EXPECT_EQ(loop.self_ns, loop.total_ns - client.total_ns);
  EXPECT_EQ(client.self_ns, client.total_ns - cost.total_ns);
  EXPECT_EQ(cost.self_ns, cost.total_ns);
}

TEST(WorkloadsTest, FourNamedWorkloads) {
  for (const std::string& name : WorkloadNames()) {
    const auto w = MakeWorkload(name, 1);
    ASSERT_TRUE(w.has_value()) << name;
    EXPECT_TRUE(seve::Engine::Validate(w->scenario).ok()) << name;
    EXPECT_TRUE(CanTrace(*w)) << name;
  }
  EXPECT_FALSE(MakeWorkload("nope", 1).has_value());
  EXPECT_EQ(InstanceSeed(9, 0), 9u);
  EXPECT_NE(InstanceSeed(9, 1), InstanceSeed(10, 1));
}

// The traced program must reproduce Engine::Run exactly: same final
// digest, per-client digests and event count, on every workload's shape.
class TracedParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TracedParityTest, MatchesEngineRun) {
  const auto w = MakeWorkload(GetParam(), 7, /*shrunk=*/true);
  ASSERT_TRUE(w.has_value());
  seve::Engine engine;
  const auto report = engine.Run(w->arch, w->scenario);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(CheckInvariants(*report, MovesSubmitted(w->scenario)).empty());

  Tracer tracer;
  const TracedRun run = RunTraced(*w, &tracer);
  EXPECT_EQ(run.final_state_digest, report->final_state_digest);
  EXPECT_EQ(run.client_digests, FoldDigests(report->client_state_digests));
  EXPECT_EQ(run.events_run, static_cast<int64_t>(report->events_run));

  // The run-time rows add up to the traced run phase.
  const std::vector<Metric> rows = LayerTimes(run);
  double row_us = 0.0;
  for (const char* name :
       {"world.cost_us", "world.make_move_us", "world.sample_us",
        "protocol.client_us", "protocol.server_us", "shard.server_us",
        "shard.rebalance_us", "net.loop_self_us"}) {
    row_us += Value(rows, name);
  }
  const auto total = [&run](SpanName n) {
    return static_cast<double>(run.totals[static_cast<size_t>(n)].total_ns);
  };
  const double phase_ns =
      total(SpanName::kRunUntil) + total(SpanName::kRunUntilIdle) +
      total(SpanName::kServerStop) + total(SpanName::kShardStop);
  EXPECT_NEAR(row_us * static_cast<double>(run.submitted) * 1e3, phase_ns,
              1e-6 * phase_ns + 1.0);

  // Each workload exercises the layers it exists for.
  const auto calls = [&run](SpanName n) {
    return run.totals[static_cast<size_t>(n)].calls;
  };
  const bool sharded = GetParam() == "sharded";
  EXPECT_EQ(calls(SpanName::kWorldCost) > 0, GetParam() == "table1");
  EXPECT_EQ(calls(SpanName::kShardMessage) > 0, sharded);
  EXPECT_EQ(calls(SpanName::kServerMessage) > 0, !sharded);
  EXPECT_EQ(calls(SpanName::kClientRecovery) > 0, GetParam() == "churn");
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedParityTest,
                         ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
