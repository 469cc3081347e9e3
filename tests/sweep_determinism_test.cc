#include "sim/sweep.h"

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace seve {
namespace {

Scenario SmallScenario(int clients, uint64_t seed) {
  Scenario s = Scenario::TableOne(clients);
  s.world.num_walls = 500;
  s.moves_per_client = 5;
  s.seed = seed;
  return s;
}

// One small job per architecture, plus a kEncoded and a kVerify run so
// the digest also covers non-empty WireAudit tables.
std::vector<SweepJob> SmokeJobs() {
  const Architecture kArchs[] = {
      Architecture::kSeve,       Architecture::kSeveNoDropping,
      Architecture::kIncompleteWorld, Architecture::kBasic,
      Architecture::kCentral,    Architecture::kBroadcast,
      Architecture::kRing,       Architecture::kZoned,
      Architecture::kLockBased,  Architecture::kTimestampOcc,
  };
  std::vector<SweepJob> jobs;
  uint64_t seed = 42;
  for (Architecture arch : kArchs) {
    SweepJob job;
    job.label = ArchitectureName(arch);
    job.x = static_cast<double>(jobs.size());
    job.arch = arch;
    job.scenario = SmallScenario(4, seed++);
    jobs.push_back(std::move(job));
  }
  {
    SweepJob job;
    job.label = "seve-encoded";
    job.arch = Architecture::kSeve;
    job.scenario = SmallScenario(4, seed++);
    job.scenario.wire_mode = WireMode::kEncoded;
    jobs.push_back(std::move(job));
  }
  {
    SweepJob job;
    job.label = "seve-verified";
    job.arch = Architecture::kSeve;
    job.scenario = SmallScenario(4, seed++);
    job.scenario.wire_mode = WireMode::kVerify;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(hits.size(), 8,
              [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, InlineWhenSingleJob) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](size_t i) {
    // jobs<=1 runs inline on the caller: mutation without a lock is safe
    // and order is sequential.
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, PropagatesFirstException) {
  EXPECT_THROW(
      ParallelFor(32, 4,
                  [](size_t i) {
                    if (i % 7 == 3) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, MoreWorkersThanItems) {
  std::atomic<int> total{0};
  ParallelFor(3, 16, [&](size_t i) {
    total.fetch_add(static_cast<int>(i) + 1);
  });
  EXPECT_EQ(total.load(), 6);
}

// The tentpole guarantee: a sweep's reports are bit-for-bit identical no
// matter how many worker threads ran it. Digests cover every measured
// field — histogram bins, traffic, consistency, and wire-audit totals.
TEST(SweepDeterminismTest, SerialAndParallelDigestsMatch) {
  const std::vector<SweepJob> jobs = SmokeJobs();
  const std::vector<SweepResult> serial = RunSweep(jobs, 1);
  const std::vector<SweepResult> parallel = RunSweep(jobs, 8);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i].digest, parallel[i].digest)
        << "job " << jobs[i].label;
    // Spot-check a few raw fields too, so a digest bug can't hide a
    // mismatch behind a hash collision in both directions.
    EXPECT_EQ(serial[i].report.end_time, parallel[i].report.end_time);
    EXPECT_EQ(serial[i].report.events_run, parallel[i].report.events_run);
    EXPECT_EQ(serial[i].report.total_traffic.sent.bytes,
              parallel[i].report.total_traffic.sent.bytes);
    EXPECT_EQ(serial[i].report.response_us.count(),
              parallel[i].report.response_us.count());
  }
  // The encoded runs must actually have exercised the wire audit,
  // otherwise the digests above compared empty tables.
  bool audit_seen = false;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!serial[i].report.wire_audit.per_kind().empty()) audit_seen = true;
  }
  EXPECT_TRUE(audit_seen);
}

TEST(SweepDeterminismTest, ParallelRunIsRepeatable) {
  std::vector<SweepJob> jobs = SmokeJobs();
  jobs.resize(4);  // enough for scheduling variety, cheap to run twice
  const std::vector<SweepResult> a = RunSweep(jobs, 8);
  const std::vector<SweepResult> b = RunSweep(jobs, 8);
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(a[i].digest, b[i].digest) << "job " << jobs[i].label;
  }
}

TEST(DigestReportTest, SensitiveToEachReportDimension) {
  const Scenario s = SmallScenario(4, 42);
  const RunReport base = RunScenario(Architecture::kSeve, s);
  const uint64_t base_digest = DigestReport(base);
  EXPECT_EQ(base_digest, DigestReport(base));

  RunReport tweaked = base;
  tweaked.events_run += 1;
  EXPECT_NE(DigestReport(tweaked), base_digest);

  tweaked = base;
  tweaked.response_us.Add(12345);
  EXPECT_NE(DigestReport(tweaked), base_digest);

  tweaked = base;
  tweaked.total_traffic.sent.bytes += 1;
  EXPECT_NE(DigestReport(tweaked), base_digest);

  tweaked = base;
  tweaked.drop_rate += 0.25;
  EXPECT_NE(DigestReport(tweaked), base_digest);
}

// Memo counts are host work, not simulated outcome: reports that differ
// only there digest equally, so digests stay comparable across changes
// to the host-side pricing.
TEST(DigestReportTest, IgnoresWallMemoCounts) {
  const RunReport base = RunScenario(Architecture::kSeve, SmallScenario(4, 42));
  EXPECT_GT(base.wall_memo_hits, 0);
  EXPECT_GT(base.wall_memo_misses, 0);
  EXPECT_NE(base.Summary().find("wall_memo: hits="), std::string::npos);
  RunReport tweaked = base;
  tweaked.wall_memo_hits += 5;
  tweaked.wall_memo_misses = 0;
  EXPECT_EQ(DigestReport(tweaked), DigestReport(base));
}

TEST(SweepTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(DefaultJobs(), 1);
}

}  // namespace
}  // namespace seve
