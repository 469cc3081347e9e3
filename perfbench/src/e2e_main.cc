// End-to-end program of the repository benchmark (perfbench/NOTES.md).
//
// Runs one workload through seve::Engine::Run, the public entry point the
// examples use, with tracing off:
//   1. set-up reps: instance 0 with no moves and no failure schedule,
//      repeated at least --setup-reps times (default 5) and, unless that is
//      0, for 1.5 s;
//   2. timed reps: one pass over the workload's instances (--instances
//      overrides their number), then further passes while --seconds of
//      wall time have not passed.
// Repeats of an instance must reproduce its report digest. Prints one JSON
// line with the per-rep wall times, the median over reps of moves per
// wall second, the simulated metrics pooled over the instances,
// instance 0's per-layer counts and process counters, and the invariant
// violations; perfbench/run.py turns it into the benchmark result.
//
// Usage: perfbench_e2e --workload NAME [--seed N] [--seconds S]
//                      [--instances N] [--setup-reps N]
//                      [--set key=value ...]
// --set overrides the workload's dominant input (ApplyOverride) for the
// scaling checks in NOTES.md.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "perfbench/src/cli.h"
#include "perfbench/src/json_line.h"
#include "perfbench/src/metrics.h"
#include "perfbench/src/workloads.h"
#include "sim/sweep.h"

namespace {

using Clock = std::chrono::steady_clock;

// Set-up reps continue past --setup-reps until this much wall time (or 31
// reps) has passed, so that the reported median has many samples.
constexpr double kSetupSeconds = 1.5;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench_e2e: %s\n", why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  return Fail("assertions are enabled; time only a Release build");
#endif
  uint64_t seed = 0;
  const std::optional<Workload> workload = WorkloadFromFlags(argc, argv, &seed);
  if (!workload.has_value()) return Fail("bad flags");
  const double seconds = DoubleFlag(argc, argv, "--seconds", 0.0);
  const auto setup_reps =
      static_cast<int>(DoubleFlag(argc, argv, "--setup-reps", 5));
  const auto instances = static_cast<int>(
      DoubleFlag(argc, argv, "--instances", workload->instances));
  if (!HistogramLayoutMatches()) {
    return Fail("seve::Histogram bucket layout changed; update metrics.cc");
  }

  if (instances < 1) return Fail("--instances must be at least 1");
  std::vector<seve::Scenario> scenarios;
  for (int j = 0; j < instances; ++j) {
    scenarios.push_back(workload->scenario);
    scenarios.back().seed = InstanceSeed(seed, j);
  }

  seve::Engine engine;
  const seve::Scenario setup_scenario = SetupOnly(scenarios.front());
  std::vector<double> setup_s;
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(setup_s.size()) < setup_reps ||
         (setup_reps > 0 && SecondsSince(setup_start) < kSetupSeconds &&
          setup_s.size() < 31)) {
    const Clock::time_point t0 = Clock::now();
    const auto report = engine.Run(workload->arch, setup_scenario);
    setup_s.push_back(SecondsSince(t0));
    if (!report.ok()) return Fail(report.status().ToString());
  }

  // Instance j runs at reps j, j + instances, ...: one full pass, then more
  // passes while --seconds have not passed. Repeats must reproduce the
  // first pass's report digest.
  const int64_t per_instance = MovesSubmitted(workload->scenario);
  std::vector<uint64_t> digests(static_cast<size_t>(instances), 0);
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  std::vector<std::string> violations;
  int64_t failed_reps = 0;
  seve::RunReport pool;
  seve::RunReport first;
  double sys_s = 0.0;
  int64_t minor_faults = 0;
  seve::ObjectSetCounters store_delta;
  const Clock::time_point timed_start = Clock::now();
  for (int rep = 0; rep < instances || SecondsSince(timed_start) < seconds;
       ++rep) {
    const auto j = static_cast<size_t>(rep % instances);
    rusage ru0{};
    getrusage(RUSAGE_SELF, &ru0);
    const seve::ObjectSetCounters store0 = seve::GetObjectSetCounters();
    const double cpu0 = ThreadCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    auto report = engine.Run(workload->arch, scenarios[j]);
    run_s.push_back(SecondsSince(t0));
    cpu_s.push_back(ThreadCpuSeconds() - cpu0);
    if (!report.ok()) return Fail(report.status().ToString());
    const uint64_t d = seve::DigestReport(*report);
    if (rep >= instances) {
      if (d != digests[j]) {
        ++failed_reps;
        violations.push_back("instance " + std::to_string(j) +
                             ": report digest differs between reps");
      }
      continue;
    }
    digests[j] = d;
    const std::vector<std::string> broken =
        CheckInvariants(*report, per_instance);
    if (!broken.empty()) ++failed_reps;
    for (const std::string& v : broken) {
      violations.push_back("instance " + std::to_string(j) + ": " + v);
    }
    PoolInto(&pool, *report);
    if (j == 0) {
      rusage ru1{};
      getrusage(RUSAGE_SELF, &ru1);
      const seve::ObjectSetCounters& store1 = seve::GetObjectSetCounters();
      store_delta.intersect_calls =
          store1.intersect_calls - store0.intersect_calls;
      store_delta.sig_rejects = store1.sig_rejects - store0.sig_rejects;
      sys_s = TimevalSeconds(ru1.ru_stime) - TimevalSeconds(ru0.ru_stime);
      minor_faults = ru1.ru_minflt - ru0.ru_minflt;
      first = std::move(*report);
    }
  }
  // Host throughput: the median over reps, robust to the seconds-scale
  // memory-contention bursts of a shared VM.
  std::vector<double> rates;
  for (const double s : run_s) {
    rates.push_back(static_cast<double>(per_instance) / s);
  }
  const int64_t submitted = per_instance * instances;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const SimMetrics sim = ExtractSim(pool, submitted);
  JsonLine sim_json;
  sim_json.Num("sim_response_p50_ms", sim.response_p50_ms)
      .Num("sim_response_p99_ms", sim.response_p99_ms)
      .Num("sim_kb_per_move", sim.kb_per_move)
      .Num("answered_frac", sim.answered_frac)
      .Num("audit_agree_frac", sim.audit_agree_frac);
  JsonLine counts;
  for (const Metric& m : LayerCounts(first, per_instance, store_delta)) {
    counts.Num(m.name, m.value);
  }
  counts.Num("proc.sys_s", sys_s)
      .Num("proc.minor_faults_per_move",
           Ratio(static_cast<double>(minor_faults),
                 static_cast<double>(per_instance)));

  JsonLine out;
  out.Str("workload", workload->name)
      .Int("seed", static_cast<int64_t>(seed))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Int("submitted", sim.submitted)
      .Int("answered", sim.answered)
      .Int("instances", instances)
      .Int("audit_compared", pool.consistency.compared)
      .Int("audit_mismatches", pool.consistency.mismatches)
      .Hex("report_digest", digests.front())
      .Hex("final_state_digest", first.final_state_digest)
      .Hex("client_digests", FoldDigests(first.client_state_digests))
      .Int("events_run", static_cast<int64_t>(first.events_run))
      .Nums("setup_s", setup_s)
      .Nums("run_s", run_s)
      .Nums("cpu_s", cpu_s)
      .Num("moves_per_s", Median(rates))
      .Num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .Obj("sim", sim_json)
      .Obj("counts", counts)
      .Int("failed_reps", failed_reps)
      .Strs("violations", violations);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
