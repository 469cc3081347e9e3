#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace perfbench {

/// One benchmark workload: an architecture plus a fully specified
/// scenario. Workloads set Scenario fields only, plus
/// SeveOptions::all_client_completions, so that removing a compatibility
/// option from SeveOptions never requires editing the benchmark.
struct Workload {
  std::string name;
  seve::Architecture arch = seve::Architecture::kSeve;
  seve::Scenario scenario;
  /// Independent instances one benchmark run simulates: instance j is
  /// the same workload with scenario seed InstanceSeed(seed, j). Pooling
  /// several worlds keeps the simulated metrics from hinging on one
  /// world's geometry.
  int instances = 1;
};

/// The four workloads, in the order NOTES.md describes them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed`. `shrunk` gives a small copy of the
/// same shape (same architecture, features and schedules, fewer clients,
/// walls and moves) for tests. Returns nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool shrunk = false);

/// Applies one "key=value" override of a workload's dominant input, for
/// the scaling checks in NOTES.md: walls (world.num_walls), clients
/// (num_clients), shards, loss (drop_probability). Returns false for an
/// unknown key or a malformed value.
bool ApplyOverride(const std::string& assignment, Workload* workload);

/// Scenario seed of instance `instance` of a run with seed `seed`;
/// instance 0 uses `seed` itself.
uint64_t InstanceSeed(uint64_t seed, int instance);

/// The set-up-only variant timed as `setup_s`: the same world, nodes and
/// links with no moves and no failure or migration schedule.
seve::Scenario SetupOnly(const seve::Scenario& scenario);

/// Moves the generator submits: every client's whole schedule, including
/// the moves that land while the client is crashed.
int64_t MovesSubmitted(const seve::Scenario& scenario);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
