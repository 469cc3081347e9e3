#include "perfbench/src/workloads.h"

#include <cstdlib>

#include "common/types.h"

namespace perfbench {
namespace {

using seve::Architecture;
using seve::kMicrosPerMilli;
using seve::Micros;
using seve::Scenario;

// Sizes: every workload answers at least 4,000 moves over its instances
// (p99 then has 40 samples beyond it), one Engine::Run takes 1-2.5 host
// seconds on a 4-vCPU x86 VM, and one pass over the instances 17-21 s.
// Many short instances give the host-time median many samples and pool
// the simulated metrics over many worlds.

// Table I as written: the world layer's workload.
Workload Table1(bool shrunk) {
  Workload w{"table1", Architecture::kSeve, Scenario::TableOne(64), 16};
  Scenario& s = w.scenario;
  s.moves_per_client = 25;
  if (shrunk) {
    s.num_clients = 16;
    s.world.num_walls = 5000;
    s.moves_per_client = 10;
  }
  return w;
}

// Single-server SEVE just under its knee, with world pricing bypassed:
// the push path, client apply and the event loop.
Workload Fanout(bool shrunk) {
  Workload w{"fanout", Architecture::kSeve, Scenario::TableOne(2000), 12};
  Scenario& s = w.scenario;
  s.moves_per_client = 15;
  s.world.num_walls = 1000;
  s.world.spawn.pattern = seve::SpawnConfig::Pattern::kUniform;
  s.fixed_move_cost_us = 50;
  s.workload.sparse_reads = true;
  s.workload.sparse_replicas = true;
  s.workload.sample_visibility = false;
  if (shrunk) {
    s.num_clients = 200;
    s.moves_per_client = 4;
  }
  return w;
}

// bench_fig6_sharded's rebalanced arm at 20,000 clients over 8 shards.
Workload Sharded(bool shrunk) {
  Workload w{"sharded", Architecture::kSeveSharded,
             Scenario::TableOne(20000), 8};
  Scenario& s = w.scenario;
  s.moves_per_client = 4;
  s.move_period_us = 1000 * kMicrosPerMilli;
  s.world.num_walls = 1000;
  s.link_kbps = 0.0;
  s.fixed_move_cost_us = 50;
  s.workload.kind = seve::WorkloadKind::kFlashCrowd;
  s.workload.crowd_radius = 120.0;
  s.workload.spacing = 0.5;
  s.workload.sparse_reads = true;
  s.workload.sparse_replicas = true;
  s.workload.sample_visibility = false;
  s.shards = 8;
  s.rebalance.enabled = true;
  s.rebalance.period_us = s.move_period_us;
  s.rebalance.headroom = 1.1;
  s.rebalance.max_moves_per_epoch = 100'000;
  if (shrunk) {
    s.num_clients = 2000;
    s.moves_per_client = 4;
  }
  return w;
}

// The Table I world under loss, crashes and rejoins: the wire codec, the
// reliable channel and crash catch-up.
Workload Churn(bool shrunk) {
  Workload w{"churn", Architecture::kSeve, Scenario::TableOne(256), 8};
  Scenario& s = w.scenario;
  s.moves_per_client = 30;
  s.world.num_walls = 10000;
  s.fixed_move_cost_us = 50;
  s.drop_probability = 0.01;
  s.reliable_transport = true;
  s.wire_mode = seve::WireMode::kEncoded;
  // Section III-C failure tolerance: without it one crashed origin stalls
  // the commit frontier for the rest of the run.
  s.seve.all_client_completions = true;
  if (shrunk) {
    s.num_clients = 64;
    s.world.num_walls = 2000;
    s.moves_per_client = 16;
  }
  // One client in eight crashes once and rejoins 1.5 s later. Crashes are
  // staggered evenly from 1 s into the run to 2.5 s before the last
  // submission, so a few clients are always down.
  const Micros down = 1500 * kMicrosPerMilli;
  const Micros first = 1000 * kMicrosPerMilli;
  const Micros span = static_cast<Micros>(s.moves_per_client) *
                          s.move_period_us -
                      first - down - 1000 * kMicrosPerMilli;
  const int crashers = s.num_clients / 8;
  for (int k = 0; k < crashers; ++k) {
    const Micros at = first + span * k / crashers;
    s.failures.push_back(Scenario::FailureEvent{8 * k, at, at + down});
  }
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"table1", "fanout",
                                                  "sharded", "churn"};
  return kNames;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool shrunk) {
  std::optional<Workload> w;
  if (name == "table1") w = Table1(shrunk);
  if (name == "fanout") w = Fanout(shrunk);
  if (name == "sharded") w = Sharded(shrunk);
  if (name == "churn") w = Churn(shrunk);
  if (w.has_value()) w->scenario.seed = seed;
  return w;
}

bool ApplyOverride(const std::string& assignment, Workload* workload) {
  const size_t eq = assignment.find('=');
  if (eq == std::string::npos) return false;
  const std::string key = assignment.substr(0, eq);
  const char* text = assignment.c_str() + eq + 1;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value >= 0.0 && value <= 1e9)) {
    return false;
  }
  Scenario& s = workload->scenario;
  if (key == "walls") {
    s.world.num_walls = static_cast<int>(value);
  } else if (key == "clients" && value >= 1.0) {
    s.num_clients = static_cast<int>(value);
  } else if (key == "shards" && value >= 1.0) {
    s.shards = static_cast<int>(value);
  } else if (key == "loss" && value < 1.0) {
    s.drop_probability = value;
  } else {
    return false;
  }
  return true;
}

uint64_t InstanceSeed(uint64_t seed, int instance) {
  if (instance == 0) return seed;
  // SplitMix64 finalizer over (seed, instance).
  const auto k = static_cast<uint64_t>(instance);
  uint64_t z = seed + k * uint64_t{0x9e3779b97f4a7c15};
  z = (z ^ (z >> 30)) * uint64_t{0xbf58476d1ce4e5b9};
  z = (z ^ (z >> 27)) * uint64_t{0x94d049bb133111eb};
  return z ^ (z >> 31);
}

Scenario SetupOnly(const Scenario& scenario) {
  Scenario s = scenario;
  s.moves_per_client = 0;
  s.failures.clear();
  s.migrations.clear();
  return s;
}

int64_t MovesSubmitted(const Scenario& scenario) {
  return static_cast<int64_t>(scenario.num_clients) *
         scenario.moves_per_client;
}

}  // namespace perfbench
