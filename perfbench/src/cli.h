#ifndef PERFBENCH_SRC_CLI_H_
#define PERFBENCH_SRC_CLI_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "perfbench/src/workloads.h"

namespace perfbench {

/// Value of the first `name VALUE` pair on the command line, or nullptr.
inline const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

inline double DoubleFlag(int argc, char** argv, const char* name,
                         double fallback) {
  const char* v = Flag(argc, argv, name);
  return v == nullptr ? fallback : std::strtod(v, nullptr);
}

/// The workload named by --workload, seeded by --seed (default 42), with
/// every `--set key=value` override applied. Prints the problem and
/// returns nullopt on bad flags.
inline std::optional<Workload> WorkloadFromFlags(int argc, char** argv,
                                                 uint64_t* seed) {
  const char* name = Flag(argc, argv, "--workload");
  const char* seed_flag = Flag(argc, argv, "--seed");
  *seed = seed_flag == nullptr ? 42 : std::strtoull(seed_flag, nullptr, 10);
  if (name == nullptr) {
    std::fprintf(stderr, "--workload is required\n");
    return std::nullopt;
  }
  std::optional<Workload> w = MakeWorkload(name, *seed);
  if (!w.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", name);
    return std::nullopt;
  }
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--set") != 0) continue;
    if (!ApplyOverride(argv[i + 1], &*w)) {
      std::fprintf(stderr, "bad override %s\n", argv[i + 1]);
      return std::nullopt;
    }
  }
  return w;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLI_H_
