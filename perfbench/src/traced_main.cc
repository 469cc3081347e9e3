// Traced program of the repository benchmark (perfbench/NOTES.md).
//
// Runs instance 0 of one workload in pairs until --seconds of wall time
// have passed (at least one pair): an untraced seve::Engine::Run, then
// RunTraced, which drives the layers' public classes with a span around
// every call into a layer. Interleaving the pairs in one process makes the
// tracing overhead (traced / untraced median wall time - 1) immune to
// host drift between processes. A pair agrees when the traced run ends in
// the untraced report's final digest, per-client digests and event count.
// Prints one JSON line: parity, the parity fields, the wall times, every
// traced rep's per-layer rows and the first traced rep's per-span totals.
// Spans are kept in memory and, with --spans-out, written out at exit.
//
// Usage: perfbench_traced --workload NAME [--seed N] [--seconds S]
//                         [--spans-out FILE] [--set key=value ...]
// --spans-out writes the first traced rep's spans as CSV
// (name,layer,start_ns,end_ns,parent).

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "perfbench/src/cli.h"
#include "perfbench/src/json_line.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/traced_run.h"
#include "perfbench/src/workloads.h"

namespace {

int Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench_traced: %s\n", why.c_str());
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
  const char* spans_out = Flag(argc, argv, "--spans-out");
  if (!CanTrace(*workload)) return Fail("workload cannot be traced");

  std::map<std::string, std::vector<double>> rows;
  std::vector<double> untraced_s;
  std::vector<double> wall_s;
  Tracer first_spans;
  TracedRun first;
  bool parity = true;
  seve::Engine engine;
  const auto start = std::chrono::steady_clock::now();
  do {
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = engine.Run(workload->arch, workload->scenario);
    untraced_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    if (!report.ok()) return Fail(report.status().ToString());
    Tracer tracer;
    const TracedRun run = RunTraced(*workload, &tracer);
    parity = parity &&
             run.final_state_digest == report->final_state_digest &&
             run.client_digests == FoldDigests(report->client_state_digests) &&
             run.events_run == static_cast<int64_t>(report->events_run);
    if (wall_s.empty()) {
      first = run;
      first_spans = std::move(tracer);
    }
    wall_s.push_back(run.wall_s);
    for (const Metric& m : LayerTimes(run)) rows[m.name].push_back(m.value);
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds);
  // Spans stay in memory while timing; they are written out at exit.
  if (spans_out != nullptr) {
    std::FILE* out = std::fopen(spans_out, "w");
    if (out == nullptr) return Fail(std::string("cannot write ") + spans_out);
    first_spans.WriteCsv(out);
    std::fclose(out);
  }

  JsonLine rows_json;
  for (const auto& [name, values] : rows) rows_json.Nums(name, values);
  JsonLine spans_json;
  for (size_t i = 0; i < kSpanNames; ++i) {
    const auto name = static_cast<SpanName>(i);
    const Tracer::Totals& t = first.totals[i];
    JsonLine one;
    one.Str("layer", SpanLayer(name))
        .Int("calls", t.calls)
        .Num("total_ms", static_cast<double>(t.total_ns) / 1e6)
        .Num("self_ms", static_cast<double>(t.self_ns) / 1e6);
    spans_json.Obj(SpanNameString(name), one);
  }
  JsonLine out;
  out.Str("workload", workload->name)
      .Int("seed", static_cast<int64_t>(seed))
      .Int("submitted", first.submitted)
      .Hex("final_state_digest", first.final_state_digest)
      .Hex("client_digests", first.client_digests)
      .Int("events_run", first.events_run)
      .Int("parity", parity ? 1 : 0)
      .Nums("untraced_s", untraced_s)
      .Nums("wall_s", wall_s)
      .Obj("rows", rows_json)
      .Obj("spans", spans_json);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
