#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

/// The spans the traced run records. Each name belongs to one layer
/// (SpanLayer) and feeds one row of the per-layer table.
enum class SpanName : uint8_t {
  kSetupWorld,      // ApplyWorkload + ManhattanWorld construction
  kSetupNodes,      // node construction, registration, Start
  kSetupLinks,      // AddNode, reliable transport, links
  kSetupSchedule,   // failure, move and timer events scheduled up front
  kRunUntil,        // EventLoop::RunUntil
  kRunUntilIdle,    // EventLoop::RunUntilIdle
  kWorldCost,       // move-cost callback: CountWallsNear, CountAvatarsNear
  kWorldMakeMove,   // ManhattanWorld::MakeMove
  kWorldSample,     // visibility sampler
  kClientSubmit,    // SeveClient::SubmitLocalAction
  kClientMessage,   // SeveClient::OnMessage
  kClientRecovery,  // SeveClient::Fail / Rejoin
  kServerMessage,   // SeveServer::OnMessage
  kServerStop,      // SeveServer::Stop + FlushAll at the end of the run
  kShardMessage,    // SeveShardServer::OnMessage
  kShardStop,       // StopAntiEntropy at the end of the run
  kShardRebalance,  // rebalance tick: PlanRebalance, StartMigration
  kCollect,         // digests after the run
};
inline constexpr size_t kSpanNames = 18;

const char* SpanNameString(SpanName name);
/// The layer (src/ module) a span's self time is charged to.
const char* SpanLayer(SpanName name);

/// In-memory span recorder for one single-threaded run. Spans nest
/// strictly (they are scopes around synchronous calls), so the innermost
/// open span is the parent of the next one.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    SpanName name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Per-name totals: calls, inclusive time, and self time (inclusive
  /// minus the time covered by direct child spans).
  struct Totals {
    int64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  // Room for a whole traced run of every workload, so the span buffer
  // does not reallocate while it is being timed.
  Tracer() { spans_.reserve(1 << 20); }

  uint32_t Begin(SpanName name);
  void End(uint32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  std::array<Totals, kSpanNames> Aggregate() const;
  /// Writes every span as one CSV row: name,layer,start_ns,end_ns,parent.
  void WriteCsv(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
  uint32_t open_ = kNoParent;
};

/// RAII span: open for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanName name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~SpanScope() { tracer_->End(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
