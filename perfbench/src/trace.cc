#include "perfbench/src/trace.h"

#include <chrono>

namespace perfbench {
namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};

constexpr std::array<NameInfo, kSpanNames> kNames = {{
    {"setup.world", "world"},
    {"setup.nodes", "protocol"},
    {"setup.links", "net"},
    {"setup.schedule", "net"},
    {"net.run_until", "net"},
    {"net.run_until_idle", "net"},
    {"world.cost", "world"},
    {"world.make_move", "world"},
    {"world.sample", "world"},
    {"protocol.client.submit", "protocol"},
    {"protocol.client.message", "protocol"},
    {"protocol.client.recovery", "protocol"},
    {"protocol.server.message", "protocol"},
    {"protocol.server.stop", "protocol"},
    {"shard.server.message", "shard"},
    {"shard.server.stop", "shard"},
    {"shard.rebalance", "shard"},
    {"collect", "sim"},
}};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* SpanNameString(SpanName name) {
  return kNames[static_cast<size_t>(name)].name;
}

const char* SpanLayer(SpanName name) {
  return kNames[static_cast<size_t>(name)].layer;
}

uint32_t Tracer::Begin(SpanName name) {
  const auto index = static_cast<uint32_t>(spans_.size());
  spans_.push_back(Span{name, open_, NowNs(), 0});
  open_ = index;
  return index;
}

void Tracer::End(uint32_t index) {
  Span& span = spans_[index];
  span.end_ns = NowNs();
  open_ = span.parent;
}

std::array<Tracer::Totals, kSpanNames> Tracer::Aggregate() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::array<Totals, kSpanNames> totals{};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& t = totals[static_cast<size_t>(span.name)];
    const int64_t duration = span.end_ns - span.start_ns;
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return totals;
}

void Tracer::WriteCsv(std::FILE* out) const {
  std::fprintf(out, "name,layer,start_ns,end_ns,parent\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%s,%s,%lld,%lld,%lld\n", SpanNameString(span.name),
                 SpanLayer(span.name), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 span.parent == kNoParent
                     ? -1LL
                     : static_cast<long long>(span.parent));
  }
}

}  // namespace perfbench
