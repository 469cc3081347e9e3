#include "perfbench/src/traced_run.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/rng.h"
#include "net/channel.h"
#include "net/network.h"
#include "protocol/interest.h"
#include "protocol/seve_client.h"
#include "protocol/seve_server.h"
#include "shard/rebalancer.h"
#include "shard/shard_map.h"
#include "shard/shard_server.h"
#include "world/attrs.h"

namespace perfbench {

using namespace seve;  // NOLINT: this file mirrors sim/runner.cc

namespace {

// Thin subclasses of the three node classes: the only change is a span
// around each message the layer handles.
class TracedClient : public SeveClient {
 public:
  template <typename... Args>
  explicit TracedClient(Tracer* tracer, Args&&... args)
      : SeveClient(std::forward<Args>(args)...), tracer_(tracer) {}

 protected:
  void OnMessage(const Message& msg) override {
    SpanScope span(tracer_, SpanName::kClientMessage);
    SeveClient::OnMessage(msg);
  }

 private:
  Tracer* tracer_;
};

class TracedServer : public SeveServer {
 public:
  template <typename... Args>
  explicit TracedServer(Tracer* tracer, Args&&... args)
      : SeveServer(std::forward<Args>(args)...), tracer_(tracer) {}

 protected:
  void OnMessage(const Message& msg) override {
    SpanScope span(tracer_, SpanName::kServerMessage);
    SeveServer::OnMessage(msg);
  }

 private:
  Tracer* tracer_;
};

class TracedShard : public SeveShardServer {
 public:
  template <typename... Args>
  explicit TracedShard(Tracer* tracer, Args&&... args)
      : SeveShardServer(std::forward<Args>(args)...), tracer_(tracer) {}

 protected:
  void OnMessage(const Message& msg) override {
    SpanScope span(tracer_, SpanName::kShardMessage);
    SeveShardServer::OnMessage(msg);
  }

 private:
  Tracer* tracer_;
};

NodeId ServerNode() { return NodeId(0); }
NodeId ClientNode(int index) {
  return NodeId(static_cast<uint64_t>(index) + 1);
}

LinkParams MakeLink(const Scenario& s) {
  if (s.link_kbps > 0.0) {
    return LinkParams::FromKbps(s.one_way_latency_us, s.link_kbps,
                                s.msg_overhead_bytes, s.drop_probability);
  }
  LinkParams params = LinkParams::LatencyOnly(s.one_way_latency_us);
  params.per_message_overhead_bytes = s.msg_overhead_bytes;
  params.drop_probability = s.drop_probability;
  return params;
}

InterestProfile InitialProfile(const ManhattanWorld& world, int index) {
  InterestProfile profile;
  profile.position = world.InitialState()
                         .GetAttr(ManhattanWorld::AvatarId(index),
                                  kAttrPosition)
                         .AsVec2();
  profile.radius = world.config().move_effect_range;
  profile.interest_class = 1;
  return profile;
}

double PerMoveUs(int64_t ns, int64_t moves) {
  return Ratio(static_cast<double>(ns) / 1e3, static_cast<double>(moves));
}

}  // namespace

bool CanTrace(const Workload& workload) {
  return (workload.arch == Architecture::kSeve ||
          workload.arch == Architecture::kSeveSharded) &&
         workload.scenario.migrations.empty();
}

TracedRun RunTraced(const Workload& workload, Tracer* tracer) {
  const auto wall_start = std::chrono::steady_clock::now();
  const bool sharded = workload.arch == Architecture::kSeveSharded;
  Scenario s = workload.scenario;

  EventLoop loop;
  Network net(&loop, s.seed ^ 0x6e657477ULL);
  net.set_wire_mode(s.wire_mode);
  ManhattanWorld world = [&] {
    SpanScope span(tracer, SpanName::kSetupWorld);
    s.world.num_avatars = s.num_clients;
    ApplyWorkload(&s);
    return ManhattanWorld(s.world, s.seed);
  }();

  ActionCostFn cost_fn = [&s, &world, tracer](const Action& action,
                                              const WorldState& view) {
    // A fixed cost never enters the world layer, so it opens no span.
    if (s.fixed_move_cost_us.has_value()) return *s.fixed_move_cost_us;
    SpanScope span(tracer, SpanName::kWorldCost);
    const Vec2 pos = action.Interest().position;
    const int walls = world.CountWallsNear(
        pos, s.world.visibility * s.cost.wall_check_radius_factor);
    const int avatars = world.CountAvatarsNear(view, pos, s.world.visibility,
                                               ObjectId::Invalid());
    return s.cost.MoveCost(walls, avatars);
  };

  const LinkParams link = MakeLink(s);
  const Micros rtt_us = 2 * s.one_way_latency_us;

  std::unique_ptr<TracedServer> seve_server;
  std::vector<std::unique_ptr<TracedClient>> clients;
  std::unique_ptr<ShardMap> shard_map;
  std::vector<std::unique_ptr<TracedShard>> shard_servers;
  std::vector<NodeId> shard_nodes;
  WorldState sharded_view;

  auto add_node = [&](Node* node) {
    SpanScope span(tracer, SpanName::kSetupLinks);
    net.AddNode(node);
    if (s.reliable_transport) node->EnableReliableTransport(s.channel);
  };
  auto client_initial = [&](int i) -> WorldState {
    if (!s.workload.sparse_replicas) return world.InitialState();
    WorldState state;
    const Object* avatar =
        world.InitialState().Find(ManhattanWorld::AvatarId(i));
    if (avatar != nullptr) state.Upsert(*avatar);
    return state;
  };

  SeveOptions opts = s.seve;
  if (sharded) {
    opts.proactive_push = false;
    opts.dropping = false;
  }
  InterestModel interest(s.world.speed, rtt_us, opts.omega,
                         opts.velocity_culling, opts.interest_classes);

  if (!sharded) {
    {
      SpanScope span(tracer, SpanName::kSetupNodes);
      seve_server = std::make_unique<TracedServer>(
          tracer, ServerNode(), &loop, world.InitialState(), s.cost,
          interest, opts, s.world.bounds);
    }
    add_node(seve_server.get());
    for (int i = 0; i < s.num_clients; ++i) {
      std::unique_ptr<TracedClient> client;
      {
        SpanScope span(tracer, SpanName::kSetupNodes);
        client = std::make_unique<TracedClient>(
            tracer, ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            ServerNode(), client_initial(i), cost_fn, s.cost.install_us,
            opts);
      }
      add_node(client.get());
      {
        SpanScope span(tracer, SpanName::kSetupLinks);
        net.ConnectBidirectional(ServerNode(), ClientNode(i), link);
        client->set_load_factor(s.client_load_factor);
      }
      {
        SpanScope span(tracer, SpanName::kSetupNodes);
        seve_server->RegisterClient(client->client_id(), ClientNode(i),
                                    InitialProfile(world, i));
      }
      clients.push_back(std::move(client));
    }
    SpanScope span(tracer, SpanName::kSetupNodes);
    seve_server->Start();
    for (auto& client : clients) client->StartAntiEntropy();
  } else {
    {
      SpanScope span(tracer, SpanName::kSetupNodes);
      shard_map = std::make_unique<ShardMap>(s.world.bounds, s.shards,
                                             world.InitialState());
    }
    for (ShardId sh = 0; sh < shard_map->shard_count(); ++sh) {
      const NodeId node_id = ShardServerNode(sh);
      std::unique_ptr<TracedShard> server;
      {
        SpanScope span(tracer, SpanName::kSetupNodes);
        server = std::make_unique<TracedShard>(
            tracer, node_id, &loop, sh, shard_map.get(),
            world.InitialState(), interest, s.cost, opts);
      }
      add_node(server.get());
      shard_nodes.push_back(node_id);
      shard_servers.push_back(std::move(server));
    }
    for (size_t a = 0; a < shard_nodes.size(); ++a) {
      {
        SpanScope span(tracer, SpanName::kSetupLinks);
        for (size_t b = a + 1; b < shard_nodes.size(); ++b) {
          net.ConnectBidirectional(shard_nodes[a], shard_nodes[b], link);
        }
      }
      SpanScope span(tracer, SpanName::kSetupNodes);
      for (size_t b = 0; b < shard_nodes.size(); ++b) {
        shard_servers[a]->RegisterPeer(static_cast<ShardId>(b),
                                       shard_nodes[b]);
      }
    }
    for (int i = 0; i < s.num_clients; ++i) {
      const ShardId home =
          shard_map->ShardOfObject(ManhattanWorld::AvatarId(i));
      const NodeId home_node = shard_nodes[static_cast<size_t>(home)];
      std::unique_ptr<TracedClient> client;
      {
        SpanScope span(tracer, SpanName::kSetupNodes);
        client = std::make_unique<TracedClient>(
            tracer, ClientNode(i), &loop, ClientId(static_cast<uint64_t>(i)),
            home_node, client_initial(i), cost_fn, s.cost.install_us, opts);
      }
      add_node(client.get());
      {
        SpanScope span(tracer, SpanName::kSetupLinks);
        client->set_load_factor(s.client_load_factor);
        net.ConnectBidirectional(home_node, ClientNode(i), link);
      }
      {
        SpanScope span(tracer, SpanName::kSetupNodes);
        shard_servers[static_cast<size_t>(home)]->RegisterClient(
            client->client_id(), ClientNode(i), ManhattanWorld::AvatarId(i),
            InitialProfile(world, i));
      }
      clients.push_back(std::move(client));
    }
    SpanScope span(tracer, SpanName::kSetupNodes);
    for (auto& client : clients) client->StartAntiEntropy();
    for (auto& server : shard_servers) server->StartAntiEntropy();
  }

  // The replica the consistency audit and the sampler read.
  auto observer = [&]() -> const WorldState& {
    if (!sharded) return seve_server->authoritative();
    sharded_view = WorldState{};
    for (const auto& srv : shard_servers) {
      const WorldState& part = srv->authoritative();
      for (const ObjectId id : part.ObjectIds()) {
        sharded_view.Upsert(*part.Find(id));
      }
    }
    return sharded_view;
  };

  const uint32_t schedule_span = tracer->Begin(SpanName::kSetupSchedule);
  for (const Scenario::FailureEvent& f : s.failures) {
    if (f.client < 0 || f.client >= s.num_clients) continue;
    const int c = f.client;
    loop.At(f.fail_at_us, [&, c]() {
      SpanScope span(tracer, SpanName::kClientRecovery);
      clients[static_cast<size_t>(c)]->Fail();
    });
    if (f.rejoin_at_us > f.fail_at_us) {
      loop.At(f.rejoin_at_us, [&, c]() {
        SpanScope span(tracer, SpanName::kClientRecovery);
        clients[static_cast<size_t>(c)]->Rejoin();
      });
    }
  }

  Rng gen_rng(s.seed ^ 0x67656e);
  VirtualTime last_submission = 0;
  for (int i = 0; i < s.num_clients; ++i) {
    const VirtualTime start = static_cast<VirtualTime>(
        gen_rng.NextBounded(static_cast<uint64_t>(s.move_period_us)));
    for (int k = 0; k < s.moves_per_client; ++k) {
      const VirtualTime when = start + static_cast<VirtualTime>(k) *
                                           s.move_period_us;
      last_submission = std::max(last_submission, when);
      loop.At(when, [&, i, k]() {
        const ActionId id((static_cast<uint64_t>(i) << 32) |
                          static_cast<uint64_t>(k));
        const Tick tick = loop.now() / s.seve.tick_us;
        TracedClient& client = *clients[static_cast<size_t>(i)];
        std::shared_ptr<const MoveAction> move;
        {
          SpanScope span(tracer, SpanName::kWorldMakeMove);
          move = world.MakeMove(id, ClientId(static_cast<uint64_t>(i)), i,
                                tick, client.optimistic(), s.move_period_us);
        }
        SpanScope span(tracer, SpanName::kClientSubmit);
        client.SubmitLocalAction(std::move(move));
      });
    }
  }

  const Micros sample_period = 500 * kMicrosPerMilli;
  InlineFunction<96> sample = [&]() {
    if (loop.now() > last_submission) return;
    {
      SpanScope span(tracer, SpanName::kWorldSample);
      const WorldState& state = observer();
      for (int i = 0; i < s.num_clients; ++i) {
        const ObjectId avatar = ManhattanWorld::AvatarId(i);
        const Vec2 pos = state.GetAttr(avatar, kAttrPosition).AsVec2();
        world.CountAvatarsNear(state, pos, s.world.visibility, avatar);
      }
    }
    loop.After(sample_period, [&sample]() { sample(); });
  };
  if (s.workload.sample_visibility) {
    loop.After(sample_period, [&sample]() { sample(); });
  }

  std::vector<int64_t> prev_submits(shard_servers.size(), 0);
  int64_t prev_migrations_out = 0;
  InlineFunction<128> rebalance_tick = [&]() {
    {
      SpanScope span(tracer, SpanName::kShardRebalance);
      int64_t peak_sum = 0;
      for (const auto& shard : shard_servers) {
        peak_sum += shard->TakeWindowQueuePeak();
      }
      if (loop.now() > last_submission) return;
      std::vector<int64_t> arrivals(shard_servers.size(), 0);
      int64_t migrations_out = 0;
      int64_t in_flight = 0;
      for (size_t sh = 0; sh < shard_servers.size(); ++sh) {
        const int64_t submits = shard_servers[sh]->counters().submits;
        arrivals[sh] = submits - prev_submits[sh];
        prev_submits[sh] = submits;
        migrations_out += shard_servers[sh]->counters().migrations_out;
        in_flight +=
            static_cast<int64_t>(shard_servers[sh]->pending_migrations()) +
            static_cast<int64_t>(shard_servers[sh]->pending_adoptions());
      }
      const bool poisoned =
          migrations_out != prev_migrations_out || in_flight != 0;
      prev_migrations_out = migrations_out;
      if (s.rebalance.enabled && !poisoned && peak_sum > 0) {
        std::vector<std::vector<ObjectId>> movable(shard_servers.size());
        for (int i = 0; i < s.num_clients; ++i) {
          const ObjectId avatar = ManhattanWorld::AvatarId(i);
          movable[static_cast<size_t>(shard_map->ShardOfObject(avatar))]
              .push_back(avatar);
        }
        std::vector<ShardLoad> loads;
        loads.reserve(shard_servers.size());
        for (size_t sh = 0; sh < shard_servers.size(); ++sh) {
          loads.push_back(
              ShardLoad{static_cast<ShardId>(sh), arrivals[sh],
                        static_cast<int64_t>(movable[sh].size())});
        }
        RebalancePolicy policy;
        policy.headroom = s.rebalance.headroom;
        policy.max_moves = s.rebalance.max_moves_per_epoch;
        for (const MigrationMove& mv :
             PlanRebalance(loads, movable, policy)) {
          const int c = static_cast<int>(mv.object.value()) - 1;
          net.ConnectBidirectional(shard_nodes[static_cast<size_t>(mv.to)],
                                   ClientNode(c), link);
          shard_servers[static_cast<size_t>(mv.from)]->StartMigration(
              mv.object, mv.to);
        }
      }
    }
    loop.After(s.rebalance.period_us,
               [&rebalance_tick]() { rebalance_tick(); });
  };
  if (sharded) {
    loop.After(s.rebalance.period_us,
               [&rebalance_tick]() { rebalance_tick(); });
  }
  tracer->End(schedule_span);

  const Micros push_period =
      static_cast<Micros>(s.seve.omega * static_cast<double>(rtt_us));
  VirtualTime last_activity = last_submission;
  for (const Scenario::FailureEvent& f : s.failures) {
    last_activity = std::max(last_activity,
                             std::max(f.fail_at_us, f.rejoin_at_us));
  }
  Micros drain_slack = 100 * kMicrosPerMilli;
  if (s.reliable_transport) {
    drain_slack += 8 * s.channel.initial_rto_us + 2 * s.channel.max_rto_us;
  }
  {
    SpanScope span(tracer, SpanName::kRunUntil);
    loop.RunUntil(last_activity + s.one_way_latency_us + s.seve.tick_us +
                  push_period + drain_slack);
  }
  if (!sharded) {
    SpanScope span(tracer, SpanName::kServerStop);
    seve_server->Stop();
    for (auto& client : clients) client->StopSync();
    seve_server->FlushAll();
  } else {
    SpanScope span(tracer, SpanName::kShardStop);
    for (auto& server : shard_servers) server->StopAntiEntropy();
    for (auto& client : clients) client->StopSync();
  }
  {
    SpanScope span(tracer, SpanName::kRunUntilIdle);
    loop.RunUntilIdle(s.max_drain_events);
  }

  TracedRun run;
  {
    SpanScope span(tracer, SpanName::kCollect);
    std::vector<uint64_t> digests;
    digests.reserve(clients.size());
    for (const auto& client : clients) {
      digests.push_back(client->stable().Digest());
    }
    run.client_digests = FoldDigests(digests);
    run.final_state_digest = observer().Digest();
    run.events_run = static_cast<int64_t>(loop.events_run());
    run.submitted = MovesSubmitted(s);
    const double end = static_cast<double>(std::max<VirtualTime>(1,
                                                                 loop.now()));
    Micros busy = 0;
    if (seve_server != nullptr) busy = seve_server->cpu_busy_us();
    for (const auto& shard : shard_servers) {
      busy = std::max(busy, shard->cpu_busy_us());
    }
    run.server_busy_frac = static_cast<double>(busy) / end;
  }
  run.totals = tracer->Aggregate();
  run.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall_start)
                   .count();
  return run;
}

std::vector<Metric> LayerTimes(const TracedRun& run) {
  auto self = [&run](SpanName name) {
    return run.totals[static_cast<size_t>(name)].self_ns;
  };
  auto total_ms = [&run](SpanName name) {
    return static_cast<double>(run.totals[static_cast<size_t>(name)].total_ns) /
           1e6;
  };
  const int64_t moves = run.submitted;
  return {
      {"world.cost_us", PerMoveUs(self(SpanName::kWorldCost), moves)},
      {"world.make_move_us", PerMoveUs(self(SpanName::kWorldMakeMove), moves)},
      {"world.sample_us", PerMoveUs(self(SpanName::kWorldSample), moves)},
      {"protocol.client_us",
       PerMoveUs(self(SpanName::kClientSubmit) +
                     self(SpanName::kClientMessage) +
                     self(SpanName::kClientRecovery),
                 moves)},
      {"protocol.server_us",
       PerMoveUs(self(SpanName::kServerMessage) + self(SpanName::kServerStop),
                 moves)},
      {"shard.server_us",
       PerMoveUs(self(SpanName::kShardMessage) + self(SpanName::kShardStop),
                 moves)},
      {"shard.rebalance_us", PerMoveUs(self(SpanName::kShardRebalance), moves)},
      {"net.loop_self_us",
       PerMoveUs(self(SpanName::kRunUntil) + self(SpanName::kRunUntilIdle),
                 moves)},
      {"setup.world_ms", total_ms(SpanName::kSetupWorld)},
      {"setup.nodes_ms", total_ms(SpanName::kSetupNodes)},
      {"setup.links_ms", total_ms(SpanName::kSetupLinks)},
      {"protocol.server_busy_frac", run.server_busy_frac},
  };
}

}  // namespace perfbench
