#include "world/manhattan_world.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "world/attrs.h"

namespace seve {
namespace {

WorldConfig SmallConfig() {
  WorldConfig cfg;
  cfg.bounds = AABB{{0.0, 0.0}, {200.0, 200.0}};
  cfg.num_walls = 100;
  cfg.num_avatars = 10;
  return cfg;
}

TEST(ManhattanWorldTest, InitialStateHasAllAvatars) {
  ManhattanWorld world(SmallConfig(), 1);
  const WorldState& state = world.InitialState();
  EXPECT_EQ(state.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    const Object* avatar = state.Find(ManhattanWorld::AvatarId(i));
    ASSERT_NE(avatar, nullptr);
    const Vec2 pos = avatar->Get(kAttrPosition).AsVec2();
    EXPECT_TRUE(world.config().bounds.Contains(pos));
    const Vec2 dir = avatar->Get(kAttrDirection).AsVec2();
    EXPECT_DOUBLE_EQ(std::abs(dir.x) + std::abs(dir.y), 1.0);  // axis move
    EXPECT_DOUBLE_EQ(avatar->Get(kAttrHealth).AsDouble(), 100.0);
  }
}

TEST(ManhattanWorldTest, DeterministicForSeed) {
  ManhattanWorld a(SmallConfig(), 7);
  ManhattanWorld b(SmallConfig(), 7);
  EXPECT_EQ(a.InitialState().Digest(), b.InitialState().Digest());
  ManhattanWorld c(SmallConfig(), 8);
  EXPECT_NE(a.InitialState().Digest(), c.InitialState().Digest());
}

TEST(ManhattanWorldTest, GridSpawnHonoursSpacing) {
  WorldConfig cfg = SmallConfig();
  cfg.spawn.pattern = SpawnConfig::Pattern::kGrid;
  cfg.spawn.grid_spacing = 4.0;
  cfg.num_avatars = 9;  // 3x3 grid
  ManhattanWorld world(cfg, 1);
  const WorldState& state = world.InitialState();
  const Vec2 p0 = state.GetAttr(ManhattanWorld::AvatarId(0),
                                kAttrPosition).AsVec2();
  const Vec2 p1 = state.GetAttr(ManhattanWorld::AvatarId(1),
                                kAttrPosition).AsVec2();
  EXPECT_NEAR(Distance(p0, p1), 4.0, 1e-9);
}

TEST(ManhattanWorldTest, UniformSpawnSpreadsOut) {
  WorldConfig cfg = SmallConfig();
  cfg.spawn.pattern = SpawnConfig::Pattern::kUniform;
  cfg.num_avatars = 50;
  ManhattanWorld world(cfg, 3);
  // Mean pairwise distance should be a sizable fraction of the world.
  const WorldState& state = world.InitialState();
  double sum = 0.0;
  int pairs = 0;
  for (int i = 0; i < 50; ++i) {
    for (int j = i + 1; j < 50; ++j) {
      sum += Distance(
          state.GetAttr(ManhattanWorld::AvatarId(i), kAttrPosition).AsVec2(),
          state.GetAttr(ManhattanWorld::AvatarId(j), kAttrPosition).AsVec2());
      ++pairs;
    }
  }
  EXPECT_GT(sum / pairs, 50.0);
}

TEST(ManhattanWorldTest, ClusteredSpawnIsDenserThanUniform) {
  WorldConfig uniform_cfg = SmallConfig();
  uniform_cfg.bounds = AABB{{0.0, 0.0}, {1000.0, 1000.0}};
  uniform_cfg.num_avatars = 64;
  uniform_cfg.spawn.pattern = SpawnConfig::Pattern::kUniform;
  WorldConfig cluster_cfg = uniform_cfg;
  cluster_cfg.spawn.pattern = SpawnConfig::Pattern::kClustered;

  ManhattanWorld uniform(uniform_cfg, 5);
  ManhattanWorld clustered(cluster_cfg, 5);
  auto avg_visible = [](const ManhattanWorld& world) {
    const WorldState& state = world.InitialState();
    double total = 0.0;
    for (int i = 0; i < world.config().num_avatars; ++i) {
      const ObjectId id = ManhattanWorld::AvatarId(i);
      total += world.CountAvatarsNear(
          state, state.GetAttr(id, kAttrPosition).AsVec2(), 30.0, id);
    }
    return total / world.config().num_avatars;
  };
  EXPECT_GT(avg_visible(clustered), 3.0 * avg_visible(uniform) + 0.5);
}

TEST(ManhattanWorldTest, MakeMoveDeclaresNearbyAvatars) {
  WorldConfig cfg = SmallConfig();
  cfg.spawn.pattern = SpawnConfig::Pattern::kGrid;
  cfg.spawn.grid_spacing = 4.0;
  cfg.num_avatars = 9;
  cfg.move_effect_range = 10.0;
  ManhattanWorld world(cfg, 1);

  auto move = world.MakeMove(ActionId(1), ClientId(4), 4, 0,
                             world.InitialState(), 300000);
  // Center avatar of a 3x3 grid with spacing 4: everyone is within the
  // declared range (10 + step + diameter).
  EXPECT_EQ(move->ReadSet().size(), 9u);
  EXPECT_EQ(move->WriteSet(), ObjectSet({ManhattanWorld::AvatarId(4)}));
  EXPECT_TRUE(move->ReadSet().Covers(move->WriteSet()));
}

TEST(ManhattanWorldTest, MakeMoveInterestProfile) {
  ManhattanWorld world(SmallConfig(), 2);
  auto move = world.MakeMove(ActionId(1), ClientId(0), 0, 5,
                             world.InitialState(), 300000);
  const InterestProfile profile = move->Interest();
  EXPECT_EQ(profile.radius, world.config().move_effect_range);
  EXPECT_NEAR(profile.velocity.Length(), world.config().speed, 1e-9);
  EXPECT_EQ(move->tick(), 5);
  // Step = speed * period.
  EXPECT_NEAR(move->step(), world.config().speed * 0.3, 1e-9);
}

TEST(ManhattanWorldTest, CountAvatarsNearExcludes) {
  ManhattanWorld world(SmallConfig(), 1);
  const WorldState& state = world.InitialState();
  const ObjectId self = ManhattanWorld::AvatarId(0);
  const Vec2 pos = state.GetAttr(self, kAttrPosition).AsVec2();
  const int with_self =
      world.CountAvatarsNear(state, pos, 500.0, ObjectId::Invalid());
  const int without_self = world.CountAvatarsNear(state, pos, 500.0, self);
  EXPECT_EQ(with_self, without_self + 1);
}

TEST(ManhattanWorldTest, MoveCostGrowsWithWallDensity) {
  WorldConfig sparse = SmallConfig();
  sparse.num_walls = 10;
  WorldConfig dense = SmallConfig();
  dense.num_walls = 2000;
  ManhattanWorld sparse_world(sparse, 1);
  ManhattanWorld dense_world(dense, 1);
  CostModel cost;
  const Vec2 center{100.0, 100.0};
  EXPECT_GT(dense_world.MoveCostAt(dense_world.InitialState(), center, cost),
            sparse_world.MoveCostAt(sparse_world.InitialState(), center,
                                    cost));
}

// One function prices a move: walls out to visibility x the cost model's
// wall-check factor (the paper's ~1,000 checked walls), avatars out to
// visibility.
TEST(ManhattanWorldTest, MoveCostAtPricesWallCheckRadius) {
  WorldConfig cfg = SmallConfig();
  cfg.num_walls = 4000;
  cfg.num_avatars = 30;
  ManhattanWorld world(cfg, 3);
  const WorldState& view = world.InitialState();
  for (const double factor : {1.0, 1.9}) {
    CostModel cost;
    cost.wall_check_radius_factor = factor;
    for (const Vec2 pos : {Vec2{100.0, 100.0}, Vec2{20.0, 170.0}}) {
      const int walls =
          world.walls()->CountNear(pos, cfg.visibility * factor);
      const int avatars = world.CountAvatarsNear(view, pos, cfg.visibility,
                                                 ObjectId::Invalid());
      EXPECT_EQ(world.MoveCostAt(view, pos, cost),
                cost.MoveCost(walls, avatars))
          << "factor " << factor;
    }
  }
}

TEST(ManhattanWorldTest, CountWallsNearMemoizesExactQueries) {
  WorldConfig cfg = SmallConfig();
  cfg.num_walls = 2000;
  ManhattanWorld world(cfg, 4);
  EXPECT_EQ(world.wall_memo_hits(), 0);
  EXPECT_EQ(world.wall_memo_misses(), 0);

  Rng rng(9);
  std::vector<Vec2> spots;
  for (int i = 0; i < 20; ++i) {
    spots.push_back({rng.NextDouble(0.0, 200.0), rng.NextDouble(0.0, 200.0)});
  }
  // A position 1 ulp away from another is a distinct query.
  spots.push_back({std::nextafter(spots[0].x, 1e9), spots[0].y});
  int64_t calls = 0;
  for (int round = 0; round < 3; ++round) {
    for (const Vec2 p : spots) {
      EXPECT_EQ(world.CountWallsNear(p, 57.0),
                world.walls()->CountNear(p, 57.0));
      ++calls;
    }
  }
  EXPECT_EQ(world.wall_memo_misses(), static_cast<int64_t>(spots.size()));
  EXPECT_EQ(world.wall_memo_hits() + world.wall_memo_misses(), calls);

  // Two radii at one position are separate entries.
  const Vec2 p{100.0, 100.0};
  const int64_t misses = world.wall_memo_misses();
  const int near = world.CountWallsNear(p, 10.0);
  const int far = world.CountWallsNear(p, 40.0);
  EXPECT_EQ(near, world.walls()->CountNear(p, 10.0));
  EXPECT_EQ(far, world.walls()->CountNear(p, 40.0));
  EXPECT_LT(near, far);
  EXPECT_EQ(world.wall_memo_misses(), misses + 2);
  EXPECT_EQ(world.CountWallsNear(p, 10.0), near);
  EXPECT_EQ(world.CountWallsNear(p, 40.0), far);
  EXPECT_EQ(world.wall_memo_misses(), misses + 2);
  EXPECT_EQ(world.wall_memo_hits() + world.wall_memo_misses(), calls + 4);
}

TEST(CostModelTest, MoveCostFormula) {
  CostModel cost;
  cost.move_base_us = 100;
  cost.per_wall_us = 7.0;
  cost.per_avatar_us = 50.0;
  EXPECT_EQ(cost.MoveCost(0, 0), 100);
  EXPECT_EQ(cost.MoveCost(1000, 0), 7100);
  EXPECT_EQ(cost.MoveCost(1000, 10), 7600);
}

TEST(CostModelTest, PaperCalibration) {
  // Table-I configuration: the per-move cost should land near the
  // paper's measured 7.44 ms (with ~1000 checked walls and ~7 avatars).
  CostModel cost;
  const Micros move = cost.MoveCost(1000, 7);
  EXPECT_GT(move, 6500);
  EXPECT_LT(move, 8500);
}

}  // namespace
}  // namespace seve
