#include "world/wall.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

namespace seve {
namespace {

AABB Bounds() { return AABB{{0.0, 0.0}, {1000.0, 1000.0}}; }

TEST(WallFieldTest, GeneratesRequestedCount) {
  Rng rng(1);
  auto field = WallField::Generate(Bounds(), 500, 10.0, &rng);
  EXPECT_EQ(field->size(), 500u);
  EXPECT_EQ(field->bounds().max, Vec2(1000.0, 1000.0));
}

TEST(WallFieldTest, ZeroWalls) {
  Rng rng(1);
  auto field = WallField::Generate(Bounds(), 0, 10.0, &rng);
  EXPECT_EQ(field->size(), 0u);
  EXPECT_EQ(field->CountNear({500.0, 500.0}, 100.0), 0);
  EXPECT_FALSE(
      field->FirstHit({0.0, 0.0}, {1.0, 0.0}, 100.0, 1.0).has_value());
}

TEST(WallFieldTest, WallsAreAxisAlignedAndInBounds) {
  Rng rng(2);
  auto field = WallField::Generate(Bounds(), 200, 10.0, &rng);
  for (size_t i = 0; i < field->size(); ++i) {
    const Segment s = field->wall(i);
    EXPECT_TRUE(s.a.x == s.b.x || s.a.y == s.b.y) << "wall " << i;
    EXPECT_TRUE(Bounds().Contains(s.a));
    EXPECT_TRUE(Bounds().Contains(s.b));
    EXPECT_LE(s.Length(), 10.0 + 1e-9);
  }
}

TEST(WallFieldTest, DeterministicForSeed) {
  Rng rng1(42), rng2(42);
  auto f1 = WallField::Generate(Bounds(), 100, 10.0, &rng1);
  auto f2 = WallField::Generate(Bounds(), 100, 10.0, &rng2);
  for (size_t i = 0; i < f1->size(); ++i) {
    EXPECT_EQ(f1->wall(i).a, f2->wall(i).a);
    EXPECT_EQ(f1->wall(i).b, f2->wall(i).b);
  }
}

TEST(WallFieldTest, CountNearMatchesBruteForce) {
  Rng rng(3);
  auto field = WallField::Generate(Bounds(), 300, 10.0, &rng);
  const Vec2 center{500.0, 500.0};
  const double radius = 75.0;
  int expected = 0;
  for (size_t i = 0; i < field->size(); ++i) {
    if (CircleIntersectsSegment(center, radius, field->wall(i))) {
      ++expected;
    }
  }
  EXPECT_EQ(field->CountNear(center, radius), expected);
}

TEST(WallFieldTest, DensityScalesWithCount) {
  Rng rng(4);
  auto sparse = WallField::Generate(Bounds(), 1000, 10.0, &rng);
  auto dense = WallField::Generate(Bounds(), 10000, 10.0, &rng);
  const int sparse_count = sparse->CountNear({500.0, 500.0}, 100.0);
  const int dense_count = dense->CountNear({500.0, 500.0}, 100.0);
  EXPECT_GT(dense_count, sparse_count * 5);
}

TEST(WallFieldTest, FirstHitFindsNearestWall) {
  Rng rng(1);
  auto field = WallField::Generate(Bounds(), 0, 10.0, &rng);
  // No generated walls; use a dedicated field with known walls via a
  // dense generation and a straight probe instead: place the probe so it
  // cannot miss — fall back to checking consistency of FirstHit with
  // CountNear on a dense field.
  auto dense = WallField::Generate(Bounds(), 50000, 10.0, &rng);
  const auto hit =
      dense->FirstHit({500.0, 500.0}, {1.0, 0.0}, 200.0, 0.5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_GE(hit->first, 0.0);
  EXPECT_LE(hit->first, 200.0);
  EXPECT_LT(hit->second, dense->size());
  // The returned wall really is within contact range at the hit point.
  const Vec2 contact = Vec2{500.0, 500.0} + Vec2{1.0, 0.0} * hit->first;
  EXPECT_LE(DistancePointSegment(contact, dense->wall(hit->second)),
            0.5 + 1e-6);
}

// Differential check of the CSR index against a scan of every wall with
// the same two-stage predicate: box overlap with the query box, then the
// exact test. Each field is the param; every query is seeded.
struct FieldCase {
  const char* name;
  AABB bounds;
  int walls;
  double wall_length;
};

void PrintTo(const FieldCase& c, std::ostream* os) { *os << c.name; }

class WallFieldDifferentialTest : public ::testing::TestWithParam<FieldCase> {
 protected:
  static int ScanCount(const WallField& f, Vec2 center, double radius) {
    const AABB query = AABB::FromCircle(center, radius);
    int count = 0;
    for (size_t i = 0; i < f.size(); ++i) {
      const Segment s = f.wall(i);
      if (AABB::FromSegment(s.a, s.b).Intersects(query) &&
          CircleIntersectsSegment(center, radius, s)) {
        ++count;
      }
    }
    return count;
  }

  static std::optional<double> ScanFirstHit(const WallField& f, Vec2 start,
                                            Vec2 dir, double max_dist,
                                            double radius) {
    AABB sweep = AABB::FromSegment(start, start + dir * max_dist);
    sweep.min -= Vec2{radius, radius};
    sweep.max += Vec2{radius, radius};
    std::optional<double> best;
    for (size_t i = 0; i < f.size(); ++i) {
      const Segment s = f.wall(i);
      if (!AABB::FromSegment(s.a, s.b).Intersects(sweep)) continue;
      const auto hit = MovingCircleSegmentHit(start, dir, max_dist, radius, s);
      if (hit.has_value() && (!best.has_value() || *hit < *best)) best = hit;
    }
    return best;
  }

  static void ExpectFirstHitMatches(const WallField& f, Vec2 start, Vec2 dir,
                                    double max_dist, double radius) {
    const auto got = f.FirstHit(start, dir, max_dist, radius);
    const auto want = ScanFirstHit(f, start, dir, max_dist, radius);
    ASSERT_EQ(got.has_value(), want.has_value())
        << "start=(" << start.x << "," << start.y << ") dir=(" << dir.x
        << "," << dir.y << ") dist=" << max_dist << " r=" << radius;
    if (!got.has_value()) return;
    EXPECT_EQ(got->first, *want);
    // On exact ties any of the tied walls may be returned; it must be one
    // that really stops the circle at that distance.
    ASSERT_LT(got->second, f.size());
    EXPECT_EQ(MovingCircleSegmentHit(start, dir, max_dist, radius,
                                     f.wall(got->second)),
              got->first);
  }
};

TEST_P(WallFieldDifferentialTest, CountNearAndFirstHitMatchScan) {
  const FieldCase& c = GetParam();
  Rng rng(77);
  const auto field = WallField::Generate(c.bounds, c.walls, c.wall_length,
                                         &rng);
  ASSERT_EQ(field->size(), static_cast<size_t>(c.walls));
  const AABB& b = c.bounds;
  // Queries range 30% of the world past each side: they straddle the
  // bounds and leave them entirely.
  const Vec2 margin{0.3 * b.Width(), 0.3 * b.Height()};
  auto random_point = [&] {
    return Vec2{rng.NextDouble(b.min.x - margin.x, b.max.x + margin.x),
                rng.NextDouble(b.min.y - margin.y, b.max.y + margin.y)};
  };
  const double extent = std::max(b.Width(), b.Height());

  for (int q = 0; q < 300; ++q) {
    const Vec2 center = random_point();
    double radius = 0.0;
    switch (q % 4) {
      case 0:
        radius = 0.0;
        break;
      case 1:
        radius = rng.NextDouble(0.0, 2.0 * c.wall_length);
        break;
      default:
        radius = rng.NextDouble(0.0, 0.2 * extent);
        break;
    }
    EXPECT_EQ(field->CountNear(center, radius),
              ScanCount(*field, center, radius))
        << "center=(" << center.x << "," << center.y << ") r=" << radius;

    const double angle = rng.NextDouble(0.0, 6.283185307179586);
    const Vec2 axis[] = {{1.0, 0.0}, {-1.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}};
    const Vec2 dir = q % 2 == 0 ? axis[rng.NextBounded(4)]
                                : Vec2{std::cos(angle), std::sin(angle)};
    ExpectFirstHitMatches(*field, center, dir,
                          rng.NextDouble(0.0, 3.0 * c.wall_length),
                          q % 5 == 0 ? 0.0 : rng.NextDouble(0.0, 3.0));
  }

  // Radius 0 on wall endpoints and midpoints (touching counts), and
  // zero-length probes from there.
  for (size_t i = 0; i < field->size(); i += 97) {
    const Segment s = field->wall(i);
    for (const Vec2 p : {s.a, s.b, (s.a + s.b) * 0.5}) {
      EXPECT_EQ(field->CountNear(p, 0.0), ScanCount(*field, p, 0.0));
      ExpectFirstHitMatches(*field, p, {1.0, 0.0}, 0.0, 0.0);
    }
  }

  // Whole-world and far-away queries, and a sweep across the world.
  const Vec2 mid = (b.min + b.max) * 0.5;
  EXPECT_EQ(field->CountNear(mid, extent), c.walls);
  EXPECT_EQ(field->CountNear(b.max + Vec2{1e6, 1e6}, 10.0), 0);
  EXPECT_EQ(field->CountNear(b.min - Vec2{1e6, 1e6}, 10.0), 0);
  ExpectFirstHitMatches(*field, {b.min.x - margin.x, mid.y}, {1.0, 0.0},
                        b.Width() + 2.0 * margin.x, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, WallFieldDifferentialTest,
    ::testing::Values(
        // Table I's density and wall length.
        FieldCase{"tableI", AABB{{0.0, 0.0}, {300.0, 300.0}}, 9000, 10.0},
        // Walls several cells long; a fifth of them clamped at the bounds.
        FieldCase{"long", AABB{{0.0, 0.0}, {200.0, 200.0}}, 4000, 40.0},
        // Off-origin, non-square world with negative coordinates.
        FieldCase{"offset", AABB{{-300.0, -100.0}, {100.0, 700.0}}, 3000,
                  15.0},
        // Zero-area bounds: every wall lies on one line.
        FieldCase{"strip", AABB{{0.0, 0.0}, {100.0, 0.0}}, 500, 10.0},
        FieldCase{"empty", AABB{{0.0, 0.0}, {1000.0, 1000.0}}, 0, 10.0}),
    [](const ::testing::TestParamInfo<FieldCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace seve
