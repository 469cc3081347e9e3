#include "world/wall.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace seve {
namespace {

// Average walls per grid cell. Cells this small keep the candidates a
// query's cell range adds around its box few; a query then walks more
// row runs, each of which costs two loads.
constexpr double kWallsPerCell = 2.0;
// Caps the cell array (4 bytes a cell) for worlds of millions of walls,
// and keeps cells wider than zero when the bounds have no area.
constexpr double kMaxCellsPerAxis = 1024.0;

}  // namespace

WallField::WallField(const AABB& bounds, size_t count) : bounds_(bounds) {
  const double extent = std::max(bounds.Width(), bounds.Height());
  if (extent > 0.0) {
    const double cell_area = bounds.Width() * bounds.Height() *
                             kWallsPerCell /
                             static_cast<double>(std::max<size_t>(count, 1));
    cell_size_ = std::max(std::sqrt(cell_area), extent / kMaxCellsPerAxis);
  }
  nx_ = std::max(1, static_cast<int>(std::ceil(bounds.Width() / cell_size_)));
  ny_ = std::max(1,
                 static_cast<int>(std::ceil(bounds.Height() / cell_size_)));
  cell_start_.assign(static_cast<size_t>(nx_) * static_cast<size_t>(ny_) + 1,
                     0);
}

int WallField::Cell(double coord, double origin, int cells) const {
  const double rel = (coord - origin) / cell_size_;
  if (!(rel > 0.0)) return 0;  // NaN lands here too
  if (rel >= static_cast<double>(cells)) return cells - 1;
  return static_cast<int>(rel);
}

size_t WallField::CellOf(const Segment& s) const {
  return static_cast<size_t>(Cell(0.5 * (s.a.y + s.b.y), bounds_.min.y, ny_)) *
             static_cast<size_t>(nx_) +
         static_cast<size_t>(Cell(0.5 * (s.a.x + s.b.x), bounds_.min.x, nx_));
}

std::shared_ptr<const WallField> WallField::Generate(const AABB& bounds,
                                                     int count,
                                                     double wall_length,
                                                     Rng* rng) {
  const size_t n = static_cast<size_t>(std::max(count, 0));
  // make_shared cannot reach the private constructor; ownership
  // transfers to the shared_ptr on the same line.
  // seve-lint: allow(mem-raw-new): private-ctor shared_ptr adoption
  auto field = std::shared_ptr<WallField>(new WallField(bounds, n));

  // Draw every wall in generation order (that order fixes the RNG
  // stream), then file each under its midpoint's cell with a stable
  // counting sort.
  std::vector<Segment> drawn;
  drawn.reserve(n);
  std::vector<uint32_t>& start = field->cell_start_;
  double half_extent = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const bool horizontal = (i % 2) == 0;
    const Vec2 a{rng->NextDouble(bounds.min.x, bounds.max.x),
                 rng->NextDouble(bounds.min.y, bounds.max.y)};
    Vec2 b = horizontal ? Vec2{a.x + wall_length, a.y}
                        : Vec2{a.x, a.y + wall_length};
    b = bounds.Clamp(b);
    // Lower endpoint first, so the segment is its own box (a no-op for
    // every wall_length >= 0).
    const Segment s{{std::min(a.x, b.x), std::min(a.y, b.y)},
                    {std::max(a.x, b.x), std::max(a.y, b.y)}};
    half_extent = std::max(
        {half_extent, 0.5 * (s.b.x - s.a.x), 0.5 * (s.b.y - s.a.y)});
    ++start[field->CellOf(s) + 1];
    drawn.push_back(s);
  }
  for (size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];

  std::vector<uint32_t> next(start.begin(), start.end() - 1);
  field->ax_.resize(n);
  field->ay_.resize(n);
  field->bx_.resize(n);
  field->by_.resize(n);
  for (const Segment& s : drawn) {
    const uint32_t slot = next[field->CellOf(s)]++;
    field->ax_[slot] = s.a.x;
    field->ay_[slot] = s.a.y;
    field->bx_[slot] = s.b.x;
    field->by_[slot] = s.b.y;
  }

  // A wall whose box overlaps a query box has its midpoint within
  // half_extent of that box on each axis. The computed midpoint and the
  // computed widened edges each round once, at magnitudes up to
  // max_coord + half_extent; the slack covers both roundings many times.
  const double max_coord = std::max({std::abs(bounds.min.x),
                                     std::abs(bounds.min.y),
                                     std::abs(bounds.max.x),
                                     std::abs(bounds.max.y)});
  field->reach_ = half_extent + 1e-9 * (max_coord + half_extent);
  return field;
}

template <typename Fn>
void WallField::ForEachInBox(const AABB& query, Fn&& fn) const {
  const auto x0 = static_cast<size_t>(
      Cell(query.min.x - reach_, bounds_.min.x, nx_));
  const auto x1 = static_cast<size_t>(
      Cell(query.max.x + reach_, bounds_.min.x, nx_));
  const int y0 = Cell(query.min.y - reach_, bounds_.min.y, ny_);
  const int y1 = Cell(query.max.y + reach_, bounds_.min.y, ny_);
  for (int cy = y0; cy <= y1; ++cy) {
    // Cells x0..x1 of one row are one contiguous run.
    const size_t row = static_cast<size_t>(cy) * static_cast<size_t>(nx_);
    const uint32_t end = cell_start_[row + x1 + 1];
    for (uint32_t i = cell_start_[row + x0]; i < end; ++i) {
      if (ax_[i] <= query.max.x && query.min.x <= bx_[i] &&
          ay_[i] <= query.max.y && query.min.y <= by_[i]) {
        fn(static_cast<size_t>(i));
      }
    }
  }
}

int WallField::CountNear(Vec2 center, double radius) const {
  int count = 0;
  ForEachInBox(AABB::FromCircle(center, radius), [&](size_t i) {
    if (CircleIntersectsSegment(center, radius, wall(i))) ++count;
  });
  return count;
}

std::optional<std::pair<double, size_t>> WallField::FirstHit(
    Vec2 start, Vec2 dir, double max_dist, double radius) const {
  // Query the swept corridor's bounding box, inflated by the radius.
  const Vec2 end = start + dir * max_dist;
  AABB sweep = AABB::FromSegment(start, end);
  sweep.min -= Vec2{radius, radius};
  sweep.max += Vec2{radius, radius};

  double best_dist = std::numeric_limits<double>::infinity();
  size_t best_idx = 0;
  bool found = false;
  ForEachInBox(sweep, [&](size_t i) {
    const auto hit =
        MovingCircleSegmentHit(start, dir, max_dist, radius, wall(i));
    if (hit.has_value() && *hit < best_dist) {
      best_dist = *hit;
      best_idx = i;
      found = true;
    }
  });
  if (!found) return std::nullopt;
  return std::make_pair(best_dist, best_idx);
}

}  // namespace seve
