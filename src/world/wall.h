#ifndef SEVE_WORLD_WALL_H_
#define SEVE_WORLD_WALL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "spatial/aabb.h"
#include "spatial/geometry.h"

namespace seve {

/// The immutable obstacle layer of a Manhattan People world: up to
/// 100,000 axis-aligned walls in a CSR (compressed sparse row) grid.
///
/// Walls never change, so a single WallField is shared (by const pointer)
/// between the server, all simulated clients, and every MoveAction —
/// exactly like the static obstruction data every real client ships with.
///
/// Layout: every wall is filed once, under the grid cell of its midpoint,
/// and the cells' runs are laid out row-major in one array (`cell_start_`
/// marks where each cell's run begins), so a query's cells in one grid
/// row are one contiguous run. Wall endpoints are stored as four parallel
/// coordinate arrays in that order; since generated walls run from `a`
/// to `b >= a` componentwise, each segment is its own bounding box.
/// A query widens its cell range by the largest half-extent of any wall
/// (plus rounding slack), which reaches every wall whose box overlaps
/// the query box; it then keeps the walls whose box overlaps the
/// unwidened query box and that pass the exact geometric test. Queries
/// keep no per-call state, so they are safe from any number of threads.
class WallField {
 public:
  /// Generates `count` axis-aligned walls of `wall_length`, uniformly
  /// placed in `bounds` (alternating horizontal/vertical orientation).
  static std::shared_ptr<const WallField> Generate(const AABB& bounds,
                                                   int count,
                                                   double wall_length,
                                                   Rng* rng);

  const AABB& bounds() const { return bounds_; }
  size_t size() const { return ax_.size(); }
  /// The i-th wall in storage (cell) order — not generation order.
  Segment wall(size_t i) const {
    return Segment{{ax_[i], ay_[i]}, {bx_[i], by_[i]}};
  }

  /// Number of walls within `radius` of `center` — the "visible walls"
  /// count driving per-move CPU cost.
  int CountNear(Vec2 center, double radius) const;

  /// First wall hit by a circle of `radius` moving from `start` along
  /// `dir` for `max_dist`; returns (travel distance, wall index). Walls
  /// tied at that distance may return any of their indices.
  std::optional<std::pair<double, size_t>> FirstHit(Vec2 start, Vec2 dir,
                                                    double max_dist,
                                                    double radius) const;

 private:
  WallField(const AABB& bounds, size_t count);

  /// Calls `fn(i)` once for every wall whose box overlaps `query`.
  template <typename Fn>
  void ForEachInBox(const AABB& query, Fn&& fn) const;

  /// Grid column (or row) of `coord` on an axis starting at `origin`
  /// with `cells` cells, clamped to the grid. Monotone in `coord`.
  int Cell(double coord, double origin, int cells) const;
  /// Row-major index of the cell holding the midpoint of `s`.
  size_t CellOf(const Segment& s) const;

  AABB bounds_;
  double cell_size_ = 1.0;
  int nx_ = 1;
  int ny_ = 1;
  /// How far a query box is widened to reach every wall overlapping it.
  double reach_ = 0.0;
  /// Cell c's walls are [cell_start_[c], cell_start_[c + 1]).
  std::vector<uint32_t> cell_start_;
  std::vector<double> ax_, ay_, bx_, by_;
};

}  // namespace seve

#endif  // SEVE_WORLD_WALL_H_
