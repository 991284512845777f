// Exact cell-table bin locator: DimensionGrid::bin_of without the binary
// search.
//
// bin_of runs std::upper_bound over a dimension's edges for every value,
// a chain of data-dependent branches that dominates a streamed populate
// pass.  The locator cuts [edges.front(), edges.back()] into kLocatorCells
// equal cells and records, per cell, the bin its lower end falls in.  A
// lookup computes the value's cell, starts at that bin and then steps down
// while v < edges[b] and up while v >= edges[b + 1].  The steps enforce the
// same edge inequalities upper_bound does (and the same clamps outside the
// domain), so the result equals bin_of for every finite float whatever the
// cell arithmetic rounds to; the table only decides how many steps it
// takes, usually none.  bin_of stays the definition and the test oracle.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "grid/grid_types.hpp"

namespace mafia {

/// Cells per locator table.  On a grid of up to ~64 bins a lookup almost
/// never steps (~3-5 ns against bin_of's ~13-35 ns on a 4-core x86 host);
/// a 256-bin dim takes about one step (~12 ns against ~50 ns).  A table is
/// 256 bytes, so a 30-dim level's tables stay in L1 beside its block, and
/// the budget they add stays small next to the populate lookups.
inline constexpr std::size_t kLocatorCells = 256;

class BinLocator {
 public:
  /// Bytes of one cell table (what a budget counts per located dim).
  static constexpr std::size_t kTableBytes = kLocatorCells * sizeof(BinId);

  /// Builds the cell table for `grid` in one walk over its edges.  `grid`
  /// needs at least one bin and must outlive the locator.
  explicit BinLocator(const DimensionGrid& grid);

  /// bin_of(v) for every finite v.  A NaN lands in bin 0 (bin_of has no
  /// bin for it); the parsers reject non-finite values before they get here.
  [[nodiscard]] BinId locate(Value v) const {
    // max(0, NaN) is 0, so the cast below only ever sees [0, cells - 1].
    const double x = std::min(std::max(0.0, (static_cast<double>(v) - lo_) * scale_),
                              static_cast<double>(kLocatorCells - 1));
    std::size_t b = start_[static_cast<std::size_t>(x)];
    // Non-short-circuit &: the end-of-grid guards would otherwise branch
    // on the start bin, which is unpredictable on a grid of a few bins.
    while ((b > 0) & (v < edges_[b])) --b;
    while ((b < last_) & (v >= edges_[b + 1])) ++b;
    return static_cast<BinId>(b);
  }

 private:
  const Value* edges_;
  std::size_t last_;  // num_bins() - 1
  double lo_;
  double scale_;      // cells per unit of value
  std::array<BinId, kLocatorCells> start_;
};

}  // namespace mafia
