#include "grid/bin_locator.hpp"

namespace mafia {

BinLocator::BinLocator(const DimensionGrid& grid)
    : edges_(grid.edges.data()),
      last_(grid.num_bins() - 1),
      lo_(grid.edges.empty() ? 0.0 : grid.edges.front()) {
  require(grid.num_bins() >= 1, "BinLocator: grid has no bins");
  const double span = static_cast<double>(grid.edges.back()) - lo_;
  scale_ = span > 0 ? static_cast<double>(kLocatorCells) / span : 0.0;
  // Cell c starts at lo + c / scale; give it the bin that point lies in,
  // advancing one bin pointer over the edges as the cells ascend.
  std::size_t b = 0;
  for (std::size_t c = 0; c < kLocatorCells; ++c) {
    const double x = scale_ > 0 ? lo_ + static_cast<double>(c) / scale_ : lo_;
    while (b < last_ && static_cast<double>(edges_[b + 1]) <= x) ++b;
    start_[c] = static_cast<BinId>(b);
  }
}

}  // namespace mafia
