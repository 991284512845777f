// Fuzz tests for CDU population: the one sweep over both row sources —
// records, and a transaction table of the same records — against the
// naive reference oracle (tests/populate_oracle.hpp), over randomized
// grids, candidates, and records.  populate.cpp static_asserts that a
// BinId is one byte (the sweep compares bin columns a byte at a time), so
// a wider BinId fails to compile rather than silently miscounting.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

#include "grid/adaptive_grid.hpp"
#include "grid/histogram.hpp"
#include "grid/uniform_grid.hpp"
#include "populate_oracle.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/populate.hpp"
#include "units/transaction_table.hpp"

namespace mafia {
namespace {

/// Randomized grid per dimension: either uniform (random xi) or adaptive
/// from a random histogram.
GridSet random_grids(IcgRandom& rng, std::size_t d) {
  GridSet grids;
  for (std::size_t j = 0; j < d; ++j) {
    if (rng() % 2 == 0) {
      const std::size_t xi = 2 + uniform_index(rng, 18);
      grids.dims.push_back(compute_uniform_grid(static_cast<DimId>(j), 0.0f,
                                                100.0f, xi, 0.01, 1000));
    } else {
      AdaptiveGridOptions o;
      o.fine_bins = 50;
      o.window_cells = 2;
      std::vector<Count> counts(50);
      for (auto& c : counts) c = uniform_index(rng, 100);
      // Plant a step so there is usually more than one bin.
      const std::size_t lo = uniform_index(rng, 30);
      for (std::size_t c = lo; c < lo + 10; ++c) counts[c] += 5000;
      grids.dims.push_back(compute_adaptive_grid(static_cast<DimId>(j), 0.0f,
                                                 100.0f, counts, 100000, o));
    }
  }
  return grids;
}

class PopulateFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PopulateFuzz, MatchesOracleOnRandomInstances) {
  IcgRandom rng(GetParam());
  const std::size_t d = 3 + uniform_index(rng, 8);       // 3..10 dims
  const std::size_t k = 1 + uniform_index(rng, std::min<std::size_t>(d, 4));
  const std::size_t ncdu = 1 + uniform_index(rng, 60);
  const std::size_t nrows = 200 + uniform_index(rng, 800);

  const GridSet grids = random_grids(rng, d);
  const UnitStore cdus = random_cdus(rng, grids, k, ncdu);

  std::vector<Value> rows(nrows * d);
  for (auto& v : rows) {
    // Mostly in-domain, some outside to exercise clamping.
    v = static_cast<Value>(uniform_real(rng, -10.0, 110.0));
  }

  UnitPopulator pop(grids, cdus);
  pop.accumulate(rows.data(), nrows);
  const auto expected = oracle_counts(grids, cdus, rows.data(), nrows);
  ASSERT_EQ(pop.counts().size(), expected.size());
  for (std::size_t u = 0; u < expected.size(); ++u) {
    EXPECT_EQ(pop.counts()[u], expected[u]) << "cdu " << cdus.to_string(u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PopulateFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

// Wide-unit fuzz: arities k in 6..10, with random block sizes, each
// instance run through both row sources and compared count-for-count
// against the oracle.
class PackedKeyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackedKeyFuzz, StraddlesPackedBoundaryAgainstOracle) {
  IcgRandom rng(GetParam() * 6364136223846793005ull + 1);
  const std::size_t d = 10 + uniform_index(rng, 6);  // 10..15 dims
  const std::size_t k = 6 + uniform_index(rng, 5);   // 6..10
  const std::size_t ncdu = 1 + uniform_index(rng, 150);
  const std::size_t nrows = 300 + uniform_index(rng, 700);

  const GridSet grids = random_grids(rng, d);
  const UnitStore cdus = random_cdus(rng, grids, k, ncdu);
  std::vector<Value> rows(nrows * d);
  for (auto& v : rows) {
    v = static_cast<Value>(uniform_real(rng, -10.0, 110.0));
  }
  const auto expected = oracle_counts(grids, cdus, rows.data(), nrows);

  TransactionTable table(grids, cdus, std::numeric_limits<std::size_t>::max());
  table.accumulate(rows.data(), nrows);
  table.finish();

  for (int round = 0; round < 3; ++round) {
    PopulateConfig cfg;
    cfg.block_records = 1 + uniform_index(rng, 512);
    for (const bool swept_table : {false, true}) {
      UnitPopulator pop(grids, cdus, cfg);
      if (swept_table) {
        pop.accumulate(table);
      } else {
        pop.accumulate(rows.data(), nrows);
      }
      ASSERT_EQ(pop.counts().size(), expected.size());
      for (std::size_t u = 0; u < expected.size(); ++u) {
        ASSERT_EQ(pop.counts()[u], expected[u])
            << "cdu " << cdus.to_string(u) << " k=" << k
            << " source=" << (swept_table ? "table" : "records")
            << " block=" << cfg.block_records;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedKeyFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(PopulateInvariant, LevelOneCountsPartitionTheRecords) {
  // The level-1 candidate set is every bin of every dimension; since bins
  // tile each dimension, the counts of one dimension's bins must sum to N.
  IcgRandom rng(4242);
  const std::size_t d = 5;
  const GridSet grids = random_grids(rng, d);
  UnitStore cdus(1);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t b = 0; b < grids[j].num_bins(); ++b) {
      const auto dj = static_cast<DimId>(j);
      const auto bb = static_cast<BinId>(b);
      cdus.push_unchecked(&dj, &bb);
    }
  }
  constexpr std::size_t kRows = 5000;
  std::vector<Value> rows(kRows * d);
  for (auto& v : rows) v = static_cast<Value>(uniform_real(rng, 0.0, 100.0));

  UnitPopulator pop(grids, cdus);
  pop.accumulate(rows.data(), kRows);
  std::size_t at = 0;
  for (std::size_t j = 0; j < d; ++j) {
    Count sum = 0;
    for (std::size_t b = 0; b < grids[j].num_bins(); ++b) sum += pop.counts()[at++];
    EXPECT_EQ(sum, kRows) << "dimension " << j << " bins do not tile";
  }
}

}  // namespace
}  // namespace mafia
