// Oracle-differential proof of the populate sweeps.
//
// Both row sources are driven over the same instances as the naive
// reference oracle (tests/populate_oracle.hpp) and must produce identical
// counts: records through the bitmap sweep, and a transaction table built
// from the same records through the lookups (packed/sorted, packed/hash,
// and the memcmp rows past the k = 8 packed-key limit).  The instances
// cover the adversarial surface explicitly — k = 1, the k = 8/9 packed-key
// boundary, a 256-bin dimension (full BinId range), duplicate bin rows
// across and within subspaces, records outside every CDU, block sizes
// around the 64-bit word — plus randomized differential sweeps over
// datagen workloads with planted subspace clusters.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "datagen/generator.hpp"
#include "grid/bin_locator.hpp"
#include "grid/uniform_grid.hpp"
#include "populate_oracle.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/populate.hpp"
#include "units/transaction_table.hpp"

namespace mafia {
namespace {

/// Block/hash configurations every differential case runs under: block
/// sizes straddling the record counts and the 64-bit word (1 record, odd,
/// one word, larger than the data), and hash thresholds forcing the
/// open-addressing table on and off.
std::vector<PopulateConfig> config_matrix() {
  constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  return {
      {2048, 48},    // production defaults
      {1, 48},       // single-record blocks
      {3, 1},        // odd blocks, hash table always
      {64, kNever},  // one-word blocks, sorted-array search always
      {7, 48},
  };
}

/// `rows` folded into a finished transaction table keyed on `cdus`.
TransactionTable table_of(const GridSet& grids, const UnitStore& cdus,
                          const std::vector<Value>& rows) {
  TransactionTable t(grids, cdus, std::numeric_limits<std::size_t>::max());
  t.accumulate(rows.data(), rows.size() / grids.num_dims());
  t.finish();
  return t;
}

/// Runs every configuration over the instance through both row sources —
/// the records in two accumulate calls (a chunk boundary), and their
/// transaction table — and asserts count-exact agreement with the oracle.
void expect_all_kernels_match_oracle(const GridSet& grids,
                                     const UnitStore& cdus,
                                     const std::vector<Value>& rows) {
  const std::size_t d = grids.num_dims();
  const std::size_t nrows = rows.size() / d;
  const std::vector<Count> expected =
      oracle_counts(grids, cdus, rows.data(), nrows);
  const TransactionTable table = table_of(grids, cdus, rows);
  ASSERT_FALSE(table.abandoned());

  for (const PopulateConfig& cfg : config_matrix()) {
    UnitPopulator records(grids, cdus, cfg);
    const std::size_t split = nrows / 3;
    records.accumulate(rows.data(), split);
    records.accumulate(rows.data() + split * d, nrows - split);
    UnitPopulator swept(grids, cdus, cfg);
    swept.accumulate(table);
    for (const UnitPopulator* pop : {&records, &swept}) {
      const char* source = pop == &records ? "records" : "table";
      ASSERT_EQ(pop->counts().size(), expected.size());
      for (std::size_t u = 0; u < expected.size(); ++u) {
        ASSERT_EQ(pop->counts()[u], expected[u])
            << "cdu " << cdus.to_string(u) << " source=" << source
            << " block=" << cfg.block_records
            << " hash_min=" << cfg.hash_min_cdus;
      }
    }
  }
}

/// Uniform grids over [0, 100] with the given bins per dimension.
GridSet uniform_grids(std::size_t d, std::size_t bins) {
  GridSet grids;
  for (std::size_t j = 0; j < d; ++j) {
    grids.dims.push_back(compute_uniform_grid(static_cast<DimId>(j), 0.0f,
                                              100.0f, bins, 0.01, 1000));
  }
  return grids;
}

std::vector<Value> random_rows(IcgRandom& rng, std::size_t nrows,
                               std::size_t d, double lo = -10.0,
                               double hi = 110.0) {
  std::vector<Value> rows(nrows * d);
  for (auto& v : rows) v = static_cast<Value>(uniform_real(rng, lo, hi));
  return rows;
}

TEST(PopulateOracle, SingleDimensionCandidates) {
  IcgRandom rng(101);
  const GridSet grids = uniform_grids(6, 10);
  const UnitStore cdus = random_cdus(rng, grids, 1, 40);
  expect_all_kernels_match_oracle(grids, cdus, random_rows(rng, 700, 6));
}

TEST(PopulateOracle, PackedKeyBoundaryKEight) {
  // k = 8: the widest unit that still packs into one 64-bit key.
  IcgRandom rng(102);
  const GridSet grids = uniform_grids(12, 8);
  const UnitStore cdus = random_cdus(rng, grids, 8, 120);
  expect_all_kernels_match_oracle(grids, cdus, random_rows(rng, 600, 12));
}

TEST(PopulateOracle, PackedKeyBoundaryKNine) {
  // k = 9: one past the packed-key limit — the table sweep falls back to
  // the memcmp rows and must agree all the same.
  IcgRandom rng(103);
  const GridSet grids = uniform_grids(12, 8);
  const UnitStore cdus = random_cdus(rng, grids, 9, 120);
  expect_all_kernels_match_oracle(grids, cdus, random_rows(rng, 600, 12));
}

TEST(PopulateOracle, FullBinIdRangeIn256BinDimension) {
  // One dimension at the BinId limit (256 bins): bin indices occupy the
  // full byte range, so any packing arithmetic that loses high bits or
  // sign-extends 0x80.. bytes shows up as count drift.
  IcgRandom rng(104);
  GridSet grids;
  grids.dims.push_back(compute_uniform_grid(0, 0.0f, 100.0f, 256, 0.01, 1000));
  grids.dims.push_back(compute_uniform_grid(1, 0.0f, 100.0f, 256, 0.01, 1000));
  grids.dims.push_back(compute_uniform_grid(2, 0.0f, 100.0f, 5, 0.01, 1000));

  UnitStore cdus(2);
  // Deliberately include the extreme bins 0 and 255 alongside random rows.
  for (const BinId hot : {BinId{0}, BinId{127}, BinId{128}, BinId{255}}) {
    const DimId dims01[2] = {0, 1};
    const BinId bins[2] = {hot, hot};
    cdus.push_unchecked(dims01, bins);
    const DimId dims02[2] = {0, 2};
    const BinId bins2[2] = {hot, 3};
    cdus.push_unchecked(dims02, bins2);
  }
  const UnitStore extra = random_cdus(rng, grids, 2, 90);
  UnitStore all(2);
  all.append(cdus);
  all.append(extra);
  expect_all_kernels_match_oracle(grids, all, random_rows(rng, 2000, 3));
}

TEST(PopulateOracle, DuplicateBinRowsAcrossSubspaces) {
  // The same bin tuple planted in several distinct dimension sets: packed
  // keys collide numerically across subspaces, so any state shared between
  // subspace sweeps would miscount.
  IcgRandom rng(105);
  const GridSet grids = uniform_grids(8, 10);
  UnitStore cdus(3);
  const BinId bins[3] = {4, 4, 4};
  for (const auto& dims : std::vector<std::vector<DimId>>{
           {0, 1, 2}, {0, 1, 3}, {2, 3, 4}, {5, 6, 7}, {0, 6, 7}}) {
    cdus.push_unchecked(dims.data(), bins);
  }
  const UnitStore extra = random_cdus(rng, grids, 3, 50);
  UnitStore all(3);
  all.append(cdus);
  all.append(extra);
  expect_all_kernels_match_oracle(grids, all, random_rows(rng, 1500, 8));
}

TEST(PopulateOracle, DuplicateCandidatesWithinASubspace) {
  // Identical CDUs repeated in one subspace (dedup normally removes these;
  // the counting contract must hold regardless): every duplicate row gets
  // the full count, in every kernel — including the hash table, whose
  // slots point at the first row of an equal run.
  IcgRandom rng(106);
  const GridSet grids = uniform_grids(5, 10);
  UnitStore cdus(2);
  const DimId dims[2] = {1, 3};
  for (int rep = 0; rep < 3; ++rep) {
    const BinId bins[2] = {2, 7};
    cdus.push_unchecked(dims, bins);
  }
  const BinId other[2] = {2, 8};
  cdus.push_unchecked(dims, other);
  const UnitStore extra = random_cdus(rng, grids, 2, 60);
  UnitStore all(2);
  all.append(cdus);
  all.append(extra);
  expect_all_kernels_match_oracle(grids, all, random_rows(rng, 1200, 5));

  // Spot-check the contract directly: the three duplicates carry equal
  // counts in the production configuration.
  UnitPopulator pop(grids, all);
  pop.accumulate(random_rows(rng, 500, 5).data(), 500);
  EXPECT_EQ(pop.counts()[0], pop.counts()[1]);
  EXPECT_EQ(pop.counts()[1], pop.counts()[2]);
}

TEST(PopulateOracle, RecordsOutsideEveryCandidate) {
  // All CDUs sit in bins the records never touch: every kernel must report
  // all-zero counts (the lookup misses on every record).
  const GridSet grids = uniform_grids(4, 10);
  UnitStore cdus(2);
  for (DimId a = 0; a < 3; ++a) {
    const DimId dims[2] = {a, static_cast<DimId>(a + 1)};
    const BinId bins[2] = {9, 9};  // top bin: records below never reach it
    cdus.push_unchecked(dims, bins);
  }
  IcgRandom rng(107);
  // Records confined to [0, 50) -> bins 0..4 only.
  const std::vector<Value> rows = random_rows(rng, 800, 4, 0.0, 50.0);
  expect_all_kernels_match_oracle(grids, cdus, rows);
  UnitPopulator pop(grids, cdus);
  pop.accumulate(rows.data(), 800);
  for (const Count c : pop.counts()) EXPECT_EQ(c, 0u);
}

TEST(PopulateOracle, HashTableKeepsHeadroomAtPowerOfTwoMemberCounts) {
  // Regression guard for the open-addressing table sizing: at exactly 64
  // CDUs in one subspace — a power-of-two member count — a `next_pow2(n)`
  // capacity would be 64 slots for 64 keys (load factor 1.0), degrading
  // probe chains toward O(n) and, with the final empty slot filled, turning
  // the miss-probe loop into an infinite scan.  hash_table_capacity must
  // keep >= 2x headroom everywhere, and the forced-hash kernel must agree
  // with the oracle at that exact count.
  EXPECT_EQ(hash_table_capacity(0), 4u);
  EXPECT_EQ(hash_table_capacity(1), 4u);
  EXPECT_EQ(hash_table_capacity(63), 128u);
  EXPECT_EQ(hash_table_capacity(64), 128u);  // not 64: 2x headroom held
  EXPECT_EQ(hash_table_capacity(65), 256u);
  for (std::size_t n = 1; n <= 1024; ++n) {
    ASSERT_GE(hash_table_capacity(n), 2 * n) << "members=" << n;
  }

  IcgRandom rng(108);
  const GridSet grids = uniform_grids(6, 12);
  UnitStore cdus(3);
  const DimId dims[3] = {1, 2, 4};
  std::size_t pushed = 0;
  while (pushed < 64) {  // 64 distinct bin rows in the one subspace
    const BinId bins[3] = {static_cast<BinId>(uniform_index(rng, 12)),
                           static_cast<BinId>(uniform_index(rng, 12)),
                           static_cast<BinId>(pushed % 12)};
    cdus.push_unchecked(dims, bins);
    ++pushed;
  }
  const std::vector<Value> rows = random_rows(rng, 1500, 6);
  const std::vector<Count> expected =
      oracle_counts(grids, cdus, rows.data(), 1500);
  const PopulateConfig force_hash{2048, 1};
  UnitPopulator pop(grids, cdus, force_hash);
  pop.accumulate(table_of(grids, cdus, rows));
  ASSERT_EQ(pop.kernel_stats().packed_hash_subspaces, 1u);
  ASSERT_EQ(pop.counts().size(), expected.size());
  for (std::size_t u = 0; u < expected.size(); ++u) {
    ASSERT_EQ(pop.counts()[u], expected[u]) << "cdu " << cdus.to_string(u);
  }
}

TEST(PopulateOracle, BitmapKernelSupportsInterleavedCountsAndAccumulate) {
  // Every accumulate() leaves complete counts behind: interleaving reads
  // with further accumulation — which the SPMD loop does across chunk
  // boundaries — must yield exact prefix counts at every step, including
  // chunks that end mid-word and mid-block.
  IcgRandom rng(109);
  const GridSet grids = uniform_grids(7, 9);
  const UnitStore cdus = random_cdus(rng, grids, 3, 70);
  const std::vector<Value> rows = random_rows(rng, 1000, 7);

  const PopulateConfig cfg{256, 48};
  UnitPopulator pop(grids, cdus, cfg);
  std::size_t done = 0;
  for (const std::size_t chunk : {37u, 1u, 64u, 200u, 500u, 198u}) {
    pop.accumulate(rows.data() + done * 7, chunk);
    done += chunk;
    const std::vector<Count> expected =
        oracle_counts(grids, cdus, rows.data(), done);
    ASSERT_EQ(pop.counts().size(), expected.size());
    for (std::size_t u = 0; u < expected.size(); ++u) {
      ASSERT_EQ(pop.counts()[u], expected[u])
          << "cdu " << cdus.to_string(u) << " after " << done << " rows";
    }
  }
  ASSERT_EQ(done, 1000u);
  // A read with no new rows in between changes nothing.
  const std::vector<Count> again(pop.counts().begin(), pop.counts().end());
  EXPECT_EQ(again, oracle_counts(grids, cdus, rows.data(), 1000));
}

TEST(PopulateOracle, BitmapSweepAcrossBlockSizesWithSeedsInterleaved) {
  // The bitmap sweep clears and refills its bitsets per block: blocks of
  // one record, one short of a word, one word, one past a word and the
  // production size, over chunks that leave a partial final block, with
  // seed_counts folded in between chunks.  Counts are additive, so the
  // result is the oracle count of all rows plus every seed.
  IcgRandom rng(110);
  const GridSet grids = uniform_grids(8, 4);
  for (const std::size_t k : {1u, 2u, 4u}) {
    const UnitStore cdus = random_cdus(rng, grids, k, 90);
    const std::size_t nrows = 2500;  // not a multiple of any block below
    const std::vector<Value> rows = random_rows(rng, nrows, 8);
    std::vector<Count> seed(cdus.size());
    for (auto& c : seed) c = uniform_index(rng, 1000);
    // Three chunks, each followed by a seed.
    std::vector<Count> expected = oracle_counts(grids, cdus, rows.data(), nrows);
    for (std::size_t u = 0; u < expected.size(); ++u) expected[u] += 3 * seed[u];

    for (const std::size_t block : {1u, 63u, 64u, 65u, 2048u}) {
      UnitPopulator pop(grids, cdus, {block, 48});
      std::size_t done = 0;
      for (const std::size_t chunk : {700u, 129u, 1671u}) {
        pop.accumulate(rows.data() + done * 8, chunk);
        done += chunk;
        pop.seed_counts(seed);
      }
      ASSERT_EQ(done, nrows);
      EXPECT_EQ(pop.counts(), expected) << "k=" << k << " block=" << block;
      EXPECT_EQ(pop.kernel_stats().bitmap_subspaces, pop.num_subspaces());
    }
  }
}

TEST(PopulateOracle, TableSweepsAtThePackedKeyBoundary) {
  // A table is the only row source that reaches the lookups: k = 8 sweeps
  // it through the packed keys (sorted and hash), k = 9 through the memcmp
  // rows.  Both must match the oracle, and the stats name the sweep.
  IcgRandom rng(111);
  const GridSet grids = uniform_grids(12, 2);
  const std::vector<Value> rows = random_rows(rng, 3000, 12);
  for (const std::size_t k : {8u, 9u}) {
    const UnitStore cdus = random_cdus(rng, grids, k, 200);
    const TransactionTable table = table_of(grids, cdus, rows);
    ASSERT_FALSE(table.abandoned());
    const std::vector<Count> expected =
        oracle_counts(grids, cdus, rows.data(), 3000);
    for (const PopulateConfig& cfg : config_matrix()) {
      UnitPopulator pop(grids, cdus, cfg);
      pop.accumulate(table);
      EXPECT_EQ(pop.counts(), expected)
          << "k=" << k << " block=" << cfg.block_records
          << " hash_min=" << cfg.hash_min_cdus;
      const PopulateKernelStats& st = pop.kernel_stats();
      EXPECT_EQ(st.bitmap_subspaces, 0u);
      EXPECT_EQ(st.bitmap_words_anded, 0u);
      if (k == 8) {
        EXPECT_EQ(st.memcmp_subspaces, 0u);
        EXPECT_EQ(st.packed_sorted_subspaces + st.packed_hash_subspaces,
                  pop.num_subspaces());
      } else {
        EXPECT_EQ(st.memcmp_subspaces, pop.num_subspaces());
        EXPECT_EQ(st.packed_sorted_subspaces + st.packed_hash_subspaces, 0u);
      }
    }
  }
}

// ------------------------------------------- randomized datagen workloads

class PopulateOracleDatagen : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PopulateOracleDatagen, KernelsMatchOracleOnPlantedWorkloads) {
  IcgRandom rng(GetParam() * 7919);
  GeneratorConfig cfg;
  cfg.num_dims = 8 + uniform_index(rng, 8);  // 8..15 dims
  cfg.num_records = 1500;
  cfg.seed = GetParam();
  const std::size_t nclusters = 1 + uniform_index(rng, 3);
  for (std::size_t c = 0; c < nclusters; ++c) {
    const std::size_t cdims = 2 + uniform_index(rng, 3);
    std::vector<DimId> dims(cfg.num_dims);
    std::iota(dims.begin(), dims.end(), DimId{0});
    shuffle(rng, dims.begin(), dims.end());
    dims.resize(cdims);
    std::sort(dims.begin(), dims.end());
    const Value lo = static_cast<Value>(10 + 20 * c);
    cfg.clusters.push_back(
        ClusterSpec::box(std::move(dims), std::vector<Value>(cdims, lo),
                         std::vector<Value>(cdims, lo + 10), 1.0));
  }
  const Dataset data = generate(cfg);

  const GridSet grids = uniform_grids(cfg.num_dims, 3 + uniform_index(rng, 17));
  const std::size_t k =
      1 + uniform_index(rng, std::min<std::size_t>(cfg.num_dims, 10));
  const UnitStore cdus = random_cdus(rng, grids, k, 1 + uniform_index(rng, 120));
  expect_all_kernels_match_oracle(grids, cdus, data.values());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PopulateOracleDatagen,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(PopulateBudget, AuxiliaryBytesCountEveryLookupVector) {
  // --max-cdu-bytes budgets auxiliary_bytes(), so it must cover every
  // per-CDU vector either sweep allocates, and it must follow from the CDU
  // store alone.  Recompute it: per subspace of m members, the sorted-row
  // -> CDU index (4 B each) and the bitmap ids (4k B), plus the packed keys
  // (8 B) and hash slots (4 B per slot) for k <= 8 or the memcmp byte rows
  // (k B) for k > 8; plus the bitmap block — per (dim, bin) pair some CDU
  // uses, one bitset of block_records bits rounded up to whole words and its
  // 1-byte bin id, and per dim some CDU uses, one byte column of
  // block_records records rounded up to whole words and one locator cell
  // table of kLocatorCells bytes.
  IcgRandom rng(301);
  const std::size_t hash_min = 12;
  for (const std::size_t k : {3u, 9u}) {
    const std::size_t d = k == 3 ? 7 : 10;  // 35 and 10 subspaces
    const GridSet grids = uniform_grids(d, 9);
    const UnitStore cdus = random_cdus(rng, grids, k, 400);
    std::map<std::vector<DimId>, std::size_t> members;
    std::set<std::pair<DimId, BinId>> items;
    for (std::size_t u = 0; u < cdus.size(); ++u) {
      const auto d = cdus.dims(u);
      ++members[std::vector<DimId>(d.begin(), d.end())];
      for (std::size_t i = 0; i < k; ++i) items.insert({d[i], cdus.bins(u)[i]});
    }

    std::size_t lookups = 0;
    bool saw_hash = false;
    bool saw_sorted = false;
    for (const auto& [dims, m] : members) {
      lookups += 4 * m + 4 * k * m;
      if (k > kPackedKeyMaxDims) {
        lookups += k * m;
      } else {
        lookups += 8 * m;
        if (m >= hash_min) {
          lookups += 4 * hash_table_capacity(m);
          saw_hash = true;
        } else {
          saw_sorted = true;
        }
      }
    }
    if (k == 3) ASSERT_TRUE(saw_hash && saw_sorted);

    std::set<DimId> used_dims;
    for (const auto& item : items) used_dims.insert(item.first);
    for (const std::size_t block : {1u, 64u, 65u, 2048u}) {
      UnitPopulator pop(grids, cdus, {block, hash_min});
      const std::size_t words = (block + 63) / 64;
      const std::size_t bitsets =
          items.size() * (words * 8 + 1) +
          used_dims.size() * (words * 64 + kLocatorCells);
      EXPECT_EQ(pop.auxiliary_bytes(), lookups + bitsets)
          << "k=" << k << " block=" << block;
      // Counting rows does not change it: nothing outgrows a block.
      pop.accumulate(random_rows(rng, 300, d).data(), 300);
      EXPECT_EQ(pop.auxiliary_bytes(), lookups + bitsets);
    }
  }
}

}  // namespace
}  // namespace mafia
