// Transaction-table populate: levels >= 2 sweep a rank-local table of
// distinct dense-item tuples weighted by their multiplicity instead of the
// records.  The table must be exact: every count it yields equals the
// record-at-a-time count, so the unit tests pin it against the naive oracle
// (tests/populate_oracle.hpp), and the driver differentials pin whole runs
// — per-level count checksums, clusters and saved model bytes — against a
// reference level loop that populates with the oracle.  The runs compared
// include ones whose tables fall back to streamed records.  The cap and its
// fallback are covered on both triggers (the partition share and
// --max-cdu-bytes), on an adversarial all-distinct dataset, on a dataset
// where only some ranks fall back, across kill-and-resume at every
// collective, and under append with every level reused and with levels
// rerun.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/assembly.hpp"
#include "core/checkpoint.hpp"
#include "core/mafia.hpp"
#include "core/mdl.hpp"
#include "core/model_io.hpp"
#include "datagen/generator.hpp"
#include "grid/uniform_grid.hpp"
#include "io/data_source.hpp"
#include "mp/backend.hpp"
#include "populate_oracle.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/dedup.hpp"
#include "units/identify.hpp"
#include "units/join.hpp"
#include "units/populate.hpp"
#include "units/transaction_table.hpp"

namespace mafia {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ unit helpers

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

/// Builds, fills (in three uneven chunks) and finishes a table.
TransactionTable build(const GridSet& grids, const UnitStore& cdus,
                       const std::vector<Value>& rows,
                       std::size_t max_bytes = 1u << 30) {
  const std::size_t d = grids.num_dims();
  const std::size_t n = rows.size() / d;
  TransactionTable t(grids, cdus, max_bytes);
  const std::size_t a = n / 3;
  const std::size_t b = n / 2;
  t.accumulate(rows.data(), a);
  t.accumulate(rows.data() + a * d, b - a);
  t.accumulate(rows.data() + b * d, n - b);
  t.finish();
  return t;
}

Count weight_sum(const TransactionTable& t) {
  return std::accumulate(t.weights(), t.weights() + t.rows(), Count{0});
}

/// Higher-k CDUs over the items of `base` only — the shape every later
/// level has: each unit takes k distinct dims of one base unit's items,
/// with the other items borrowed from further base units.
UnitStore units_over_items(IcgRandom& rng, const UnitStore& base,
                           std::size_t k, std::size_t count) {
  std::map<DimId, std::vector<BinId>> items;
  for (std::size_t u = 0; u < base.size(); ++u) {
    for (std::size_t i = 0; i < base.k(); ++i) {
      items[base.dims(u)[i]].push_back(base.bins(u)[i]);
    }
  }
  std::vector<DimId> dims;
  for (const auto& [dim, bins] : items) dims.push_back(dim);
  UnitStore out(k);
  std::vector<BinId> bins(k);
  for (std::size_t c = 0; c < count; ++c) {
    shuffle(rng, dims.begin(), dims.end());
    std::vector<DimId> pick(dims.begin(),
                            dims.begin() + static_cast<std::ptrdiff_t>(k));
    std::sort(pick.begin(), pick.end());
    for (std::size_t i = 0; i < k; ++i) {
      const auto& choices = items[pick[i]];
      bins[i] = choices[uniform_index(rng, choices.size())];
    }
    out.push_unchecked(pick.data(), bins.data());
  }
  return out;
}

/// Block sizes straddling the table's row count and the 64-bit word.
std::vector<PopulateConfig> table_configs() {
  return {{2048}, {1}, {3}, {64}, {7}};
}

void expect_table_counts_match_oracle(const GridSet& grids,
                                      const UnitStore& cdus,
                                      const TransactionTable& table,
                                      const std::vector<Value>& rows) {
  ASSERT_TRUE(table.covers(cdus));
  const std::size_t n = rows.size() / grids.num_dims();
  const std::vector<Count> expected = oracle_counts(grids, cdus, rows.data(), n);
  for (const PopulateConfig& cfg : table_configs()) {
    UnitPopulator pop(grids, cdus, cfg);
    pop.accumulate(table);
    ASSERT_EQ(pop.counts(), expected)
        << "k=" << cdus.k() << " block=" << cfg.block_records;
  }
}

// --------------------------------------------------------------- the table

TEST(TransactionTable, WeightsSumToTheRecordsScanned) {
  IcgRandom rng(201);
  const GridSet grids = uniform_grids(6, 5);
  const UnitStore cdus = random_cdus(rng, grids, 2, 25);
  const std::vector<Value> rows = random_rows(rng, 3000, 6);
  const TransactionTable t = build(grids, cdus, rows);
  ASSERT_FALSE(t.abandoned());
  EXPECT_EQ(t.records(), 3000u);
  EXPECT_EQ(weight_sum(t), 3000u);
  EXPECT_GT(t.rows(), 0u);
  EXPECT_LT(t.rows(), 3000u);  // 5 bins over <= 6 dims must repeat
  EXPECT_TRUE(std::all_of(t.weights(), t.weights() + t.rows(),
                          [](Count w) { return w >= 1; }));
}

TEST(TransactionTable, SweepMatchesTheOracleAtTheBuildLevelAndAbove) {
  IcgRandom rng(202);
  const GridSet grids = uniform_grids(10, 12);
  const UnitStore level2 = random_cdus(rng, grids, 2, 60);
  const std::vector<Value> rows = random_rows(rng, 4000, 10);
  const TransactionTable t = build(grids, level2, rows);
  ASSERT_FALSE(t.abandoned());
  expect_table_counts_match_oracle(grids, level2, t, rows);
  // Later levels use subsets of the build level's items, up to units of
  // 9 dims.
  for (const std::size_t k : {3u, 5u, 9u}) {
    expect_table_counts_match_oracle(
        grids, units_over_items(rng, level2, k, 80), t, rows);
  }
}

TEST(TransactionTable, DimWithAll256BinsInUseKeysEveryBinAsItself) {
  // Dim 0 has 256 bins and the CDUs use every one of them, so no id is
  // free for a sentinel: every bin must key as itself.  Dim 1 uses two of
  // its bins; dim 2 is used by no CDU.
  IcgRandom rng(203);
  GridSet grids;
  grids.dims.push_back(compute_uniform_grid(0, 0.0f, 100.0f, 256, 0.01, 1000));
  grids.dims.push_back(compute_uniform_grid(1, 0.0f, 100.0f, 10, 0.01, 1000));
  grids.dims.push_back(compute_uniform_grid(2, 0.0f, 100.0f, 10, 0.01, 1000));
  UnitStore cdus(2);
  const DimId dims[2] = {0, 1};
  for (std::size_t b = 0; b < 256; ++b) {
    const BinId bins[2] = {static_cast<BinId>(b), static_cast<BinId>(b % 2)};
    cdus.push_unchecked(dims, bins);
  }
  const std::vector<Value> rows = random_rows(rng, 5000, 3);
  const TransactionTable t = build(grids, cdus, rows);
  ASSERT_FALSE(t.abandoned());
  expect_table_counts_match_oracle(grids, cdus, t, rows);
  // Rows merge on (dim-0 bin, dim-1 bin in {0, 1} or the sentinel) only:
  // at most 256 * 3 distinct keys, whatever dim 2 holds.
  EXPECT_LE(t.rows(), 256u * 3u);
  EXPECT_EQ(weight_sum(t), 5000u);
}

TEST(TransactionTable, UnusedBinsAndUnusedDimsDoNotSplitRows) {
  // CDUs use bins {2, 7} of dim 1 and bin 4 of dim 3.  Records fixed on
  // those items but scattered over every other bin of dims 1 and 3 and
  // over the unused dims 0, 2, 4 collapse to one row per used-item
  // combination: (bin 2 | bin 7 | sentinel) x (bin 4 | sentinel).
  const GridSet grids = uniform_grids(5, 10);
  UnitStore cdus(2);
  const DimId dims[2] = {1, 3};
  const BinId a[2] = {2, 4};
  const BinId b[2] = {7, 4};
  cdus.push_unchecked(dims, a);
  cdus.push_unchecked(dims, b);

  IcgRandom rng(204);
  std::vector<Value> rows = random_rows(rng, 2000, 5, 0.0, 100.0);
  const TransactionTable t = build(grids, cdus, rows);
  ASSERT_FALSE(t.abandoned());
  EXPECT_EQ(t.rows(), 6u);
  EXPECT_EQ(weight_sum(t), 2000u);
  expect_table_counts_match_oracle(grids, cdus, t, rows);
}

TEST(TransactionTable, EmptyAndAllSentinelInputs) {
  const GridSet grids = uniform_grids(4, 10);
  UnitStore cdus(2);
  const DimId dims[2] = {0, 1};
  const BinId bins[2] = {9, 9};
  cdus.push_unchecked(dims, bins);

  const TransactionTable empty = build(grids, cdus, {});
  EXPECT_FALSE(empty.abandoned());
  EXPECT_EQ(empty.rows(), 0u);
  UnitPopulator pop(grids, cdus);
  pop.accumulate(empty);
  EXPECT_EQ(pop.counts(), std::vector<Count>{0});

  // Records that miss every used item all key as the sentinel tuple.
  IcgRandom rng(205);
  const std::vector<Value> rows = random_rows(rng, 500, 4, 0.0, 50.0);
  const TransactionTable t = build(grids, cdus, rows);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.weights()[0], 500u);
  expect_table_counts_match_oracle(grids, cdus, t, rows);
}

TEST(TransactionTable, FootprintPastTheCapAbandonsTheTable) {
  IcgRandom rng(206);
  const GridSet grids = uniform_grids(8, 20);
  const UnitStore cdus = random_cdus(rng, grids, 2, 200);
  const std::vector<Value> rows = random_rows(rng, 3000, 8);
  const TransactionTable roomy = build(grids, cdus, rows);
  ASSERT_FALSE(roomy.abandoned());
  ASSERT_GT(roomy.rows(), 100u);

  // Half the roomy table's peak: the build stops at the row that crosses
  // the cap, releases its rows, and ignores everything after.
  const std::size_t cap = roomy.peak_bytes() / 2;
  const TransactionTable capped = build(grids, cdus, rows, cap);
  EXPECT_TRUE(capped.abandoned());
  EXPECT_EQ(capped.rows(), 0u);
  EXPECT_GT(capped.peak_bytes(), cap);
  EXPECT_LT(capped.records(), 3000u);
  EXPECT_GT(capped.peak_rows(), 0u);
  EXPECT_LT(capped.peak_rows(), roomy.rows());

  // Just under the peak still abandons; exactly the peak does not.
  EXPECT_TRUE(build(grids, cdus, rows, roomy.peak_bytes() - 1).abandoned());
  EXPECT_FALSE(build(grids, cdus, rows, roomy.peak_bytes()).abandoned());
}

TEST(TransactionTable, CapIsAFixedPartitionShareTightenedByMaxCduBytes) {
  // 1/32 of the partition's value bytes...
  EXPECT_EQ(transaction_table_cap(32000, 10, 0),
            32000u * 10u * sizeof(Value) / kTransactionTableCapDivisor);
  EXPECT_EQ(kTransactionTableCapDivisor, 32u);
  // ...never above a nonzero --max-cdu-bytes, which only ever tightens it.
  EXPECT_EQ(transaction_table_cap(32000, 10, 1000), 1000u);
  EXPECT_EQ(transaction_table_cap(32000, 10, 1u << 30),
            transaction_table_cap(32000, 10, 0));
  EXPECT_EQ(transaction_table_cap(0, 10, 0), 0u);
}

TEST(TransactionTable, CoversOnlyTheItemsItWasKeyedOn) {
  const GridSet grids = uniform_grids(4, 10);
  UnitStore cdus(2);
  const DimId dims[2] = {0, 2};
  const BinId bins[2] = {3, 5};
  cdus.push_unchecked(dims, bins);
  const TransactionTable t = build(grids, cdus, {});
  EXPECT_TRUE(t.covers(cdus));

  UnitStore other_bin(1);
  const DimId d0[1] = {0};
  const BinId b4[1] = {4};
  other_bin.push_unchecked(d0, b4);
  EXPECT_FALSE(t.covers(other_bin));

  UnitStore other_dim(1);
  const DimId d1[1] = {1};
  const BinId b3[1] = {3};
  other_dim.push_unchecked(d1, b3);
  EXPECT_FALSE(t.covers(other_dim));
}

TEST(TransactionTable, BothRowSourcesShareTheSweep) {
  // Records and a table count through the same sweep — its stats move
  // alike for either source — and a populator fed both sources adds them
  // up.
  const GridSet grids = uniform_grids(10, 3);
  IcgRandom rng(207);
  const std::vector<Value> rows = random_rows(rng, 400, 10);
  for (const std::size_t k : {2u, 9u}) {
    const UnitStore cdus = random_cdus(rng, grids, k, 30);
    const TransactionTable t = build(grids, cdus, rows);
    UnitPopulator pop(grids, cdus);
    pop.accumulate(t);
    const PopulateKernelStats after_table = pop.kernel_stats();
    EXPECT_EQ(after_table.bitmap_subspaces, pop.num_subspaces());
    EXPECT_GT(after_table.bitmap_bytes, 0u);
    EXPECT_GT(after_table.bitmap_words_anded, 0u);

    pop.accumulate(rows.data(), 400);
    EXPECT_EQ(pop.kernel_stats().bitmap_subspaces, pop.num_subspaces());
    EXPECT_EQ(pop.kernel_stats().bitmap_bytes, after_table.bitmap_bytes);
    EXPECT_GT(pop.kernel_stats().bitmap_words_anded,
              after_table.bitmap_words_anded);
    std::vector<Count> twice = oracle_counts(grids, cdus, rows.data(), 400);
    for (Count& c : twice) c *= 2;
    EXPECT_EQ(pop.counts(), twice) << "k=" << k;
  }
}

// ---------------------------------------------------- driver differentials

MafiaOptions base_options() {
  MafiaOptions o;
  o.fixed_domain = {{0.0f, 100.0f}};
  return o;
}

/// Planted box in {1, 3, 4}: few distinct dense-item tuples, so every
/// rank keeps its table.
Dataset planted_data(RecordIndex records = 4000, std::uint64_t seed = 17) {
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = records;
  cfg.seed = seed;
  cfg.clusters.push_back(ClusterSpec::box({1, 3, 4}, {20, 20, 20}, {40, 40, 40}));
  return generate(cfg);
}

/// Every value sits near one of ten peaks per dim, chosen independently:
/// every bin is dense at level 1, and nearly every record has its own
/// dense-item tuple — the adversarial input for the table.
void append_distinct_rows(Dataset& data, RecordIndex records,
                          std::uint64_t seed) {
  IcgRandom rng(seed);
  std::vector<Value> row(data.num_dims());
  for (RecordIndex r = 0; r < records; ++r) {
    for (auto& v : row) {
      v = static_cast<Value>(10.0 * static_cast<double>(uniform_index(rng, 10)) +
                             5.0 + uniform_real(rng, -1.0, 1.0));
    }
    data.append(row);
  }
}

Dataset all_distinct_data() {
  Dataset data(6);
  append_distinct_rows(data, 3000, 31);
  return data;
}

/// 2000 copies of one point, then 2000 all-distinct rows: with 3 or 4
/// ranks the first rank keeps a one-row table while the others fall back.
Dataset mixed_data() {
  Dataset data(6);
  const std::vector<Value> point(6, 35.0f);
  for (int r = 0; r < 2000; ++r) data.append(point);
  append_distinct_rows(data, 2000, 37);
  return data;
}

/// The driver's level loop, serial, populating with the naive oracle: a
/// reference result (per-level count checksums and the clusters) that
/// shares no populate code with production.  The grids are taken from a
/// production run — they are not under test here.
MafiaResult oracle_run(const Dataset& data, const MafiaOptions& opt) {
  MafiaResult r;
  r.grids = run_pmafia(InMemorySource(data), opt, 1).grids;
  const GridSet& grids = r.grids;
  const auto n = static_cast<Count>(data.num_records());
  const DensityContext dctx{opt.grid.alpha, n};
  UnitStore cdus(1);
  for (std::size_t j = 0; j < grids.num_dims(); ++j) {
    for (std::size_t b = 0; b < grids[j].num_bins(); ++b) {
      const auto dj = static_cast<DimId>(j);
      const auto bb = static_cast<BinId>(b);
      cdus.push_unchecked(&dj, &bb);
    }
  }
  UnitStore prev_dense(1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parents;
  std::vector<std::uint32_t> raw_to_unique;
  std::vector<UnitStore> registered;
  for (std::size_t level = 1;; ++level) {
    const std::vector<Count> counts =
        oracle_counts(grids, cdus, data.values().data(),
                      static_cast<std::size_t>(data.num_records()));
    LevelTrace t;
    t.level = level;
    t.count_checksum = count_vector_checksum(counts);
    r.levels.push_back(t);
    std::vector<std::uint8_t> flags(cdus.size(), 0);
    identify_dense_units(cdus, counts, grids, opt.density, dctx, 0,
                         cdus.size(), flags);
    if (opt.mdl_pruning) {
      // CLIQUE's MDL cut over per-subspace coverage, as the driver does.
      std::map<std::vector<DimId>, std::uint64_t> coverage;
      for (std::size_t u = 0; u < cdus.size(); ++u) {
        if (!flags[u]) continue;
        const auto d = cdus.dims(u);
        coverage[std::vector<DimId>(d.begin(), d.end())] += counts[u];
      }
      if (coverage.size() >= 2) {
        std::vector<std::uint64_t> values;
        for (const auto& [dims, cov] : coverage) values.push_back(cov);
        const auto keep = mdl_select_subspaces(values);
        std::map<std::vector<DimId>, bool> kept;
        std::size_t i = 0;
        for (const auto& [dims, cov] : coverage) kept[dims] = keep[i++] != 0;
        for (std::size_t u = 0; u < cdus.size(); ++u) {
          const auto d = cdus.dims(u);
          if (flags[u] && !kept[std::vector<DimId>(d.begin(), d.end())]) {
            flags[u] = 0;
          }
        }
      }
    }
    // A previous-level dense unit no dense child marked is maximal.
    if (level > 1) {
      std::vector<std::uint8_t> marked(prev_dense.size(), 0);
      for (std::size_t i = 0; i < parents.size(); ++i) {
        if (flags[raw_to_unique[i]]) {
          marked[parents[i].first] = 1;
          marked[parents[i].second] = 1;
        }
      }
      UnitStore maximal(prev_dense.k());
      for (std::size_t u = 0; u < prev_dense.size(); ++u) {
        if (!marked[u]) {
          maximal.push_unchecked(prev_dense.dims(u).data(),
                                 prev_dense.bins(u).data());
        }
      }
      if (!maximal.empty()) registered.push_back(std::move(maximal));
    }
    UnitStore dense = build_dense_store(cdus, flags);
    if (dense.empty()) break;
    const bool bucketed =
        opt.join.kernel == JoinKernel::Bucketed && dense.k() >= 2;
    JoinResult jr;
    if (level < opt.max_level) {
      jr = bucketed ? bucket_join_dense_units(dense, opt.join_rule)
                    : join_dense_units(dense, opt.join_rule);
    }
    if (jr.cdus.empty()) {
      registered.push_back(std::move(dense));
      break;
    }
    DedupResult dd = dedup_hash(jr.cdus);
    cdus = std::move(dd.unique);
    raw_to_unique = std::move(dd.raw_to_unique);
    parents = std::move(jr.parents);
    prev_dense = std::move(dense);
  }
  r.clusters = assemble_clusters(registered);
  std::erase_if(r.clusters, [&opt](const Cluster& c) {
    return c.dims.size() < opt.min_cluster_dims;
  });
  return r;
}

std::vector<std::uint64_t> checksums(const MafiaResult& r) {
  std::vector<std::uint64_t> out;
  for (const LevelTrace& t : r.levels) out.push_back(t.count_checksum);
  return out;
}

/// Order-independent cluster identity: the multiset of DNF strings.
std::vector<std::string> signature(const MafiaResult& r) {
  std::vector<std::string> sig;
  for (const Cluster& c : r.clusters) sig.push_back(c.to_string(r.grids));
  std::sort(sig.begin(), sig.end());
  return sig;
}

/// The bytes `pmafia cluster --save` would write for this result.
std::string model_bytes(const MafiaResult& r) {
  const std::string path =
      (fs::temp_directory_path() /
       ("mafia_ttable_model_" + std::to_string(::getpid()) + ".txt"))
          .string();
  save_model(path, r.grids, r.clusters);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  fs::remove(path);
  return bytes;
}

void expect_same_answer(const MafiaResult& got, const MafiaResult& ref) {
  EXPECT_EQ(checksums(got), checksums(ref));
  EXPECT_EQ(signature(got), signature(ref));
  EXPECT_EQ(model_bytes(got), model_bytes(ref));
}

/// The populate ledger of a fresh (not resumed, not appended) run: level 1
/// streams every record; from level 2 on a level is "table" exactly when
/// no rank fell back, and sweeps at most the records.
void expect_consistent_ledger(const MafiaResult& r, int p) {
  const PopulateKernelStats& pk = r.populate_kernel;
  ASSERT_FALSE(r.levels.empty());
  EXPECT_EQ(r.levels[0].populate_source, kPopulateSourceRecords);
  EXPECT_EQ(r.levels[0].populate_rows, r.num_records);
  if (r.levels.size() < 2) return;
  EXPECT_EQ(pk.table_built_level, 2u);
  EXPECT_LE(pk.table_fallback_ranks, static_cast<std::size_t>(p));
  for (std::size_t i = 1; i < r.levels.size(); ++i) {
    const LevelTrace& t = r.levels[i];
    EXPECT_EQ(t.populate_source == kPopulateSourceTable,
              pk.table_fallback_ranks == 0);
    EXPECT_LE(t.populate_rows, r.num_records);
    EXPECT_EQ(t.populate_rows, r.levels[1].populate_rows);
  }
}

void driver_matrix(mp::MpBackend backend) {
  struct Case {
    const char* name;
    Dataset data;
  };
  const Case cases[] = {{"planted", planted_data()}, {"mixed", mixed_data()}};
  for (const Case& c : cases) {
    InMemorySource source(c.data);
    for (const bool mdl : {false, true}) {
      MafiaOptions opt = base_options();
      opt.mdl_pruning = mdl;
      const MafiaResult ref = oracle_run(c.data, opt);
      ASSERT_GE(ref.levels.size(), 3u) << c.name;
      for (const int p : {1, 3, 4}) {
        for (const std::size_t block : {std::size_t{2048}, std::size_t{3}}) {
          SCOPED_TRACE(std::string(c.name) + " mdl=" + std::to_string(mdl) +
                       " p=" + std::to_string(p) +
                       " block=" + std::to_string(block));
          MafiaOptions o = opt;
          o.populate.block_records = block;
          o.mp.backend = backend;
          const MafiaResult got = run_pmafia(source, o, p);
          expect_same_answer(got, ref);
          expect_consistent_ledger(got, p);
          if (std::string(c.name) == "planted") {
            EXPECT_EQ(got.populate_kernel.table_fallback_ranks, 0u);
            EXPECT_EQ(got.levels[1].populate_source, kPopulateSourceTable);
            EXPECT_LT(got.levels[1].populate_rows, got.num_records / 10);
          } else if (p > 1) {
            // The leading rank's one-point partition keeps its table, the
            // trailing ranks' distinct rows do not.
            EXPECT_GE(got.populate_kernel.table_fallback_ranks, 1u);
            EXPECT_LT(got.populate_kernel.table_fallback_ranks,
                      static_cast<std::size_t>(p));
          }
        }
      }
    }
  }
}

TEST(TransactionTableDriver, MatrixMatchesOracleAndStreamingThreads) {
  driver_matrix(mp::MpBackend::Threads);
}

TEST(TransactionTableDriver, MatrixMatchesOracleAndStreamingProcess) {
  if (!mp::process_backend_supported()) {
    GTEST_SKIP() << "process backend unavailable in this build";
  }
  driver_matrix(mp::MpBackend::Process);
}

TEST(TransactionTableDriver, AllDistinctRowsFallBackOnEveryRankExactly) {
  const Dataset data = all_distinct_data();
  InMemorySource source(data);
  const MafiaResult ref = oracle_run(data, base_options());
  ASSERT_GE(ref.levels.size(), 2u);
  for (const int p : {1, 3, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const MafiaResult got = run_pmafia(source, base_options(), p);
    expect_same_answer(got, ref);
    expect_consistent_ledger(got, p);
    EXPECT_EQ(got.populate_kernel.table_built_level, 2u);
    EXPECT_EQ(got.populate_kernel.table_fallback_ranks,
              static_cast<std::size_t>(p));
    for (const LevelTrace& t : got.levels) {
      EXPECT_EQ(t.populate_source, kPopulateSourceRecords);
      EXPECT_EQ(t.populate_rows, got.num_records);
    }
  }
}

/// Eight dims, each holding an independent 50% peak: few dense items (one
/// bin per dim) but 2^8 tuples over them, so the table outweighs every
/// candidate store and lookup table while staying under its partition cap.
Dataset independent_peaks_data() {
  IcgRandom rng(43);
  Dataset data(8);
  std::vector<Value> row(8);
  for (int r = 0; r < 20000; ++r) {
    for (auto& v : row) {
      v = static_cast<Value>(uniform_index(rng, 2) == 0
                                 ? 50.0 + uniform_real(rng, -1.0, 1.0)
                                 : uniform_real(rng, 0.0, 100.0));
    }
    data.append(row);
  }
  return data;
}

TEST(TransactionTableDriver, MaxCduBytesBelowTheTableFallsBackWithoutError) {
  const Dataset data = independent_peaks_data();
  InMemorySource source(data);
  // The budget also covers the populator's bitmap block (used bins x
  // block_records bits); 64-record blocks keep it below the table.
  MafiaOptions opt = base_options();
  opt.populate.block_records = 64;
  const MafiaResult free_run = run_pmafia(source, opt, 2);
  ASSERT_EQ(free_run.populate_kernel.table_fallback_ranks, 0u);
  const std::size_t table_bytes = free_run.populate_kernel.table_bytes_max;
  ASSERT_GT(table_bytes, 0u);

  // A budget every other component fits in but the table does not: the
  // run completes on streamed records instead of raising ResourceError.
  MafiaOptions tight = opt;
  tight.max_cdu_bytes = table_bytes - 1;
  const MafiaResult got = run_pmafia(source, tight, 2);
  EXPECT_EQ(got.populate_kernel.table_fallback_ranks, 2u);
  for (const LevelTrace& t : got.levels) {
    EXPECT_EQ(t.populate_source, kPopulateSourceRecords);
  }
  expect_same_answer(got, free_run);
  expect_same_answer(got, oracle_run(data, base_options()));
}

/// A fresh scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() /
               (name + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(TransactionTableDriver, KillAndResumeAtEveryLevelRebuildsTheTable) {
  // Kill rank 1 at every collective in turn, then resume.  A resumed run
  // has no level-1 state to key a table on, so it builds the table from
  // the CDUs of the level it resumes at; the answer must not change.
  const Dataset data = planted_data();
  InMemorySource source(data);
  const int p = 3;
  const MafiaResult ref = oracle_run(data, base_options());

  std::vector<std::size_t> resumed_levels;
  for (std::uint64_t op = 0;; ++op) {
    ScratchDir dir("mafia_ttable_kill_" + std::to_string(op));
    MafiaOptions faulted = base_options();
    faulted.mp.deadline_seconds = 30.0;
    faulted.checkpoint.directory = dir.path();
    faulted.fault_plan.kill(/*rank=*/1, op);
    bool fired = false;
    try {
      expect_same_answer(run_pmafia(source, faulted, p), ref);
    } catch (const mp::FaultError&) {
      fired = true;
    }
    if (!fired) break;

    MafiaOptions resume = base_options();
    resume.checkpoint.directory = dir.path();
    resume.checkpoint.resume = true;
    const MafiaResult got = run_pmafia(source, resume, p);
    SCOPED_TRACE("kill op " + std::to_string(op));
    expect_same_answer(got, ref);
    if (got.recovery.resumed) {
      const std::size_t level = got.recovery.resume_level;
      resumed_levels.push_back(level);
      EXPECT_EQ(got.populate_kernel.table_built_level, level);
      EXPECT_EQ(got.populate_kernel.table_fallback_ranks, 0u);
      for (const LevelTrace& t : got.levels) {
        // Restored levels were not swept by this run.
        EXPECT_EQ(t.populate_source, t.level >= level ? kPopulateSourceTable
                                                       : kPopulateSourceRecords);
        if (t.level < level) {
          EXPECT_EQ(t.populate_rows, 0u);
          EXPECT_EQ(t.populate_seconds, 0.0);
        } else {
          EXPECT_GT(t.populate_seconds, 0.0);
        }
      }
    } else {
      expect_consistent_ledger(got, p);
    }
    ASSERT_LT(op, 10000u) << "fault sweep did not terminate";
  }
  // Every level boundary the run checkpoints was a resume point.
  std::sort(resumed_levels.begin(), resumed_levels.end());
  resumed_levels.erase(std::unique(resumed_levels.begin(), resumed_levels.end()),
                       resumed_levels.end());
  std::vector<std::size_t> boundaries;
  for (std::size_t l = 2; l <= ref.levels.size(); ++l) boundaries.push_back(l);
  EXPECT_EQ(resumed_levels, boundaries);
}

Dataset concat(const Dataset& a, const Dataset& b) {
  Dataset all(a.num_dims());
  all.append_rows(a);
  all.append_rows(b);
  return all;
}

MafiaResult base_then_append(const Dataset& base, const Dataset& all,
                             const std::string& dir) {
  InMemorySource base_source(base);
  MafiaOptions bo = base_options();
  bo.checkpoint.directory = dir;
  (void)run_pmafia(base_source, bo, 2);
  InMemorySource all_source(all);
  MafiaOptions ao = base_options();
  ao.checkpoint.directory = dir;
  ao.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  return run_pmafia(all_source, ao, 3);
}

TEST(TransactionTableDriver, AppendWithTheReuseChainIntactBuildsNoTable) {
  const Dataset base = planted_data(4000);
  const Dataset batch = planted_data(5, 91);
  const Dataset all = concat(base, batch);
  ScratchDir dir("mafia_ttable_append_intact");
  const MafiaResult got = base_then_append(base, all, dir.path());
  ASSERT_EQ(got.append.levels_reused, got.levels.size());
  EXPECT_EQ(got.populate_kernel.table_built_level, 0u);
  for (const LevelTrace& t : got.levels) {
    EXPECT_EQ(t.populate_source, kPopulateSourceRecords);
    EXPECT_EQ(t.populate_rows, batch.num_records());  // the batch only
  }
  expect_same_answer(got, oracle_run(all, base_options()));
}

TEST(TransactionTableDriver, AppendWithTheReuseChainBrokenSweepsTheTable) {
  // An all-distinct batch makes every bin of every dim dense: the level-1
  // flags change, so level 2's candidates differ from the stored ones and
  // it rebuilds over the full concatenated partition — on the table where
  // it fits.
  const Dataset base = planted_data(4000);
  Dataset batch(6);
  append_distinct_rows(batch, 300, 41);
  const Dataset all = concat(base, batch);
  ScratchDir dir("mafia_ttable_append_broken");
  const MafiaResult got = base_then_append(base, all, dir.path());
  ASSERT_GE(got.append.levels_rerun, 1u);
  ASSERT_GE(got.levels.size(), 2u);
  EXPECT_GE(got.populate_kernel.table_built_level, 2u);
  expect_same_answer(got, oracle_run(all, base_options()));
}

}  // namespace
}  // namespace mafia
