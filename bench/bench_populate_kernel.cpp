// The populate sweep by row source, on the paper's Figure 3 workload (30-d
// data, 5 clusters each in a different 6-d subspace) — the phase the paper
// calls out as "the bulk of the time" (Section 5.3).  One sweep counts
// both sources: per block it fills one byte column per used dim (binning
// records, copying a transaction table's columns), forms one
// block_records-bit bitset per used (dim, bin) pair, and ANDs each CDU's
// k bitsets — reduced by popcount for records, by a weighted set-bit sum
// for table rows.
//
// The table here is keyed on every (dim, bin) of the grid.  Records of
// this workload are uniform outside their cluster's six dims, so nearly
// every record keeps its own row and the table sweep sees about as many
// rows as the records sweep: the comparison is per row, not a measure of
// the table's compression.  The table build (binning, merging) is
// excluded.
//
// Two measurements, recorded as pmafia-bench-v1 rows in
// BENCH_populate.json (the committed rows are the baselines
// scripts/bench_gate.py compares fresh runs against):
//   * micro    — UnitPopulator::accumulate alone over the records and over
//     the table, for a k = 3 and a k = 9 store; the bench exits 1 unless
//     both row sources count alike;
//   * 256 bins — the sweep's worst case: every dim cut into 256 equal bins
//     and every bin used by some CDU.  The sweep forms each used (dim, bin)
//     bitset by comparing its dim's byte column, so its cost grows with the
//     used bins per dim (and the locator takes about one step per value at
//     256 bins).
#include "bench_common.hpp"

#include <limits>
#include <numeric>
#include <set>
#include <utility>

#include "common/timer.hpp"
#include "core/mafia.hpp"
#include "datagen/workloads.hpp"
#include "grid/uniform_grid.hpp"
#include "io/data_source.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/populate.hpp"
#include "units/transaction_table.hpp"

namespace {

using namespace mafia;

/// Random CDU store of dimensionality k with valid bins under `grids`.
UnitStore make_cdus(IcgRandom& rng, const GridSet& grids, std::size_t k,
                    std::size_t count) {
  UnitStore cdus(k);
  std::vector<DimId> all_dims(grids.num_dims());
  std::iota(all_dims.begin(), all_dims.end(), DimId{0});
  std::vector<DimId> dims(k);
  std::vector<BinId> bins(k);
  for (std::size_t u = 0; u < count; ++u) {
    shuffle(rng, all_dims.begin(), all_dims.end());
    std::copy(all_dims.begin(), all_dims.begin() + static_cast<std::ptrdiff_t>(k),
              dims.begin());
    std::sort(dims.begin(), dims.end());
    for (std::size_t i = 0; i < k; ++i) {
      bins[i] = static_cast<BinId>(
          uniform_index(rng, grids[dims[i]].num_bins()));
    }
    cdus.push_unchecked(dims.data(), bins.data());
  }
  return cdus;
}

/// Every (dim, bin) of `grids` as a 1-d unit: a table keyed on it covers
/// any CDU store over the grid.
UnitStore all_items(const GridSet& grids) {
  UnitStore items(1);
  for (std::size_t j = 0; j < grids.num_dims(); ++j) {
    for (std::size_t b = 0; b < grids[j].num_bins(); ++b) {
      const auto dj = static_cast<DimId>(j);
      const auto bb = static_cast<BinId>(b);
      items.push_unchecked(&dj, &bb);
    }
  }
  return items;
}

/// Distinct (dim, bin) pairs the store's units use: the bitset count of
/// the bitmap sweep.
std::size_t used_bins(const UnitStore& cdus) {
  std::set<std::pair<DimId, BinId>> items;
  for (std::size_t u = 0; u < cdus.size(); ++u) {
    for (std::size_t i = 0; i < cdus.k(); ++i) {
      items.insert({cdus.dims(u)[i], cdus.bins(u)[i]});
    }
  }
  return items.size();
}

/// Times `reps` accumulate passes over the records (table == nullptr) or
/// the table; returns rows swept per second and the final counts.
double sweep_throughput(const GridSet& grids, const UnitStore& cdus,
                        const Dataset& data, const TransactionTable* table,
                        std::size_t reps, double* out_seconds,
                        std::vector<Count>* out_counts = nullptr) {
  UnitPopulator pop(grids, cdus);
  const std::size_t rows = table != nullptr
                               ? table->rows()
                               : static_cast<std::size_t>(data.num_records());
  Timer t;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    if (table != nullptr) {
      pop.accumulate(*table);
    } else {
      pop.accumulate(data.values().data(), rows);
    }
  }
  const double secs = t.seconds();
  *out_seconds = secs;
  if (out_counts != nullptr) *out_counts = pop.counts();
  return static_cast<double>(rows) * static_cast<double>(reps) / secs;
}

/// Wraps a micro measurement in the bench JSONL schema: a minimal result
/// carrying the populate seconds and the records processed, so the row's
/// throughput is computable the same way as for a full driver run.
void record_micro(const std::string& tag, double seconds,
                  std::size_t records_processed, std::size_t dims) {
  MafiaResult r;
  r.phases.add("populate", seconds);
  r.num_records = records_processed;
  r.num_dims = dims;
  r.total_seconds = seconds;
  bench::append_bench_json("populate", r, tag);
}

}  // namespace

int main() {
  using namespace mafia;

  bench::print_header(
      "Populate sweep — records vs a transaction table",
      "Section 5.3: populate dominates; 30-d, 5 clusters in 6-d subspaces",
      "same fig3 structure, each row source at equal work");

  const RecordIndex records = bench::scaled(100000);
  const GeneratorConfig cfg = workloads::fig3_parallel(records);
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};
  const MafiaResult ref = run_mafia(source, options);
  const auto nrecords = static_cast<std::size_t>(data.num_records());

  TransactionTable table(ref.grids, all_items(ref.grids),
                         std::numeric_limits<std::size_t>::max());
  table.accumulate(data.values().data(), nrecords);
  table.finish();

  // ---- micro: the sweep alone, on fixed CDU stores shaped like a
  // mid-level candidate set (many small subspaces plus a few large ones).
  IcgRandom rng(77);
  const UnitStore cdus = make_cdus(rng, ref.grids, 3, 600);
  const UnitStore wide = make_cdus(rng, ref.grids, 9, 600);
  const std::size_t reps = std::max<std::size_t>(1,
      static_cast<std::size_t>(3.0 * bench::scale()));

  struct MicroCase {
    const char* tag;
    const UnitStore* cdus;
    const TransactionTable* table;
  };
  const MicroCase cases[] = {
      {"micro-kernel=bitmap", &cdus, nullptr},
      {"micro-kernel=table", &cdus, &table},
      {"micro-kernel=bitmap-k9", &wide, nullptr},
      {"micro-kernel=table-k9", &wide, &table}};
  std::printf("\n[micro] accumulate only: %zu CDUs each, %zu records, %zu "
              "table rows, %zu reps\n", cdus.size(), nrecords, table.rows(),
              reps);
  std::printf("%-3s %-8s %-14s %s\n", "k", "source", "seconds", "rows/s");
  std::vector<Count> counts[4];
  for (std::size_t i = 0; i < 4; ++i) {
    const MicroCase& c = cases[i];
    double secs = 0.0;
    const double tp = sweep_throughput(ref.grids, *c.cdus, data, c.table,
                                       reps, &secs, &counts[i]);
    std::printf("%-3zu %-8s %-14.3f %.3e\n", c.cdus->k(),
                c.table != nullptr ? "table" : "records", secs, tp);
    const std::size_t rows = c.table != nullptr ? c.table->rows() : nrecords;
    record_micro(c.tag, secs, rows * reps, data.num_dims());
  }
  // Same store, same records: both row sources must count alike.
  const bool agree = counts[0] == counts[1] && counts[2] == counts[3];
  std::printf("records and table counts %s\n",
              agree ? "agree" : "DIFFER (bug)");

  // ---- 256 bins: every dim cut into kMaxBinsPerDim equal bins; k = 2
  // units pair bin b of dim j with bin b of dim j + 1, so every bin of
  // every dim is used.
  {
    const std::vector<Value> lo(data.num_dims(), 0.0f);
    const std::vector<Value> hi(data.num_dims(), 100.0f);
    const GridSet fine = compute_uniform_grids(lo, hi, kMaxBinsPerDim, 0.01,
                                               data.num_records());
    UnitStore dense(2);
    for (std::size_t j = 0; j + 1 < fine.num_dims(); ++j) {
      for (std::size_t b = 0; b < kMaxBinsPerDim; ++b) {
        const DimId dims[2] = {static_cast<DimId>(j), static_cast<DimId>(j + 1)};
        const BinId bins[2] = {static_cast<BinId>(b), static_cast<BinId>(b)};
        dense.push_unchecked(dims, bins);
      }
    }
    double secs = 0.0;
    const double tp =
        sweep_throughput(fine, dense, data, nullptr, reps, &secs);
    std::printf("\n[256 bins] bitmap over records: %zu CDUs, %zu used bins "
                "(%zu dims x %zu), %zu reps: %.3f s, %.3e rows/s\n",
                dense.size(), used_bins(dense), fine.num_dims(),
                kMaxBinsPerDim, reps, secs, tp);
    record_micro("micro-kernel=bitmap-256bins", secs, nrecords * reps,
                 data.num_dims());
  }

  std::printf("\nrows appended to BENCH_populate.json "
              "(scripts/bench_gate.py compares against the committed "
              "baselines).\n");
  return agree ? 0 : 1;
}
