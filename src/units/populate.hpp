// CDU population: counting how many records fall inside each candidate.
//
// This is the I/O-bound, data-parallel phase the paper says dominates run
// time ("bulk of the time is taken in populating the candidate dense units
// which is completely data parallel", Section 5.3).  Each rank counts its
// N/p records, accumulates local counts, and the driver Reduce-sums them.
//
// One sweep counts both row sources, block by block:
//   1. Columns.  For each block of block_records rows, one byte column per
//      dim some CDU uses.  Records (level 1, and every level of a rank
//      whose table fell back at its memory cap) are binned once each,
//      record-major, through the exact cell-table locators of the used dims
//      (grid/bin_locator.hpp) — binning, not counting, is what a streamed
//      pass costs, so each value is binned once per block however many
//      CDUs use its dim.  A transaction table (levels >= 2 by default:
//      one row per distinct dense-item tuple, weighted by its multiplicity,
//      exact because later CDUs only use items of earlier ones — see
//      units/transaction_table.hpp) is already binned: the block's slice of
//      each used dim's column is copied in.
//   2. Bitsets.  The bitset of every used (dim, bin) pair forms from its
//      dim's column by byte compare (AVX2 cmpeq + movemask, a portable loop
//      elsewhere), masking the partial last word (gpumafia's
//      build_bitmaps/count_points_bitmaps model, made block-local).
//   3. Counts.  Each CDU ANDs its k bitsets over the block's words.  A
//      record block adds the popcount of each word (AVX2/NEON fast paths
//      and a std::popcount fallback); a table block adds the weight of
//      every set bit's row instead.
// Duplicate CDU rows share their bitsets, so the counting contract holds
// with or without a prior dedup pass.  A record lies in CDU
// {(d₁,b₁)..(d_k,b_k)} iff its bin index in dimension dᵢ equals bᵢ for all
// i (adaptive bins tile each dimension, so each value maps to exactly one
// bin).  Nothing outgrows one block: the index is used_bins × block_records
// bits plus used_dims × block_records column bytes whatever the partition
// or table size, and each block is self-contained, so the sweep is
// trivially splittable for future intra-rank threading.
//
// The populator builds its bitmap ids and locators up front: a rank picks
// its row source alone, but auxiliary_bytes() — which the driver folds into
// the --max-cdu-bytes budget — must be the same on every rank.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/bin_locator.hpp"
#include "grid/grid_types.hpp"
#include "units/unit_store.hpp"

namespace mafia {

class TransactionTable;

/// Tuning of the populate sweep (the default is the production
/// configuration; the bench and the differential tests sweep it).
struct PopulateConfig {
  /// Rows (records or table rows) per block.  The bitsets hold
  /// block_records bits per used (dim, bin) pair; the default keeps a
  /// level's bitsets and columns inside L2 for the paper's
  /// dimensionalities.
  std::size_t block_records = 2048;
};

/// What the populate sweep did — surfaced through MafiaResult and the JSON
/// report so every recorded populate-phase time is attributable.
struct PopulateKernelStats {
  /// Always zero: the lookup sweeps these counted are gone.  Kept only
  /// because the benchmark's layer replay still sums them.
  std::size_t packed_sorted_subspaces = 0;
  std::size_t packed_hash_subspaces = 0;
  std::size_t memcmp_subspaces = 0;
  /// Distinct subspaces among a populator's CDUs, whichever row source it
  /// sweeps (summed over levels once merged).
  std::size_t bitmap_subspaces = 0;
  std::size_t block_records = 0;
  /// Peak sweep footprint over the run's levels: one block's bitset words
  /// and bin columns, the bitsets' bin ids, and the used dims' cell tables.
  std::size_t bitmap_bytes = 0;
  /// Total 64-bit words ANDed by the sweep, summed over all blocks and
  /// levels — the work metric of the count step.
  std::size_t bitmap_words_anded = 0;
  /// Transaction-table ledger (the driver fills these at the end of a run;
  /// the populator never does).  Rows and bytes are the largest any rank's
  /// table reached — an abandoned table reports the size that crossed its
  /// cap; built_level is the level whose CDUs keyed the tables (0 when no
  /// table was attempted); fallback_ranks counts the ranks that abandoned
  /// theirs and streamed instead.
  std::size_t table_rows_max = 0;
  std::size_t table_bytes_max = 0;
  std::size_t table_built_level = 0;
  std::size_t table_fallback_ranks = 0;

  void merge(const PopulateKernelStats& other) {
    bitmap_subspaces += other.bitmap_subspaces;
    block_records = std::max(block_records, other.block_records);
    bitmap_bytes = std::max(bitmap_bytes, other.bitmap_bytes);
    bitmap_words_anded += other.bitmap_words_anded;
    table_rows_max = std::max(table_rows_max, other.table_rows_max);
    table_bytes_max = std::max(table_bytes_max, other.table_bytes_max);
    table_built_level = std::max(table_built_level, other.table_built_level);
    table_fallback_ranks += other.table_fallback_ranks;
  }
};

class UnitPopulator {
 public:
  /// Prepares the bitmap ids and locators for counting membership in
  /// `cdus` under `grids`.  Both must outlive the populator.
  UnitPopulator(const GridSet& grids, const UnitStore& cdus,
                const PopulateConfig& config = {});

  /// Folds `nrows` row-major records (width = grids.num_dims()) into the
  /// local counts.
  void accumulate(const Value* rows, std::size_t nrows);

  /// Folds a finished transaction table into the local counts: each row
  /// adds its weight to every CDU it lies in.  The table must cover the
  /// CDUs (TransactionTable::covers).
  void accumulate(const TransactionTable& table);

  /// Accumulates `base` element-wise into the counts — the append path's
  /// accumulate-into-existing-counts entry point.  The SPMD driver seeds
  /// the stored global counts AFTER the batch-only allreduce, so every rank
  /// adds the base exactly once.  Throws mafia::Error when any sum would
  /// overflow Count.
  void seed_counts(std::span<const Count> base);

  /// Local counts per CDU (index-aligned with the input store), mutable so
  /// the parallel driver can allreduce_sum in place.  Complete after every
  /// accumulate(), so accumulate and counts may interleave.
  [[nodiscard]] std::vector<Count>& counts() { return counts_; }
  [[nodiscard]] const std::vector<Count>& counts() const { return counts_; }

  /// Number of distinct subspaces among the CDUs (exposed for tests/benches).
  [[nodiscard]] std::size_t num_subspaces() const {
    return stats_.bitmap_subspaces;
  }

  /// Subspace count and sweep work of this populator (exposed for the run
  /// report and the benches).
  [[nodiscard]] const PopulateKernelStats& kernel_stats() const { return stats_; }

  /// Auxiliary memory of the sweep: the bitmap ids (k per CDU) and the
  /// bitmap block (see bitmap_block_bytes).  All of it follows from the CDU
  /// store, which every rank holds, so a collective budget guard over it
  /// stays rank-invariant.
  [[nodiscard]] std::size_t auxiliary_bytes() const;

 private:
  /// Steps 2 and 3 of the sweep over the `bn` rows now in cols_: forms the
  /// bitsets, then adds each CDU's AND popcount — or, given `weights`, the
  /// weight of each row its AND keeps.
  void count_block(std::size_t bn, const Count* weights);

  /// The block: used_bins × block_records bits of bitsets (whole words),
  /// their bin ids, used_dims × block_records column bytes (whole words of
  /// rows) and the used dims' cell tables.
  [[nodiscard]] std::size_t bitmap_block_bytes() const;

  const GridSet& grids_;
  std::size_t k_;
  PopulateConfig cfg_;
  PopulateKernelStats stats_;
  std::vector<Count> counts_;
  // Bitset ids run dim-major over the used (dim, bin) pairs: used dim i
  // owns ids [dim_first_id_[i], dim_first_id_[i + 1]), and bitset id t
  // tests bin item_bins_[t].  The CDU at sweep position m, order_[m],
  // ANDs the bitsets bitmap_ids_[m * k_ .. m * k_ + k_).  bitsets_ holds
  // block_words_ words per id; cols_ holds one column of block_words_ * 64
  // bin bytes per used dim, both refilled for every block.
  std::size_t block_words_;
  std::vector<DimId> used_dims_;
  std::vector<BinLocator> locators_;  // index-aligned with used_dims_
  std::vector<std::uint32_t> dim_first_id_;
  std::vector<BinId> item_bins_;
  std::vector<std::uint32_t> order_;  // sweep position -> CDU index
  std::vector<std::uint32_t> bitmap_ids_;
  std::vector<std::uint64_t> bitsets_;
  std::vector<BinId> cols_;
};

}  // namespace mafia
