// CDU population: counting how many records fall inside each candidate.
//
// This is the I/O-bound, data-parallel phase the paper says dominates run
// time ("bulk of the time is taken in populating the candidate dense units
// which is completely data parallel", Section 5.3).  Each rank counts its
// N/p records, accumulates local counts, and the driver Reduce-sums them.
//
// The row source picks the sweep; there is no kernel option.
//   * Records (level 1, and every level of a rank whose table fell back at
//     its memory cap) stream through accumulate(rows, nrows), which counts
//     with the bitmap sweep (gpumafia's build_bitmaps/count_points_bitmaps
//     model, made block-local).  For each block of block_records records
//     it bins every record once, record-major, through the exact cell-table
//     locators of the dims some CDU uses (grid/bin_locator.hpp) into one
//     byte column per used dim; forms the bitset of every used (dim, bin)
//     pair from its dim's column by byte compare (AVX2 cmpeq + movemask,
//     a portable loop elsewhere), masking the partial last word; then ANDs
//     each CDU's k bitsets over the block's words and adds the popcount to
//     the CDU's count — a branch-free reduction with an AVX2/NEON fast path
//     and a std::popcount fallback.  Binning, not counting, is what a
//     streamed pass costs, so each value is binned once per block however
//     many CDUs use its dim.  Nothing outgrows one block: the index is
//     used_bins × block_records bits plus used_dims × block_records column
//     bytes whatever the partition size.
//   * A transaction table (levels >= 2 by default) sweeps through
//     accumulate(table): one row per distinct dense-item tuple, weighted by
//     its multiplicity — exact because later CDUs only use items of earlier
//     ones (see units/transaction_table.hpp).  The table's rows go through
//     the per-subspace lookups, block by block and subspace-major, so each
//     subspace's lookup structure stays hot across a block:
//       - packed/sorted (k <= 8): the k bin bytes of each CDU row pack into
//         one uint64 (pack_bin_key); a row's projected tuple packs the same
//         way and a branchless lower_bound over the flat sorted key array
//         finds it;
//       - packed/hash (k <= 8, high CDU count): an open-addressing
//         exact-match table over the packed keys turns the lookup into
//         O(1) probes;
//       - memcmp (k > 8): binary search of the projected k-byte row against
//         the subspace's lexicographically sorted CDU rows — the fallback
//         for units wider than a packed key.
// Every sweep counts duplicate CDU rows correctly (identical candidates
// share their bitsets, sort adjacently, and the hash table points at the
// first row of an equal run), so the contract holds with or without a
// prior dedup pass.  A record lies in CDU {(d₁,b₁)..(d_k,b_k)} iff its bin
// index in dimension dᵢ equals bᵢ for all i (adaptive bins tile each
// dimension, so each value maps to exactly one bin).  Both sweeps are
// self-contained per block, so they are trivially splittable for future
// intra-rank threading.
//
// The populator builds the lookups and the bitmap ids up front: a rank
// picks its row source alone, but auxiliary_bytes() — which the driver
// folds into the --max-cdu-bytes budget — must be the same on every rank.
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

/// Sweep-family ids, recorded per level in the run trace
/// (LevelTrace::populate_kernel).
inline constexpr std::uint8_t kPopulateKernelPacked = 0;
inline constexpr std::uint8_t kPopulateKernelMemcmp = 1;
inline constexpr std::uint8_t kPopulateKernelBitmap = 2;

/// Tuning knobs for the populate sweeps (defaults are the production
/// configuration; the bench and the differential tests sweep them).
struct PopulateConfig {
  /// Records (or table rows) per block of either sweep.  The bitmap sweep's
  /// bitsets hold block_records bits per used (dim, bin) pair; the default
  /// keeps a level's bitsets and a table block's columns inside L2 for the
  /// paper's dimensionalities.
  std::size_t block_records = 2048;

  /// Packed subspaces with at least this many CDUs get the open-addressing
  /// exact-match table instead of the sorted-array search.
  std::size_t hash_min_cdus = 48;
};

/// Open-addressing table capacity for `members` keys: the next power of
/// two at or above twice the member count, so the table never exceeds 50%
/// load.  The 2× headroom matters precisely at power-of-two member counts:
/// rounding members up to a power of two with no slack would put such a
/// table at load factor 1.0, where probe chains degenerate and — with no
/// empty slot left — the linear-probe miss loop never terminates.
[[nodiscard]] inline std::size_t hash_table_capacity(std::size_t members) {
  std::size_t cap = 4;
  while (cap < members * 2) cap *= 2;
  return cap;
}

/// Which sweep each subspace ran on — surfaced through MafiaResult and the
/// JSON report so the populate-phase configuration is visible in every
/// recorded run.  A populator that swept both row sources counts its
/// subspaces under both.
struct PopulateKernelStats {
  std::size_t packed_sorted_subspaces = 0;
  std::size_t packed_hash_subspaces = 0;
  std::size_t memcmp_subspaces = 0;
  std::size_t bitmap_subspaces = 0;
  std::size_t block_records = 0;
  /// Peak bitmap-sweep footprint over the run's levels: one block's bitset
  /// words and bin columns, the bitsets' bin ids, and the used dims' cell
  /// tables; 0 unless records were streamed.
  std::size_t bitmap_bytes = 0;
  /// Total 64-bit words ANDed by the bitmap sweep, summed over all blocks
  /// and levels — the work metric of the AND+popcount reduction.
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
    packed_sorted_subspaces += other.packed_sorted_subspaces;
    packed_hash_subspaces += other.packed_hash_subspaces;
    memcmp_subspaces += other.memcmp_subspaces;
    bitmap_subspaces += other.bitmap_subspaces;
    if (other.block_records > block_records) block_records = other.block_records;
    if (other.bitmap_bytes > bitmap_bytes) bitmap_bytes = other.bitmap_bytes;
    bitmap_words_anded += other.bitmap_words_anded;
    table_rows_max = std::max(table_rows_max, other.table_rows_max);
    table_bytes_max = std::max(table_bytes_max, other.table_bytes_max);
    table_built_level = std::max(table_built_level, other.table_built_level);
    table_fallback_ranks += other.table_fallback_ranks;
  }
};

class UnitPopulator {
 public:
  /// Prepares the lookups and bitmap ids for counting membership in `cdus`
  /// under `grids`.  Both must outlive the populator.
  UnitPopulator(const GridSet& grids, const UnitStore& cdus,
                const PopulateConfig& config = {});

  /// Folds `nrows` row-major records (width = grids.num_dims()) into the
  /// local counts through the bitmap sweep.
  void accumulate(const Value* rows, std::size_t nrows);

  /// Folds a finished transaction table into the local counts through the
  /// lookups: each row adds its weight to every CDU it lies in.  The table
  /// must cover the CDUs (TransactionTable::covers).
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
  [[nodiscard]] std::size_t num_subspaces() const { return subspaces_.size(); }

  /// Per-sweep subspace counts and bitmap work for this populator (exposed
  /// for the run report and the benches).
  [[nodiscard]] const PopulateKernelStats& kernel_stats() const { return stats_; }

  /// Auxiliary memory of either sweep: the per-subspace lookup vectors
  /// (sorted-row -> CDU index, packed keys, hash slots, sorted byte rows),
  /// the bitmap ids, and the bitmap block (see bitmap_block_bytes).  All of
  /// it follows from the CDU store, which every rank holds, so a collective
  /// budget guard over it stays rank-invariant.
  [[nodiscard]] std::size_t auxiliary_bytes() const;

 private:
  struct Subspace {
    std::vector<DimId> dims;               // ascending dimension set, size k
    std::vector<std::uint32_t> cdu_index;  // sorted row -> original CDU index
    // Packed lookups (k <= kPackedKeyMaxDims):
    std::vector<std::uint64_t> keys;  // member CDU rows as sorted packed keys
    std::vector<std::uint32_t> slots;  // open addressing: key -> first run row
    std::uint64_t slot_mask = 0;       // slots.size() - 1 (power of two)
    // Memcmp lookup (k > kPackedKeyMaxDims):
    std::vector<BinId> sorted_bins;  // member CDU bin rows, lex-sorted, k-stride
    // Bitmap sweep: k bitset ids per member CDU, row-major in sorted order.
    std::vector<std::uint32_t> bitmap_ids;
  };

  /// One block of table rows for the lookups: the bin of row r in dim j is
  /// cols[j * stride + r]; row r counts weights[r] times.
  struct ColumnBlock {
    const BinId* cols;
    std::size_t stride;
    std::size_t rows;
    const Count* weights;
  };

  void sweep_packed_sorted(const Subspace& sub, const ColumnBlock& b);
  void sweep_packed_hash(const Subspace& sub, const ColumnBlock& b);
  void sweep_memcmp(const Subspace& sub, const ColumnBlock& b);

  /// The bitmap sweep's block: used_bins × block_records bits of bitsets
  /// (whole words), their bin ids, used_dims × block_records column bytes
  /// (whole words of records) and the used dims' cell tables.
  [[nodiscard]] std::size_t bitmap_block_bytes() const;

  const GridSet& grids_;
  std::size_t k_;
  bool packed_;  // k fits a packed key
  PopulateConfig cfg_;
  PopulateKernelStats stats_;
  std::vector<Subspace> subspaces_;
  std::vector<Count> counts_;
  std::vector<BinId> key_scratch_;  // projected row buffer (memcmp lookup)
  // Bitmap-sweep state.  Bitset ids run dim-major over the used (dim, bin)
  // pairs: used dim i owns ids [dim_first_id_[i], dim_first_id_[i + 1]),
  // and bitset id t tests bin item_bins_[t].  bitsets_ holds block_words_
  // words per id; cols_ holds one column of block_words_ * 64 bin bytes per
  // used dim, both refilled for every block.
  std::size_t block_words_;
  std::vector<DimId> used_dims_;
  std::vector<BinLocator> locators_;  // index-aligned with used_dims_
  std::vector<std::uint32_t> dim_first_id_;
  std::vector<BinId> item_bins_;
  std::vector<std::uint64_t> bitsets_;
  std::vector<BinId> cols_;
};

}  // namespace mafia
