// CDU population: counting how many records fall inside each candidate.
//
// This is the I/O-bound, data-parallel phase the paper says dominates run
// time ("bulk of the time is taken in populating the candidate dense units
// which is completely data parallel", Section 5.3).  Each rank counts its
// N/p records, accumulates local counts, and the driver Reduce-sums them.
//
// Two row sources feed the same counting kernels.  Level 1, and any level
// whose rank abandoned its table at the memory cap, streams the records in
// B-record chunks (accumulate(rows, nrows)).  Levels >= 2 otherwise sweep
// the rank's TransactionTable (accumulate(table)): one row per distinct
// dense-item tuple, weighted by its multiplicity — exact because later
// CDUs only use items of earlier ones (see units/transaction_table.hpp).
// The bitmap kernel always streams: its index is over record ids.
//
// Implementation: a record lies in CDU {(d₁,b₁)..(d_k,b_k)} iff its bin
// index in dimension dᵢ equals bᵢ for all i (adaptive bins tile each
// dimension, so each value maps to exactly one bin).  The populator
// pre-groups CDUs by their dimension set (subspace) and processes records
// in cache-sized blocks with a subspace-major inner loop: each block's
// per-dimension bin indices are computed once into a column buffer, then
// every subspace sweeps the whole block while its lookup structure stays
// hot in cache.  A table block is a slice of the table's own columns, with
// the row weights in place of the implicit weight 1.  The block sweep is
// self-contained per block range, so the kernel is trivially splittable
// for future intra-rank threading.
//
// Per-subspace lookup kernels (PopulateKernel selects; Auto picks packed):
//   * packed/sorted  (k <= 8): the k bin bytes of each CDU row pack into
//     one uint64 (pack_bin_key); a record's projected tuple packs the same
//     way and a branchless lower_bound over the flat sorted key array
//     replaces the per-record memcmp binary search.
//   * packed/hash (k <= 8, high CDU count): an open-addressing exact-match
//     table over the packed keys turns the lookup into O(1) probes.
//   * memcmp (k > 8, or forced): binary search of the projected k-byte row
//     against the subspace's lexicographically sorted CDU rows — the
//     fallback contract for units wider than a packed key.
// All kernels count duplicate CDU rows correctly (identical candidates
// sort adjacently; the hash table points at the first row of an equal
// run), so the contract holds with or without a prior dedup pass.
//
// The Bitmap kernel (gpumafia's build_bitmaps/count_points_bitmaps model)
// inverts the loop structure entirely: the data pass builds one bitset of
// nrows bits per (dim, bin) pair used by any CDU, and a unit's count is
// then the popcount of the AND of its k bitmaps — a branch-free,
// vectorizable reduction over 64-bit words (AVX2/NEON fast path,
// std::popcount fallback).  Bitmap construction happens inside the same
// chunked accumulate() pass as the other kernels, so it composes with the
// pipelined source and SPMD per-rank record ranges; the AND+popcount
// finalization is deferred to the first counts() access after the scan.
// Memory is bits = used_bins × nrows (see auxiliary_bytes), which is why
// the driver folds it into the --max-cdu-bytes budget.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/grid_types.hpp"
#include "units/unit_store.hpp"

namespace mafia {

class TransactionTable;

/// Lookup-kernel selection for UnitPopulator.  Auto picks the packed-key
/// kernels whenever the unit dimensionality allows (k <= kPackedKeyMaxDims)
/// and is the production default; Memcmp forces the byte-row binary-search
/// path everywhere (the k > 8 fallback), kept selectable for the
/// oracle-differential tests and the bench_populate_kernel A/B.  Bitmap
/// switches to per-(dim, bin) record-membership bitsets with AND+popcount
/// counting — any k, wins when bins are few relative to records, loses
/// when the used-bin count (and so the index) grows (the bench reports the
/// crossover).
enum class PopulateKernel { Auto, Memcmp, Bitmap };

/// Resolved kernel-family ids (UnitPopulator::effective_kernel), recorded
/// per level in the run trace.
inline constexpr std::uint8_t kPopulateKernelPacked = 0;
inline constexpr std::uint8_t kPopulateKernelMemcmp = 1;
inline constexpr std::uint8_t kPopulateKernelBitmap = 2;

/// Tuning knobs for the populate kernel (defaults are the production
/// configuration; the bench and the differential tests sweep them).
struct PopulateConfig {
  /// Records per block of the subspace-major sweep.  The block's bin
  /// columns occupy block_records * num_dims bytes; the default keeps them
  /// comfortably inside L2 for the paper's dimensionalities.
  std::size_t block_records = 2048;

  /// Kernel selection (see PopulateKernel).
  PopulateKernel kernel = PopulateKernel::Auto;

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

/// Which kernel each subspace ended up on — surfaced through MafiaResult
/// and the JSON report so the populate-phase configuration is visible in
/// every recorded run.
struct PopulateKernelStats {
  std::size_t packed_sorted_subspaces = 0;
  std::size_t packed_hash_subspaces = 0;
  std::size_t memcmp_subspaces = 0;
  std::size_t bitmap_subspaces = 0;
  std::size_t block_records = 0;
  /// Peak bitmap-index footprint over the run's levels (bitset words plus
  /// the (dim, bin) -> bitmap id map); 0 unless the Bitmap kernel ran.
  std::size_t bitmap_bytes = 0;
  /// Total 64-bit words ANDed by the bitmap count finalization, summed
  /// over all levels — the work metric of the AND+popcount reduction.
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
  /// Prepares lookup structures for counting membership in `cdus` under
  /// `grids`.  Both must outlive the populator.
  UnitPopulator(const GridSet& grids, const UnitStore& cdus,
                const PopulateConfig& config = {});

  /// Folds `nrows` row-major records (width = grids.num_dims()) into the
  /// local counts.
  void accumulate(const Value* rows, std::size_t nrows);

  /// Folds a finished transaction table into the local counts: each row
  /// adds its weight to every CDU it lies in.  The table must cover the
  /// CDUs (TransactionTable::covers); not valid under the Bitmap kernel.
  void accumulate(const TransactionTable& table);

  /// Accumulates `base` element-wise into the counts — the append path's
  /// accumulate-into-existing-counts entry point.  Valid for all three
  /// kernels: counts_ is the unified additive accumulator (the bitmap
  /// kernel's pending rows are finalized first, so seeding and scanning
  /// commute).  The SPMD driver seeds the stored global counts AFTER the
  /// batch-only allreduce, so every rank adds the base exactly once.
  /// Throws mafia::Error when any sum would overflow Count.
  void seed_counts(std::span<const Count> base);

  /// Local counts per CDU (index-aligned with the input store), mutable so
  /// the parallel driver can allreduce_sum in place.  Under the Bitmap
  /// kernel the first access after new accumulate() calls finalizes the
  /// pending rows (AND+popcount over the words they touched); the counts
  /// are append-consistent, so accumulate and counts may interleave.
  [[nodiscard]] std::vector<Count>& counts() {
    finalize_bitmap_counts();
    return counts_;
  }
  [[nodiscard]] const std::vector<Count>& counts() const {
    finalize_bitmap_counts();
    return counts_;
  }

  /// Number of distinct subspaces among the CDUs (exposed for tests/benches).
  [[nodiscard]] std::size_t num_subspaces() const { return subspaces_.size(); }

  /// Per-kernel subspace counts for this populator (exposed for the run
  /// report and the benches).  Under the Bitmap kernel the AND-work counter
  /// is complete only once counts() has finalized the accumulated rows.
  [[nodiscard]] const PopulateKernelStats& kernel_stats() const { return stats_; }

  /// Kernel family this populator resolved to (Auto and the k > 8 packed
  /// fallback resolved), as a kPopulateKernel* id.  Recorded per level in
  /// the run trace.
  [[nodiscard]] std::uint8_t effective_kernel() const {
    if (bitmap_) return kPopulateKernelBitmap;
    return packed_ ? kPopulateKernelPacked : kPopulateKernelMemcmp;
  }

  /// Kernel auxiliary memory needed to count `nrows` records: the
  /// per-subspace lookup vectors (sorted-row -> CDU index, packed keys,
  /// hash slots, sorted byte rows, bitmap ids), plus the bitmap index
  /// (bitset words + bin map) under the Bitmap kernel.  Callers
  /// pass the worst-case partition size so a collective budget guard stays
  /// rank-invariant.  See auxiliary_component() for the matching name.
  [[nodiscard]] std::size_t auxiliary_bytes(std::size_t nrows) const;

  /// Human-readable name of the auxiliary-memory component measured by
  /// auxiliary_bytes(), for resource-error messages.
  [[nodiscard]] const char* auxiliary_component() const {
    return bitmap_ ? "populate bitmap index" : "populate lookup tables";
  }

 private:
  struct Subspace {
    std::vector<DimId> dims;               // ascending dimension set, size k
    std::vector<std::uint32_t> cdu_index;  // sorted row -> original CDU index
    // Packed kernels (k <= kPackedKeyMaxDims):
    std::vector<std::uint64_t> keys;  // member CDU rows as sorted packed keys
    std::vector<std::uint32_t> slots;  // open addressing: key -> first run row
    std::uint64_t slot_mask = 0;       // slots.size() - 1 (power of two)
    // Memcmp fallback (k > kPackedKeyMaxDims or forced):
    std::vector<BinId> sorted_bins;  // member CDU bin rows, lex-sorted, k-stride
    // Bitmap kernel: k bitmap ids per member CDU, row-major in sorted order.
    std::vector<std::uint32_t> bitmap_ids;
  };

  /// One block of rows for the sweeps: the bin of row r in dim j is
  /// cols[j * stride + r]; row r counts `weights[r]` times (once when
  /// weights is null).
  struct ColumnBlock {
    const BinId* cols;
    std::size_t stride;
    std::size_t rows;
    const Count* weights;
  };

  void sweep(const ColumnBlock& b);
  void sweep_packed_sorted(const Subspace& sub, const ColumnBlock& b);
  void sweep_packed_hash(const Subspace& sub, const ColumnBlock& b);
  void sweep_memcmp(const Subspace& sub, const ColumnBlock& b);

  /// Bitmap index bytes (bitset words + bin map) for `nrows` records.
  [[nodiscard]] std::size_t bitmap_index_bytes(std::size_t nrows) const;

  /// Bitmap-kernel count finalization: for every member CDU, AND its k
  /// bitmaps and popcount over the word range the rows accumulated since
  /// the last finalization touched (bits are append-only and tail bits are
  /// zero, so incremental word ranges sum to the full-scan answer).  No-op
  /// for the other kernels or when no rows are pending; const because both
  /// counts() overloads trigger it (counts_/stats_/watermark are mutable).
  void finalize_bitmap_counts() const;

  const GridSet& grids_;
  std::size_t k_;
  bool packed_;  // packed kernels active (k fits a key and not forced off)
  bool bitmap_;  // bitmap kernel active (cfg_.kernel == Bitmap)
  PopulateConfig cfg_;
  mutable PopulateKernelStats stats_;
  std::vector<Subspace> subspaces_;
  mutable std::vector<Count> counts_;
  // Block-sweep scratch: per-dimension bin columns for the current block,
  // dim-major (column j starts at j * block_records), filled only for
  // dimensions that occur in some subspace.
  std::vector<BinId> col_bins_;
  std::vector<std::uint8_t> dim_used_;
  std::vector<BinId> key_scratch_;  // projected row buffer (memcmp path)
  // Bitmap-kernel state.  bin_map_ maps (dim * kMaxBinsPerDim + bin) to a
  // bitmap id (kNoBitmap for (dim, bin) pairs no CDU uses — those set no
  // bits and cost no memory); bitmaps_ holds one word vector of
  // ceil(nrows / 64) words per used pair, grown as accumulate() sees rows.
  std::vector<std::uint32_t> bin_map_;
  std::vector<std::vector<std::uint64_t>> bitmaps_;
  std::size_t nrows_seen_ = 0;          // rows accumulated into the bitmaps
  mutable std::size_t done_rows_ = 0;   // rows already folded into counts_
};

}  // namespace mafia
