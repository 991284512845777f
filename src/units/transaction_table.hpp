// Weighted dense-item transaction table: the rank-local compression of a
// record partition that populate levels >= 2 sweep instead of the records.
//
// Exactness.  A level-(k+1) CDU is a join of two dense level-k units, and
// every dense unit was a CDU of its level, so each (dim, bin) item a later
// CDU uses is an item some CDU of the level the table is built at already
// uses.  A record's membership in every CDU from that level on is therefore
// a function of its bins on those items alone:
//   * dims no CDU uses are dropped from the key;
//   * in a used dim, every bin no CDU uses maps to one per-dim sentinel id
//     that no CDU uses either (when all 256 ids are in use, no bin needs
//     remapping and there is no sentinel);
//   * records with equal mapped tuples merge into one row whose weight is
//     their multiplicity.
// A CDU's count is then the sum of the weights of the rows inside it, the
// same integer a record-at-a-time scan adds up — bit-identical by
// construction, and rank-local, so the populate allreduce is unchanged.
//
// Memory.  The footprint (key columns + weights + hash index) is checked as
// rows arrive; past `max_bytes` the table is abandoned: its memory is
// released, later rows are ignored, and the caller streams the records
// instead.  The driver's cap is transaction_table_cap() — a fixed share of
// the partition's value bytes, tightened by --max-cdu-bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/bin_locator.hpp"
#include "grid/grid_types.hpp"
#include "units/unit_store.hpp"

namespace mafia {

/// The table may use at most 1/kTransactionTableCapDivisor of the rank's
/// partition value bytes (sized on the planted-1m benchmark: its tables
/// need ~0.33 MB per rank against a 1.03 MB cap, while the scattered-1m
/// tables would need ~5 MB per rank and hit the cap within ~15% of the
/// partition).
inline constexpr std::size_t kTransactionTableCapDivisor = 32;

/// Open-addressing capacity of the table's index for `members` rows: the
/// next power of two at or above twice the member count, so the index never
/// exceeds 50% load.  The 2× headroom matters precisely at power-of-two
/// member counts: rounding members up to a power of two with no slack would
/// put the index at load factor 1.0, where probe chains degenerate and —
/// with no empty slot left — the linear-probe miss loop never terminates.
[[nodiscard]] inline std::size_t hash_table_capacity(std::size_t members) {
  std::size_t cap = 4;
  while (cap < members * 2) cap *= 2;
  return cap;
}

/// The driver's table byte cap for a partition of `partition_rows` records
/// of `num_dims` values: the partition share above, and never more than a
/// nonzero `max_cdu_bytes`.
[[nodiscard]] std::size_t transaction_table_cap(std::size_t partition_rows,
                                                std::size_t num_dims,
                                                std::size_t max_cdu_bytes);

class TransactionTable {
 public:
  /// An empty table keyed on the items `cdus` uses under `grids`.  `grids`
  /// must outlive the table; `cdus` is read only here.
  TransactionTable(const GridSet& grids, const UnitStore& cdus,
                   std::size_t max_bytes);

  /// Folds `nrows` row-major records (width = grids.num_dims()) into the
  /// table.  No-op once the table is abandoned.
  void accumulate(const Value* rows, std::size_t nrows);

  /// Ends the build: lays the merged rows out as dim-major columns and
  /// drops the hash index.  Must be called once, after the last accumulate.
  void finish();

  /// True once the footprint passed the cap; the table is then empty.
  [[nodiscard]] bool abandoned() const { return abandoned_; }

  /// Distinct rows (0 once abandoned).
  [[nodiscard]] std::size_t rows() const { return weights_.size(); }

  /// Records folded into the table; equals the sum of the weights until
  /// the table is abandoned.
  [[nodiscard]] Count records() const { return records_; }

  /// Peak footprint of the build, in bytes.  An abandoned table reports
  /// the footprint that crossed the cap.
  [[nodiscard]] std::size_t peak_bytes() const { return peak_bytes_; }

  /// Distinct rows when the peak was reached (an abandoned table reports
  /// the row count that crossed the cap).
  [[nodiscard]] std::size_t peak_rows() const { return peak_rows_; }

  /// Finished table: column j (one BinId per row) starts at
  /// columns() + j * rows(); columns of dims no CDU uses are zero.
  [[nodiscard]] const BinId* columns() const { return columns_.data(); }

  /// Finished table: the multiplicity of each row.
  [[nodiscard]] const Count* weights() const { return weights_.data(); }

  /// True when every item `cdus` uses is an item the table was keyed on —
  /// the precondition for populating `cdus` over this table.
  [[nodiscard]] bool covers(const UnitStore& cdus) const;

 private:
  /// Key columns (in their finished, all-dims width) + weights + index.
  [[nodiscard]] std::size_t footprint() const;
  void insert(const BinId* tuple);
  void rehash(std::size_t capacity);
  void abandon();

  const GridSet* grids_;
  std::size_t max_bytes_;
  std::vector<DimId> key_dims_;  // dims some CDU uses, ascending
  // Bins each record's key dims (index-aligned with key_dims_).  Like the
  // remap rows, one fixed-size table per key dim, outside the footprint.
  std::vector<BinLocator> locators_;
  // remap_[i * kMaxBinsPerDim + b]: the key byte of bin b in key_dims_[i]
  // (b itself when a CDU uses it, the dim's sentinel otherwise).
  std::vector<BinId> remap_;
  // item_used_[dim * kMaxBinsPerDim + bin]: a CDU uses (dim, bin).
  std::vector<std::uint8_t> item_used_;
  std::vector<BinId> keys_;  // build: row-major tuples over key_dims_
  std::vector<Count> weights_;
  std::vector<std::uint32_t> slots_;  // open addressing: tuple -> row
  std::vector<BinId> columns_;        // finished: dim-major, all dims
  std::vector<BinId> tuple_;          // scratch for one record's tuple
  Count records_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t peak_rows_ = 0;
  bool abandoned_ = false;
};

}  // namespace mafia
