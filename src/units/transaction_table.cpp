#include "units/transaction_table.hpp"

#include <algorithm>
#include <cstring>

#include "common/math_util.hpp"

namespace mafia {

namespace {

constexpr std::uint32_t kEmptySlot = 0xffffffffu;

/// Hash of a w-byte tuple, eight bytes at a time.
std::uint64_t hash_tuple(const BinId* t, std::size_t w) {
  std::uint64_t h = w;
  std::size_t i = 0;
  for (; i + 8 <= w; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, t + i, 8);
    h = mix64(h ^ word);
  }
  if (i < w) {
    std::uint64_t word = 0;
    std::memcpy(&word, t + i, w - i);
    h = mix64(h ^ word);
  }
  return h;
}

}  // namespace

std::size_t transaction_table_cap(std::size_t partition_rows,
                                  std::size_t num_dims,
                                  std::size_t max_cdu_bytes) {
  const std::size_t cap =
      partition_rows * num_dims * sizeof(Value) / kTransactionTableCapDivisor;
  return max_cdu_bytes == 0 ? cap : std::min(cap, max_cdu_bytes);
}

TransactionTable::TransactionTable(const GridSet& grids, const UnitStore& cdus,
                                   std::size_t max_bytes)
    : grids_(&grids),
      max_bytes_(max_bytes),
      item_used_(grids.num_dims() * kMaxBinsPerDim, 0),
      slots_(hash_table_capacity(1), kEmptySlot) {
  for (std::size_t u = 0; u < cdus.size(); ++u) {
    const auto dims = cdus.dims(u);
    const auto bins = cdus.bins(u);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      item_used_[static_cast<std::size_t>(dims[i]) * kMaxBinsPerDim + bins[i]] = 1;
    }
  }
  for (std::size_t j = 0; j < grids.num_dims(); ++j) {
    const std::uint8_t* used = item_used_.data() + j * kMaxBinsPerDim;
    if (std::none_of(used, used + kMaxBinsPerDim,
                     [](std::uint8_t f) { return f != 0; })) {
      continue;
    }
    key_dims_.push_back(static_cast<DimId>(j));
    locators_.emplace_back(grids[j]);
    // The sentinel is the first id no CDU uses in this dim; with all ids
    // in use every bin keys as itself and the sentinel is never written.
    const auto free_id = std::find(used, used + kMaxBinsPerDim, 0) - used;
    for (std::size_t b = 0; b < kMaxBinsPerDim; ++b) {
      remap_.push_back(static_cast<BinId>(used[b] ? b : free_id));
    }
  }
  tuple_.resize(key_dims_.size());
}

std::size_t TransactionTable::footprint() const {
  return rows() * (grids_->num_dims() * sizeof(BinId) + sizeof(Count)) +
         slots_.size() * sizeof(std::uint32_t);
}

void TransactionTable::accumulate(const Value* rows, std::size_t nrows) {
  const std::size_t d = grids_->num_dims();
  const std::size_t w = key_dims_.size();
  BinId* t = tuple_.data();
  for (std::size_t r = 0; r < nrows && !abandoned_; ++r) {
    const Value* row = rows + r * d;
    for (std::size_t i = 0; i < w; ++i) {
      t[i] = remap_[i * kMaxBinsPerDim + locators_[i].locate(row[key_dims_[i]])];
    }
    ++records_;
    insert(t);
  }
}

void TransactionTable::insert(const BinId* tuple) {
  const std::size_t w = key_dims_.size();
  const std::uint64_t mask = slots_.size() - 1;
  std::uint64_t h = hash_tuple(tuple, w) & mask;
  for (; slots_[h] != kEmptySlot; h = (h + 1) & mask) {
    const std::uint32_t row = slots_[h];
    if (std::memcmp(keys_.data() + row * w, tuple, w) == 0) {
      ++weights_[row];
      return;
    }
  }
  slots_[h] = static_cast<std::uint32_t>(rows());
  keys_.insert(keys_.end(), tuple, tuple + w);
  weights_.push_back(1);
  // Keep the index at <= 50% load (see hash_table_capacity).
  if (rows() * 2 > slots_.size()) rehash(slots_.size() * 2);
  const std::size_t bytes = footprint();
  if (bytes > peak_bytes_) {
    peak_bytes_ = bytes;
    peak_rows_ = rows();
  }
  if (bytes > max_bytes_) abandon();
}

void TransactionTable::rehash(std::size_t capacity) {
  const std::size_t w = key_dims_.size();
  slots_.assign(capacity, kEmptySlot);
  const std::uint64_t mask = capacity - 1;
  for (std::size_t row = 0; row < rows(); ++row) {
    std::uint64_t h = hash_tuple(keys_.data() + row * w, w) & mask;
    while (slots_[h] != kEmptySlot) h = (h + 1) & mask;
    slots_[h] = static_cast<std::uint32_t>(row);
  }
}

void TransactionTable::abandon() {
  abandoned_ = true;
  keys_ = {};
  weights_ = {};
  slots_ = {};
}

void TransactionTable::finish() {
  slots_ = {};
  if (abandoned_) return;
  const std::size_t n = rows();
  const std::size_t w = key_dims_.size();
  columns_.assign(grids_->num_dims() * n, 0);
  for (std::size_t i = 0; i < w; ++i) {
    BinId* col = columns_.data() + static_cast<std::size_t>(key_dims_[i]) * n;
    for (std::size_t r = 0; r < n; ++r) col[r] = keys_[r * w + i];
  }
  keys_ = {};
}

bool TransactionTable::covers(const UnitStore& cdus) const {
  for (std::size_t u = 0; u < cdus.size(); ++u) {
    const auto dims = cdus.dims(u);
    const auto bins = cdus.bins(u);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (dims[i] >= grids_->num_dims() ||
          !item_used_[static_cast<std::size_t>(dims[i]) * kMaxBinsPerDim + bins[i]]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mafia
