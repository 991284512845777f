#include "units/populate.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <type_traits>

#include "common/math_util.hpp"
#include "units/transaction_table.hpp"

#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)
#include <immintrin.h>
#elif defined(__aarch64__) && !defined(PMAFIA_DISABLE_SIMD)
#include <arm_neon.h>
#endif

namespace mafia {

// Row-layout contract for the memcmp-based sort and search (the k > 8
// fallback): a unit's bin tuple is k_ contiguous BinId elements, so a row
// occupies exactly k_ * sizeof(BinId) bytes with no padding, and byte-wise
// comparison yields a consistent total order between the sort and the
// search (for multi-byte BinId it is not the numeric tuple order, which is
// fine — only consistency and equality matter here).  The packed kernels
// additionally require sizeof(BinId) == 1 (asserted next to pack_bin_key);
// a wider BinId falls back to this memcmp path at compile time.
static_assert(std::is_trivially_copyable_v<BinId> &&
                  std::has_unique_object_representations_v<BinId>,
              "UnitPopulator compares bin rows with memcmp; BinId must have "
              "no padding bits");

// The bitmap kernel indexes bin_map_ as dim * kMaxBinsPerDim + bin, so a
// BinId must not be able to exceed the per-dimension stride.
static_assert(sizeof(BinId) == 1 && kMaxBinsPerDim == 256,
              "bitmap bin_map_ stride assumes byte-wide bin ids");

namespace {

/// Empty-slot sentinel of the open-addressing tables.
constexpr std::uint32_t kEmptySlot = 0xffffffffu;

/// "(dim, bin) used by no CDU" sentinel of the bitmap kernel's bin map.
constexpr std::uint32_t kNoBitmap = 0xffffffffu;

/// Branchless lower bound over a sorted uint64 array: the comparison feeds
/// a conditional add instead of a branch, so the search pipeline never
/// stalls on the data-dependent direction the memcmp path branches on.
inline std::size_t lower_bound_u64(const std::uint64_t* a, std::size_t n,
                                   std::uint64_t key) {
  std::size_t base = 0;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (a[base + half - 1] < key) ? half : 0;
    n -= half;
  }
  return base + (n == 1 && a[base] < key ? 1 : 0);
}

// ------------------------------------------------ bitmap AND + popcount
//
// popcount(bm[0][w] & ... & bm[k-1][w]) summed over the word range
// [w0, w1).  The portable path is the semantic definition; the SIMD paths
// widen the AND to 256 bits (AVX2) or 128 bits (NEON) and must produce
// identical sums.  Building with PMAFIA_DISABLE_SIMD compiles only the
// portable path (the sanitizer CI leg exercises it on every host).

using BitmapPtrs = const std::uint64_t* const*;

Count and_popcount_portable(BitmapPtrs bm, std::size_t k, std::size_t w0,
                            std::size_t w1) {
  Count c = 0;
  for (std::size_t w = w0; w < w1; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    c += static_cast<Count>(std::popcount(x));
  }
  return c;
}

#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)

__attribute__((target("avx2,popcnt"))) Count and_popcount_avx2(
    BitmapPtrs bm, std::size_t k, std::size_t w0, std::size_t w1) {
  Count c = 0;
  std::size_t w = w0;
  for (; w + 4 <= w1; w += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bm[0] + w));
    for (std::size_t i = 1; i < k; ++i) {
      x = _mm256_and_si256(
          x, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bm[i] + w)));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), x);
    c += static_cast<Count>(
        _mm_popcnt_u64(lanes[0]) + _mm_popcnt_u64(lanes[1]) +
        _mm_popcnt_u64(lanes[2]) + _mm_popcnt_u64(lanes[3]));
  }
  for (; w < w1; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    c += static_cast<Count>(_mm_popcnt_u64(x));
  }
  return c;
}

#elif defined(__aarch64__) && !defined(PMAFIA_DISABLE_SIMD)

Count and_popcount_neon(BitmapPtrs bm, std::size_t k, std::size_t w0,
                        std::size_t w1) {
  Count c = 0;
  std::size_t w = w0;
  for (; w + 2 <= w1; w += 2) {
    uint64x2_t x = vld1q_u64(bm[0] + w);
    for (std::size_t i = 1; i < k; ++i) x = vandq_u64(x, vld1q_u64(bm[i] + w));
    // vcntq_u8 counts per byte; the 16 byte-counts sum to at most 128, so
    // the across-vector byte add cannot wrap.
    c += static_cast<Count>(vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(x))));
  }
  for (; w < w1; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    c += static_cast<Count>(std::popcount(x));
  }
  return c;
}

#endif

using AndPopcountFn = Count (*)(BitmapPtrs, std::size_t, std::size_t,
                                std::size_t);

/// Resolves the AND+popcount implementation once per process: AVX2+POPCNT
/// when the host supports it, NEON on AArch64, std::popcount otherwise.
AndPopcountFn resolve_and_popcount() {
#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) {
    return &and_popcount_avx2;
  }
#elif defined(__aarch64__) && !defined(PMAFIA_DISABLE_SIMD)
  return &and_popcount_neon;
#endif
  return &and_popcount_portable;
}

}  // namespace

UnitPopulator::UnitPopulator(const GridSet& grids, const UnitStore& cdus,
                             const PopulateConfig& config)
    : grids_(grids),
      k_(cdus.k()),
      packed_(cdus.k() <= kPackedKeyMaxDims &&
              config.kernel == PopulateKernel::Auto),
      bitmap_(config.kernel == PopulateKernel::Bitmap),
      cfg_(config),
      counts_(cdus.size(), 0),
      dim_used_(grids.num_dims(), 0),
      key_scratch_(cdus.k()) {
  require(cfg_.block_records >= 1, "UnitPopulator: block_records must be positive");
  stats_.block_records = cfg_.block_records;
  col_bins_.resize(grids.num_dims() * cfg_.block_records);
  if (bitmap_) bin_map_.assign(grids.num_dims() * kMaxBinsPerDim, kNoBitmap);
  std::uint32_t num_bitmaps = 0;

  // Group CDU indices by dimension set.
  std::map<std::vector<DimId>, std::vector<std::uint32_t>> by_subspace;
  for (std::size_t u = 0; u < cdus.size(); ++u) {
    const auto d = cdus.dims(u);
    std::vector<DimId> key(d.begin(), d.end());
    by_subspace[std::move(key)].push_back(static_cast<std::uint32_t>(u));
  }

  subspaces_.reserve(by_subspace.size());
  for (auto& [dims, members] : by_subspace) {
    Subspace sub;
    sub.dims = dims;
    for (const DimId d : dims) dim_used_[d] = 1;

    // Lex-sort the member CDUs by their bin rows so record lookup is a
    // search over contiguous rows; for the packed kernels ascending key
    // order is the same order (pack_bin_key is byte-lexicographic).
    std::sort(members.begin(), members.end(),
              [&cdus, this](std::uint32_t a, std::uint32_t b) {
                return std::memcmp(cdus.bins(a).data(), cdus.bins(b).data(),
                                   k_ * sizeof(BinId)) < 0;
              });
    sub.cdu_index = members;

    if (bitmap_) {
      // Assign one bitmap id per distinct (dim, bin) pair the subspace's
      // members reference; a CDU's count is then the AND of its k bitmaps.
      sub.bitmap_ids.reserve(members.size() * k_);
      for (const std::uint32_t u : members) {
        const auto bins = cdus.bins(u);
        for (std::size_t i = 0; i < k_; ++i) {
          std::uint32_t& id =
              bin_map_[static_cast<std::size_t>(dims[i]) * kMaxBinsPerDim +
                       bins[i]];
          if (id == kNoBitmap) id = num_bitmaps++;
          sub.bitmap_ids.push_back(id);
        }
      }
      ++stats_.bitmap_subspaces;
    } else if (packed_) {
      sub.keys.reserve(members.size());
      for (const std::uint32_t u : members) {
        sub.keys.push_back(pack_bin_key(cdus.bins(u).data(), k_));
      }
      if (members.size() >= cfg_.hash_min_cdus) {
        // Open-addressing table at <= 50% load (see hash_table_capacity),
        // mapping each distinct key to the first row of its equal run in
        // the sorted key array.
        const std::size_t cap = hash_table_capacity(members.size());
        sub.slots.assign(cap, kEmptySlot);
        sub.slot_mask = cap - 1;
        for (std::size_t i = members.size(); i-- > 0;) {
          std::uint64_t h = mix64(sub.keys[i]) & sub.slot_mask;
          while (sub.slots[h] != kEmptySlot &&
                 sub.keys[sub.slots[h]] != sub.keys[i]) {
            h = (h + 1) & sub.slot_mask;
          }
          sub.slots[h] = static_cast<std::uint32_t>(i);
        }
        ++stats_.packed_hash_subspaces;
      } else {
        ++stats_.packed_sorted_subspaces;
      }
    } else {
      sub.sorted_bins.reserve(members.size() * k_);
      for (const std::uint32_t u : members) {
        const auto b = cdus.bins(u);
        sub.sorted_bins.insert(sub.sorted_bins.end(), b.begin(), b.end());
      }
      ++stats_.memcmp_subspaces;
    }
    subspaces_.push_back(std::move(sub));
  }
  if (bitmap_) {
    bitmaps_.resize(num_bitmaps);
    stats_.bitmap_bytes = bitmap_index_bytes(0);
  }
}

std::size_t UnitPopulator::bitmap_index_bytes(std::size_t nrows) const {
  const std::size_t words = (nrows + 63) / 64;
  return bitmaps_.size() * words * sizeof(std::uint64_t) +
         bin_map_.size() * sizeof(std::uint32_t);
}

std::size_t UnitPopulator::auxiliary_bytes(std::size_t nrows) const {
  std::size_t bytes = bitmap_ ? bitmap_index_bytes(nrows) : 0;
  for (const Subspace& sub : subspaces_) {
    bytes += sub.cdu_index.size() * sizeof(std::uint32_t) +
             sub.keys.size() * sizeof(std::uint64_t) +
             sub.slots.size() * sizeof(std::uint32_t) +
             sub.sorted_bins.size() * sizeof(BinId) +
             sub.bitmap_ids.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

void UnitPopulator::accumulate(const Value* rows, std::size_t nrows) {
  const std::size_t d = grids_.num_dims();
  const std::size_t block = cfg_.block_records;

  if (bitmap_) {
    // Grow every bitset to cover the rows this call appends (tail bits stay
    // zero, which the incremental finalization relies on).
    const std::size_t words = (nrows_seen_ + nrows + 63) / 64;
    for (auto& bm : bitmaps_) bm.resize(words, 0);
    stats_.bitmap_bytes =
        std::max(stats_.bitmap_bytes, bitmap_index_bytes(nrows_seen_ + nrows));
  }

  for (std::size_t base = 0; base < nrows; base += block) {
    const std::size_t bn = std::min(block, nrows - base);

    // Bin the block once in every dimension that participates anywhere:
    // one column of bin indices per dimension, so the subspace sweep below
    // reads sequential bytes instead of re-binning per subspace.
    for (std::size_t j = 0; j < d; ++j) {
      if (!dim_used_[j]) continue;
      BinId* col = col_bins_.data() + j * block;
      const DimensionGrid& g = grids_[j];
      const Value* v = rows + base * d + j;
      for (std::size_t r = 0; r < bn; ++r, v += d) col[r] = g.bin_of(*v);
    }

    if (bitmap_) {
      // Bitmap build: set each record's bit in the bitset of every used
      // (dim, bin) it lands in.  Counting is deferred to counts().
      const std::size_t bit0 = nrows_seen_ + base;
      for (std::size_t j = 0; j < d; ++j) {
        if (!dim_used_[j]) continue;
        const BinId* col = col_bins_.data() + j * block;
        const std::uint32_t* map = bin_map_.data() + j * kMaxBinsPerDim;
        for (std::size_t r = 0; r < bn; ++r) {
          const std::uint32_t id = map[col[r]];
          if (id == kNoBitmap) continue;
          const std::size_t bit = bit0 + r;
          bitmaps_[id][bit >> 6] |= std::uint64_t{1} << (bit & 63);
        }
      }
      continue;
    }
    sweep({col_bins_.data(), block, bn, nullptr});
  }
  if (bitmap_) nrows_seen_ += nrows;
}

void UnitPopulator::accumulate(const TransactionTable& table) {
  require(!bitmap_, "UnitPopulator: the bitmap kernel counts records, not a "
                    "transaction table");
  const std::size_t n = table.rows();
  const std::size_t block = cfg_.block_records;
  // Same block walk as the record path, so the k columns a subspace reads
  // stay cache-resident across all subspaces of the block.
  for (std::size_t base = 0; base < n; base += block) {
    sweep({table.columns() + base, n, std::min(block, n - base),
           table.weights() + base});
  }
}

void UnitPopulator::sweep(const ColumnBlock& b) {
  // Subspace-major: each subspace's lookup structure stays hot across the
  // whole block.
  for (const Subspace& sub : subspaces_) {
    if (!packed_) {
      sweep_memcmp(sub, b);
    } else if (!sub.slots.empty()) {
      sweep_packed_hash(sub, b);
    } else {
      sweep_packed_sorted(sub, b);
    }
  }
}

void UnitPopulator::seed_counts(std::span<const Count> base) {
  require(base.size() == counts_.size(),
          "UnitPopulator::seed_counts: base size mismatch");
  // Fold any pending bitmap rows first so the overflow check sees the
  // final local contribution (addition commutes, but a late finalization
  // could overflow silently after the guarded add).
  finalize_bitmap_counts();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > std::numeric_limits<Count>::max() - base[i]) {
      throw Error("UnitPopulator: unit-count accumulation overflowed",
                  ErrorClass::Internal);
    }
    counts_[i] += base[i];
  }
}

void UnitPopulator::finalize_bitmap_counts() const {
  if (!bitmap_ || done_rows_ == nrows_seen_) return;
  static const AndPopcountFn and_popcount = resolve_and_popcount();

  // Word range the pending rows [done_rows_, nrows_seen_) occupy.  The
  // first word may straddle the watermark: its already-counted low bits are
  // masked off so they are not counted twice.
  const std::size_t w0 = done_rows_ / 64;
  const std::size_t w1 = (nrows_seen_ + 63) / 64;
  const unsigned head_bits = static_cast<unsigned>(done_rows_ % 64);
  const std::uint64_t head_mask = ~std::uint64_t{0} << head_bits;

  std::vector<const std::uint64_t*> ptrs(k_);
  for (const Subspace& sub : subspaces_) {
    for (std::size_t m = 0; m < sub.cdu_index.size(); ++m) {
      const std::uint32_t* ids = sub.bitmap_ids.data() + m * k_;
      for (std::size_t i = 0; i < k_; ++i) ptrs[i] = bitmaps_[ids[i]].data();
      Count c = 0;
      std::size_t w = w0;
      if (head_bits != 0 && w < w1) {
        std::uint64_t x = ptrs[0][w] & head_mask;
        for (std::size_t i = 1; i < k_; ++i) x &= ptrs[i][w];
        c += static_cast<Count>(std::popcount(x));
        ++w;
      }
      c += and_popcount(ptrs.data(), k_, w, w1);
      counts_[sub.cdu_index[m]] += c;
      stats_.bitmap_words_anded += (w1 - w0) * k_;
    }
  }
  done_rows_ = nrows_seen_;
}

// The sweeps copy the block's fields into locals: stride and rows share
// Count's type, so reading them through `b` would make the compiler reload
// them after every count increment.

void UnitPopulator::sweep_packed_sorted(const Subspace& sub,
                                        const ColumnBlock& b) {
  const auto [cols, stride, n, weights] = b;
  const DimId* dims = sub.dims.data();
  const std::uint64_t* keys = sub.keys.data();
  const std::size_t m = sub.keys.size();
  for (std::size_t r = 0; r < n; ++r) {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      key = (key << 8) | cols[dims[i] * stride + r];
    }
    const Count w = weights != nullptr ? weights[r] : 1;
    for (std::size_t pos = lower_bound_u64(keys, m, key);
         pos < m && keys[pos] == key; ++pos) {
      counts_[sub.cdu_index[pos]] += w;
    }
  }
}

void UnitPopulator::sweep_packed_hash(const Subspace& sub,
                                      const ColumnBlock& b) {
  const auto [cols, stride, n, weights] = b;
  const DimId* dims = sub.dims.data();
  const std::uint64_t* keys = sub.keys.data();
  const std::size_t m = sub.keys.size();
  for (std::size_t r = 0; r < n; ++r) {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      key = (key << 8) | cols[dims[i] * stride + r];
    }
    const Count w = weights != nullptr ? weights[r] : 1;
    std::uint64_t h = mix64(key) & sub.slot_mask;
    while (sub.slots[h] != kEmptySlot) {
      const std::size_t first = sub.slots[h];
      if (keys[first] == key) {
        for (std::size_t pos = first; pos < m && keys[pos] == key; ++pos) {
          counts_[sub.cdu_index[pos]] += w;
        }
        break;
      }
      h = (h + 1) & sub.slot_mask;
    }
  }
}

void UnitPopulator::sweep_memcmp(const Subspace& sub, const ColumnBlock& b) {
  const auto [cols, stride, n, weights] = b;
  const DimId* dims = sub.dims.data();
  BinId* key = key_scratch_.data();
  for (std::size_t r = 0; r < n; ++r) {
    // Project the record onto the subspace's dimensions.
    for (std::size_t i = 0; i < k_; ++i) key[i] = cols[dims[i] * stride + r];
    const Count w = weights != nullptr ? weights[r] : 1;

    // Binary search the projected bin tuple among the sorted CDU rows.
    std::size_t lo = 0;
    std::size_t hi = sub.cdu_index.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const int cmp = std::memcmp(sub.sorted_bins.data() + mid * k_, key,
                                  k_ * sizeof(BinId));
      if (cmp < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Count every matching row (duplicate CDUs are normally removed by
    // dedup before populating, but the counting contract holds either way:
    // identical candidates sort adjacently).
    while (lo < sub.cdu_index.size() &&
           std::memcmp(sub.sorted_bins.data() + lo * k_, key,
                       k_ * sizeof(BinId)) == 0) {
      counts_[sub.cdu_index[lo]] += w;
      ++lo;
    }
  }
}

}  // namespace mafia
