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

// The bitmap sweep indexes its (dim, bin) map as dim * kMaxBinsPerDim + bin
// and compares bin columns a byte at a time, so a BinId is one byte.
static_assert(sizeof(BinId) == 1 && kMaxBinsPerDim == 256,
              "bitmap sweep assumes byte-wide bin ids");

namespace {

/// Empty-slot sentinel of the open-addressing tables.
constexpr std::uint32_t kEmptySlot = 0xffffffffu;

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

// ------------------------------------------- bitset formation by compare
//
// out[t * stride + w] gets bit i set iff col[64 * w + i] == bins[t], for
// t < nbins and w < words: the bitsets of one dim's used bins, formed from
// its block column.  The portable loop is the definition; the AVX2 path
// compares 32 bytes per cmpeq and gathers the lane results with movemask.

using FormBitsetsFn = void (*)(const BinId*, const BinId*, std::size_t,
                               std::uint64_t*, std::size_t, std::size_t);

void form_bitsets_portable(const BinId* col, const BinId* bins,
                           std::size_t nbins, std::uint64_t* out,
                           std::size_t stride, std::size_t words) {
  for (std::size_t t = 0; t < nbins; ++t) {
    const BinId bin = bins[t];
    std::uint64_t* o = out + t * stride;
    for (std::size_t w = 0; w < words; ++w) {
      const BinId* c = col + 64 * w;
      std::uint64_t word = 0;
      for (std::size_t i = 0; i < 64; ++i) {
        word |= static_cast<std::uint64_t>(c[i] == bin) << i;
      }
      o[w] = word;
    }
  }
}

#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)

__attribute__((target("avx2"))) void form_bitsets_avx2(
    const BinId* col, const BinId* bins, std::size_t nbins,
    std::uint64_t* out, std::size_t stride, std::size_t words) {
  for (std::size_t t = 0; t < nbins; ++t) {
    const __m256i bin = _mm256_set1_epi8(static_cast<char>(bins[t]));
    std::uint64_t* o = out + t * stride;
    for (std::size_t w = 0; w < words; ++w) {
      const auto* c = reinterpret_cast<const __m256i*>(col + 64 * w);
      const auto lo = static_cast<std::uint32_t>(_mm256_movemask_epi8(
          _mm256_cmpeq_epi8(_mm256_loadu_si256(c), bin)));
      const auto hi = static_cast<std::uint32_t>(_mm256_movemask_epi8(
          _mm256_cmpeq_epi8(_mm256_loadu_si256(c + 1), bin)));
      o[w] = (static_cast<std::uint64_t>(hi) << 32) | lo;
    }
  }
}

#endif

/// Resolves the bitset formation once per process: AVX2 when the host
/// supports it, the portable loop otherwise.
FormBitsetsFn resolve_form_bitsets() {
#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)
  if (__builtin_cpu_supports("avx2")) return &form_bitsets_avx2;
#endif
  return &form_bitsets_portable;
}

// ------------------------------------------------ bitmap AND + popcount
//
// popcount(bm[0][w] & ... & bm[k-1][w]) summed over the words [0, words).  The portable path is the semantic definition; the SIMD paths
// widen the AND to 256 bits (AVX2) or 128 bits (NEON) and must produce
// identical sums.  Building with PMAFIA_DISABLE_SIMD compiles only the
// portable path (the sanitizer CI leg exercises it on every host).

using BitmapPtrs = const std::uint64_t* const*;

Count and_popcount_portable(BitmapPtrs bm, std::size_t k, std::size_t words) {
  Count c = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    c += static_cast<Count>(std::popcount(x));
  }
  return c;
}

#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)

__attribute__((target("avx2,popcnt"))) Count and_popcount_avx2(
    BitmapPtrs bm, std::size_t k, std::size_t words) {
  Count c = 0;
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
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
  for (; w < words; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    c += static_cast<Count>(_mm_popcnt_u64(x));
  }
  return c;
}

#elif defined(__aarch64__) && !defined(PMAFIA_DISABLE_SIMD)

Count and_popcount_neon(BitmapPtrs bm, std::size_t k, std::size_t words) {
  Count c = 0;
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    uint64x2_t x = vld1q_u64(bm[0] + w);
    for (std::size_t i = 1; i < k; ++i) x = vandq_u64(x, vld1q_u64(bm[i] + w));
    // vcntq_u8 counts per byte; the 16 byte-counts sum to at most 128, so
    // the across-vector byte add cannot wrap.
    c += static_cast<Count>(vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(x))));
  }
  for (; w < words; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    c += static_cast<Count>(std::popcount(x));
  }
  return c;
}

#endif

using AndPopcountFn = Count (*)(BitmapPtrs, std::size_t, std::size_t);

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
      packed_(cdus.k() <= kPackedKeyMaxDims),
      cfg_(config),
      counts_(cdus.size(), 0),
      key_scratch_(cdus.k()),
      block_words_((config.block_records + 63) / 64) {
  require(cfg_.block_records >= 1, "UnitPopulator: block_records must be positive");
  stats_.block_records = cfg_.block_records;

  // One bitset id per distinct (dim, bin) pair some CDU uses, numbered
  // dim-major so each used dim's bitsets are formed from its column in one
  // contiguous run; a CDU's block count is then the popcount of the AND of
  // its k bitsets.
  constexpr std::uint32_t kUnused = 0xffffffffu;
  std::vector<std::uint32_t> bitmap_id(grids.num_dims() * kMaxBinsPerDim,
                                       kUnused);
  for (std::size_t u = 0; u < cdus.size(); ++u) {
    const auto d = cdus.dims(u);
    const auto b = cdus.bins(u);
    for (std::size_t i = 0; i < k_; ++i) {
      bitmap_id[static_cast<std::size_t>(d[i]) * kMaxBinsPerDim + b[i]] = 0;
    }
  }
  dim_first_id_.push_back(0);
  for (std::size_t j = 0; j < grids.num_dims(); ++j) {
    const std::size_t before = item_bins_.size();
    for (std::size_t b = 0; b < kMaxBinsPerDim; ++b) {
      std::uint32_t& id = bitmap_id[j * kMaxBinsPerDim + b];
      if (id == kUnused) continue;
      id = static_cast<std::uint32_t>(item_bins_.size());
      item_bins_.push_back(static_cast<BinId>(b));
    }
    if (item_bins_.size() == before) continue;
    used_dims_.push_back(static_cast<DimId>(j));
    locators_.emplace_back(grids[j]);
    dim_first_id_.push_back(static_cast<std::uint32_t>(item_bins_.size()));
  }
  bitsets_.resize(item_bins_.size() * block_words_);
  cols_.resize(used_dims_.size() * block_words_ * 64);

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

    // Lex-sort the member CDUs by their bin rows so a lookup is a search
    // over contiguous rows; for the packed lookups ascending key order is
    // the same order (pack_bin_key is byte-lexicographic).
    std::sort(members.begin(), members.end(),
              [&cdus, this](std::uint32_t a, std::uint32_t b) {
                return std::memcmp(cdus.bins(a).data(), cdus.bins(b).data(),
                                   k_ * sizeof(BinId)) < 0;
              });
    sub.cdu_index = members;

    sub.bitmap_ids.reserve(members.size() * k_);
    for (const std::uint32_t u : members) {
      const auto bins = cdus.bins(u);
      for (std::size_t i = 0; i < k_; ++i) {
        sub.bitmap_ids.push_back(
            bitmap_id[static_cast<std::size_t>(dims[i]) * kMaxBinsPerDim + bins[i]]);
      }
    }

    if (packed_) {
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
      }
    } else {
      sub.sorted_bins.reserve(members.size() * k_);
      for (const std::uint32_t u : members) {
        const auto b = cdus.bins(u);
        sub.sorted_bins.insert(sub.sorted_bins.end(), b.begin(), b.end());
      }
    }
    subspaces_.push_back(std::move(sub));
  }
}

std::size_t UnitPopulator::bitmap_block_bytes() const {
  return bitsets_.size() * sizeof(std::uint64_t) +
         item_bins_.size() * sizeof(BinId) + cols_.size() * sizeof(BinId) +
         locators_.size() * BinLocator::kTableBytes;
}

std::size_t UnitPopulator::auxiliary_bytes() const {
  std::size_t bytes = bitmap_block_bytes();
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
  static const FormBitsetsFn form_bitsets = resolve_form_bitsets();
  static const AndPopcountFn and_popcount = resolve_and_popcount();
  const std::size_t d = grids_.num_dims();
  const std::size_t block = cfg_.block_records;
  const std::size_t nused = used_dims_.size();
  const std::size_t col_stride = block_words_ * 64;
  stats_.bitmap_subspaces = subspaces_.size();
  stats_.bitmap_bytes = bitmap_block_bytes();

  std::vector<const std::uint64_t*> ptrs(k_);
  for (std::size_t base = 0; base < nrows; base += block) {
    const std::size_t bn = std::min(block, nrows - base);
    const std::size_t words = (bn + 63) / 64;

    // Bin: each record once, record-major, into the used dims' columns.
    const Value* row = rows + base * d;
    for (std::size_t r = 0; r < bn; ++r, row += d) {
      BinId* col = cols_.data() + r;
      for (std::size_t i = 0; i < nused; ++i, col += col_stride) {
        *col = locators_[i].locate(row[used_dims_[i]]);
      }
    }

    // Form: each used (dim, bin) bitset from its dim's column.  Column
    // bytes past the block's last record are stale, so the partial last
    // word is masked.
    for (std::size_t i = 0; i < nused; ++i) {
      const std::uint32_t first = dim_first_id_[i];
      form_bitsets(cols_.data() + i * col_stride, item_bins_.data() + first,
                   dim_first_id_[i + 1] - first,
                   bitsets_.data() + first * block_words_, block_words_, words);
    }
    if (bn % 64 != 0) {
      const std::uint64_t mask = (std::uint64_t{1} << (bn % 64)) - 1;
      for (std::size_t t = 0; t < item_bins_.size(); ++t) {
        bitsets_[t * block_words_ + words - 1] &= mask;
      }
    }

    // Count: AND each CDU's k bitsets over the block's words.
    for (const Subspace& sub : subspaces_) {
      for (std::size_t m = 0; m < sub.cdu_index.size(); ++m) {
        const std::uint32_t* ids = sub.bitmap_ids.data() + m * k_;
        for (std::size_t i = 0; i < k_; ++i) {
          ptrs[i] = bitsets_.data() + ids[i] * block_words_;
        }
        counts_[sub.cdu_index[m]] += and_popcount(ptrs.data(), k_, words);
      }
      stats_.bitmap_words_anded += sub.cdu_index.size() * words * k_;
    }
  }
}

void UnitPopulator::accumulate(const TransactionTable& table) {
  const std::size_t hashed = static_cast<std::size_t>(
      std::count_if(subspaces_.begin(), subspaces_.end(),
                    [](const Subspace& sub) { return !sub.slots.empty(); }));
  if (packed_) {
    stats_.packed_hash_subspaces = hashed;
    stats_.packed_sorted_subspaces = subspaces_.size() - hashed;
  } else {
    stats_.memcmp_subspaces = subspaces_.size();
  }

  const std::size_t n = table.rows();
  const std::size_t block = cfg_.block_records;
  // Subspace-major within each block: the k columns a subspace reads and
  // its lookup structure stay cache-resident across the block.
  for (std::size_t base = 0; base < n; base += block) {
    const ColumnBlock b{table.columns() + base, n, std::min(block, n - base),
                        table.weights() + base};
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
}

void UnitPopulator::seed_counts(std::span<const Count> base) {
  require(base.size() == counts_.size(),
          "UnitPopulator::seed_counts: base size mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > std::numeric_limits<Count>::max() - base[i]) {
      throw Error("UnitPopulator: unit-count accumulation overflowed",
                  ErrorClass::Internal);
    }
    counts_[i] += base[i];
  }
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
    const Count w = weights[r];
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
    const Count w = weights[r];
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
    const Count w = weights[r];

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
