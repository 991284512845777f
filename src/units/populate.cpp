#include "units/populate.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>

#include "units/transaction_table.hpp"

#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)
#include <immintrin.h>
#elif defined(__aarch64__) && !defined(PMAFIA_DISABLE_SIMD)
#include <arm_neon.h>
#endif

namespace mafia {

// The sweep indexes its (dim, bin) map as dim * kMaxBinsPerDim + bin and
// compares bin columns a byte at a time, so a BinId is one byte.
static_assert(sizeof(BinId) == 1 && kMaxBinsPerDim == 256,
              "bitmap sweep assumes byte-wide bin ids");

namespace {

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
// popcount(bm[0][w] & ... & bm[k-1][w]) summed over the words [0, words).
// The portable path is the semantic definition; the SIMD paths
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

/// The weighted form of the reduction, for table rows: the sum of
/// weights[64 * w + i] over every bit i set in bm[0][w] & ... & bm[k-1][w].
/// Bits past the block's last row are masked off, so no weight past it is
/// read.
Count and_weighted(BitmapPtrs bm, std::size_t k, std::size_t words,
                   const Count* weights) {
  Count c = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    for (const Count* row = weights + 64 * w; x != 0; x &= x - 1) {
      c += row[std::countr_zero(x)];
    }
  }
  return c;
}

}  // namespace

UnitPopulator::UnitPopulator(const GridSet& grids, const UnitStore& cdus,
                             const PopulateConfig& config)
    : grids_(grids),
      k_(cdus.k()),
      cfg_(config),
      counts_(cdus.size(), 0),
      block_words_((config.block_records + 63) / 64) {
  require(cfg_.block_records >= 1, "UnitPopulator: block_records must be positive");
  stats_.block_records = cfg_.block_records;

  // One bitset id per distinct (dim, bin) pair some CDU uses, numbered
  // dim-major so each used dim's bitsets are formed from its column in one
  // contiguous run; a CDU's block count is then the reduction of the AND of
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

  // Sweep the CDUs in (dims, bins) order: consecutive CDUs then share
  // their leading bitsets, which stay hot in L1, and each subspace is one
  // run of the order.
  order_.resize(cdus.size());
  std::iota(order_.begin(), order_.end(), 0u);
  const auto row_less = [&cdus, this](std::uint32_t a, std::uint32_t b) {
    const int by_dims = std::memcmp(cdus.dims(a).data(), cdus.dims(b).data(), k_);
    return by_dims != 0 ? by_dims < 0
                        : std::memcmp(cdus.bins(a).data(), cdus.bins(b).data(), k_) < 0;
  };
  std::sort(order_.begin(), order_.end(), row_less);
  bitmap_ids_.reserve(cdus.size() * k_);
  for (std::size_t m = 0; m < order_.size(); ++m) {
    const auto d = cdus.dims(order_[m]);
    const auto b = cdus.bins(order_[m]);
    for (std::size_t i = 0; i < k_; ++i) {
      bitmap_ids_.push_back(
          bitmap_id[static_cast<std::size_t>(d[i]) * kMaxBinsPerDim + b[i]]);
    }
    stats_.bitmap_subspaces +=
        m == 0 || std::memcmp(cdus.dims(order_[m - 1]).data(), d.data(), k_) != 0;
  }
  stats_.bitmap_bytes = bitmap_block_bytes();
}

std::size_t UnitPopulator::bitmap_block_bytes() const {
  return bitsets_.size() * sizeof(std::uint64_t) +
         item_bins_.size() * sizeof(BinId) + cols_.size() * sizeof(BinId) +
         locators_.size() * BinLocator::kTableBytes;
}

std::size_t UnitPopulator::auxiliary_bytes() const {
  return bitmap_block_bytes() +
         (order_.size() + bitmap_ids_.size()) * sizeof(std::uint32_t);
}

void UnitPopulator::accumulate(const Value* rows, std::size_t nrows) {
  const std::size_t d = grids_.num_dims();
  const std::size_t nused = used_dims_.size();
  const std::size_t col_stride = block_words_ * 64;
  for (std::size_t base = 0; base < nrows; base += cfg_.block_records) {
    const std::size_t bn = std::min(cfg_.block_records, nrows - base);
    // Bin: each record once, record-major, into the used dims' columns.
    const Value* row = rows + base * d;
    for (std::size_t r = 0; r < bn; ++r, row += d) {
      BinId* col = cols_.data() + r;
      for (std::size_t i = 0; i < nused; ++i, col += col_stride) {
        *col = locators_[i].locate(row[used_dims_[i]]);
      }
    }
    count_block(bn, nullptr);
  }
}

void UnitPopulator::accumulate(const TransactionTable& table) {
  const std::size_t n = table.rows();
  const std::size_t col_stride = block_words_ * 64;
  for (std::size_t base = 0; base < n; base += cfg_.block_records) {
    const std::size_t bn = std::min(cfg_.block_records, n - base);
    // The table is binned already: copy the block's slice of each used
    // dim's column.
    for (std::size_t i = 0; i < used_dims_.size(); ++i) {
      std::memcpy(cols_.data() + i * col_stride,
                  table.columns() + used_dims_[i] * n + base, bn);
    }
    count_block(bn, table.weights() + base);
  }
}

void UnitPopulator::count_block(std::size_t bn, const Count* weights) {
  static const FormBitsetsFn form_bitsets = resolve_form_bitsets();
  static const AndPopcountFn and_popcount = resolve_and_popcount();
  const std::size_t words = (bn + 63) / 64;

  // Form: each used (dim, bin) bitset from its dim's column.  Column bytes
  // past the block's last row are stale, so the partial last word is
  // masked.
  for (std::size_t i = 0; i < used_dims_.size(); ++i) {
    const std::uint32_t first = dim_first_id_[i];
    form_bitsets(cols_.data() + i * block_words_ * 64,
                 item_bins_.data() + first, dim_first_id_[i + 1] - first,
                 bitsets_.data() + first * block_words_, block_words_, words);
  }
  if (bn % 64 != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << (bn % 64)) - 1;
    for (std::size_t t = 0; t < item_bins_.size(); ++t) {
      bitsets_[t * block_words_ + words - 1] &= mask;
    }
  }

  // Count: AND each CDU's k bitsets over the block's words.
  const std::uint64_t* ptrs[kMaxDims];
  for (std::size_t m = 0; m < order_.size(); ++m) {
    const std::uint32_t* ids = bitmap_ids_.data() + m * k_;
    for (std::size_t i = 0; i < k_; ++i) {
      ptrs[i] = bitsets_.data() + ids[i] * block_words_;
    }
    counts_[order_[m]] += weights == nullptr
                              ? and_popcount(ptrs, k_, words)
                              : and_weighted(ptrs, k_, words, weights);
  }
  stats_.bitmap_words_anded += counts_.size() * words * k_;
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

}  // namespace mafia
