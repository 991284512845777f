// Small math helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace mafia {

/// Integer ceiling division for non-negative integers.
template <typename T>
[[nodiscard]] constexpr T ceil_div(T numerator, T denominator) {
  return (numerator + denominator - 1) / denominator;
}

/// Clamps `v` into [lo, hi].
template <typename T>
[[nodiscard]] constexpr T clamp(T v, T lo, T hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// splitmix64 finalizer: spreads keys that concentrate their entropy in a
/// few low bytes (packed bin tuples) over all 64 bits, for the
/// open-addressing tables of the populate kernels.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// The contiguous [begin, end) range of items owned by `rank` when `total`
/// items are block-partitioned across `p` ranks as evenly as possible
/// (first `total % p` ranks get one extra item).
struct BlockRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

[[nodiscard]] inline BlockRange block_partition(std::size_t total, std::size_t p,
                                                std::size_t rank) {
  const std::size_t base = total / p;
  const std::size_t extra = total % p;
  const std::size_t begin = rank * base + std::min<std::size_t>(rank, extra);
  const std::size_t len = base + (rank < extra ? 1 : 0);
  return BlockRange{begin, begin + len};
}

/// True when two floating point values are within `tol` relative tolerance
/// (absolute tolerance near zero).
[[nodiscard]] inline bool approx_equal(double a, double b, double tol = 1e-9) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace mafia
