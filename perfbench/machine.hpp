// Machine context printed with every benchmark result: core count, the
// last-level cache size and the single-thread streaming read bandwidth,
// measured over an array at least four times the last-level cache.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct MachineContext {
  long nproc = 0;
  std::size_t llc_bytes = 0;
  std::size_t array_bytes = 0;
  double stream_gb_per_s = 0.0;
};

[[nodiscard]] inline MachineContext probe_machine() {
  MachineContext m;
  m.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  m.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : std::size_t{32} << 20;
  m.array_bytes = std::max<std::size_t>(4 * m.llc_bytes, std::size_t{256} << 20);

  std::vector<std::uint64_t> a(m.array_bytes / sizeof(std::uint64_t));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i;
  double best = 1e30;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_seconds();
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::size_t i = 0; i + 4 <= a.size(); i += 4) {
      s0 += a[i];
      s1 += a[i + 1];
      s2 += a[i + 2];
      s3 += a[i + 3];
    }
    best = std::min(best, now_seconds() - t0);
    sink += s0 + s1 + s2 + s3;
  }
  // The sums are always non-zero; the test keeps the loop from being elided.
  m.stream_gb_per_s = sink == 0 ? 0.0 : static_cast<double>(m.array_bytes) / best / 1e9;
  return m;
}

}  // namespace perfbench
