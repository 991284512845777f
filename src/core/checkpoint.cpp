#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "core/result_codec.hpp"

namespace mafia {

namespace {

constexpr char kCheckpointMagic[8] = {'M', 'A', 'F', 'I', 'A', 'C', 'K', 'P'};
constexpr std::size_t kCheckpointHeaderBytes = 16;  // magic + version + crc

// The byte stream (common/bytes.hpp) and the store/grid/level-trace codecs
// (core/result_codec.hpp) are shared with the process backend's worker
// result blob; this file owns only the checkpoint framing and the
// loop-state fields around them.

}  // namespace

std::uint64_t checkpoint_fingerprint(const MafiaOptions& options,
                                     std::uint64_t num_records,
                                     std::uint32_t num_dims) {
  ByteWriter w;
  w.pod(kCheckpointVersion);
  w.pod(num_records);
  w.pod(num_dims);
  w.pod(options.grid.fine_bins);
  w.pod(options.grid.window_cells);
  w.pod(options.grid.beta);
  w.pod(options.grid.merge_noise_sigmas);
  w.pod(options.grid.uniform_dim_partitions);
  w.pod(options.grid.alpha);
  w.pod(options.grid.uniform_dim_alpha_boost);
  w.pod(options.grid.max_bins);
  w.pod(static_cast<std::uint32_t>(options.density));
  w.pod(static_cast<std::uint32_t>(options.join_rule));
  w.pod(static_cast<std::uint32_t>(options.dedup));
  w.pod(options.tau);
  w.pod(static_cast<std::uint8_t>(options.optimal_task_partition));
  w.pod(options.max_level);
  w.pod(options.min_cluster_dims);
  w.pod(static_cast<std::uint8_t>(options.mdl_pruning));
  w.pod(static_cast<std::uint8_t>(options.fixed_domain.has_value()));
  if (options.fixed_domain) {
    w.pod(options.fixed_domain->first);
    w.pod(options.fixed_domain->second);
  }
  w.pod(static_cast<std::uint8_t>(options.uniform_grid.has_value()));
  if (options.uniform_grid) {
    w.pod(options.uniform_grid->xi);
    w.pod(options.uniform_grid->tau_fraction);
    w.vec(options.uniform_grid->bins_per_dim);
  }

  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : w.out) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::uint8_t> serialize_checkpoint(const CheckpointState& state) {
  ByteWriter w;
  w.pod(state.fingerprint);
  w.pod(state.num_records);
  w.pod(state.num_dims);
  w.pod(state.level);
  w.pod(state.pending_raw_count);
  w.pod(state.pending_join.buckets);
  w.pod(state.pending_join.probes);
  w.pod(state.pending_join.emitted);
  w.pod(state.pending_join.repeats_fused);
  w.pod(state.pending_join_kernel);
  write_store(w, state.cdus);
  write_store(w, state.prev_dense);
  {
    // Parent index pairs pack into one u64 each (same wire trick as the
    // driver's gather of join parents).
    std::vector<std::uint64_t> packed(state.parents.size());
    for (std::size_t i = 0; i < state.parents.size(); ++i) {
      packed[i] =
          (static_cast<std::uint64_t>(state.parents[i].first) << 32) |
          state.parents[i].second;
    }
    w.vec(packed);
  }
  w.vec(state.raw_to_unique);
  write_grids(w, state.grids);
  w.pod(static_cast<std::uint64_t>(state.levels.size()));
  // Version 3 extended the per-level record with the bitmap counters and
  // unjoined units (see write_level_trace).
  for (const LevelTrace& t : state.levels) write_level_trace(w, t);
  w.pod(static_cast<std::uint64_t>(state.registered.size()));
  for (const UnitStore& store : state.registered) write_store(w, store);
  w.pod(static_cast<std::uint64_t>(state.populate.bitmap_subspaces));
  w.pod(static_cast<std::uint64_t>(state.populate.block_records));
  w.pod(static_cast<std::uint64_t>(state.populate.bitmap_bytes));
  w.pod(static_cast<std::uint64_t>(state.populate.bitmap_words_anded));
  w.pod(state.join_kernel.bucketed_levels);
  w.pod(state.join_kernel.pairwise_levels);
  w.pod(state.join_kernel.buckets);
  w.pod(state.join_kernel.probes);
  w.pod(state.join_kernel.emitted);
  w.pod(state.join_kernel.repeats_fused);

  // Version 4: the append-base sections ride only on the final checkpoint;
  // per-level recovery files stay as small as they were under version 3.
  w.pod(state.complete);
  if (state.complete != 0) {
    w.vec(state.domain_lo);
    w.vec(state.domain_hi);
    w.vec(state.hist_counts);
    w.pod(static_cast<std::uint64_t>(state.memo.size()));
    for (const AppendLevelMemo& m : state.memo) {
      w.pod(m.level);
      write_store(w, m.cdus);
      w.vec(m.counts);
      w.vec(m.flags);
    }
    w.pod(static_cast<std::uint64_t>(state.provenance.size()));
    for (const DataSegment& seg : state.provenance) {
      w.str(seg.path);
      w.pod(seg.records);
    }
  }

  std::vector<std::uint8_t> file;
  file.reserve(kCheckpointHeaderBytes + w.out.size());
  file.insert(file.end(), kCheckpointMagic, kCheckpointMagic + 8);
  const std::uint32_t version = kCheckpointVersion;
  const std::uint32_t crc = crc32(w.out.data(), w.out.size());
  const auto* vp = reinterpret_cast<const std::uint8_t*>(&version);
  file.insert(file.end(), vp, vp + sizeof(version));
  const auto* cp = reinterpret_cast<const std::uint8_t*>(&crc);
  file.insert(file.end(), cp, cp + sizeof(crc));
  file.insert(file.end(), w.out.begin(), w.out.end());
  return file;
}

CheckpointState deserialize_checkpoint(const std::uint8_t* data,
                                       std::size_t size) {
  require_input(size >= kCheckpointHeaderBytes &&
                    std::memcmp(data, kCheckpointMagic, 8) == 0,
                "checkpoint: bad magic or short file");
  std::uint32_t version = 0;
  std::uint32_t stored_crc = 0;
  std::memcpy(&version, data + 8, sizeof(version));
  std::memcpy(&stored_crc, data + 12, sizeof(stored_crc));
  require_input(version == kCheckpointVersion,
                "checkpoint: unsupported format version " +
                    std::to_string(version));
  const std::uint8_t* payload = data + kCheckpointHeaderBytes;
  const std::size_t payload_size = size - kCheckpointHeaderBytes;
  require_input(crc32(payload, payload_size) == stored_crc,
                "checkpoint: CRC mismatch (corrupt payload)");

  ByteReader r{payload, payload_size};
  CheckpointState state;
  try {
    state.fingerprint = r.pod<std::uint64_t>();
    state.num_records = r.pod<std::uint64_t>();
    state.num_dims = r.pod<std::uint32_t>();
    state.level = r.pod<std::uint64_t>();
    state.pending_raw_count = r.pod<std::uint64_t>();
    state.pending_join.buckets = r.pod<std::uint64_t>();
    state.pending_join.probes = r.pod<std::uint64_t>();
    state.pending_join.emitted = r.pod<std::uint64_t>();
    state.pending_join.repeats_fused = r.pod<std::uint64_t>();
    state.pending_join_kernel = r.pod<std::uint8_t>();
    state.cdus = read_store(r);
    state.prev_dense = read_store(r);
    const auto packed = r.vec<std::uint64_t>();
    state.parents.resize(packed.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
      state.parents[i] = {static_cast<std::uint32_t>(packed[i] >> 32),
                          static_cast<std::uint32_t>(packed[i])};
    }
    state.raw_to_unique = r.vec<std::uint32_t>();
    state.grids = read_grids(r);
    const auto nlevels = r.pod<std::uint64_t>();
    require_input(nlevels <= 1u << 16, "checkpoint: implausible level count");
    state.levels.reserve(static_cast<std::size_t>(nlevels));
    for (std::uint64_t i = 0; i < nlevels; ++i) {
      state.levels.push_back(read_level_trace(r));
    }
    const auto nregistered = r.pod<std::uint64_t>();
    require_input(nregistered <= 1u << 16,
                  "checkpoint: implausible registered-store count");
    state.registered.reserve(static_cast<std::size_t>(nregistered));
    for (std::uint64_t i = 0; i < nregistered; ++i) {
      state.registered.push_back(read_store(r));
    }
    state.populate.bitmap_subspaces =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    state.populate.block_records =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    state.populate.bitmap_bytes =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    state.populate.bitmap_words_anded =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    state.join_kernel.bucketed_levels = r.pod<std::uint64_t>();
    state.join_kernel.pairwise_levels = r.pod<std::uint64_t>();
    state.join_kernel.buckets = r.pod<std::uint64_t>();
    state.join_kernel.probes = r.pod<std::uint64_t>();
    state.join_kernel.emitted = r.pod<std::uint64_t>();
    state.join_kernel.repeats_fused = r.pod<std::uint64_t>();
    state.complete = r.pod<std::uint8_t>();
    require_input(state.complete <= 1, "checkpoint: bad complete flag");
    if (state.complete != 0) {
      state.domain_lo = r.vec<Value>();
      state.domain_hi = r.vec<Value>();
      require_input(state.domain_lo.size() == state.domain_hi.size(),
                    "checkpoint: domain lo/hi size mismatch");
      state.hist_counts = r.vec<Count>();
      const auto nmemo = r.pod<std::uint64_t>();
      require_input(nmemo <= 1u << 16, "checkpoint: implausible memo count");
      state.memo.reserve(static_cast<std::size_t>(nmemo));
      for (std::uint64_t i = 0; i < nmemo; ++i) {
        AppendLevelMemo m;
        m.level = r.pod<std::uint64_t>();
        m.cdus = read_store(r);
        m.counts = r.vec<Count>();
        m.flags = r.vec<std::uint8_t>();
        require_input(m.counts.size() == m.cdus.size() &&
                          m.flags.size() == m.cdus.size(),
                      "checkpoint: memo counts/flags size mismatch");
        state.memo.push_back(std::move(m));
      }
      const auto nseg = r.pod<std::uint64_t>();
      require_input(nseg <= 1u << 16,
                    "checkpoint: implausible provenance count");
      state.provenance.reserve(static_cast<std::size_t>(nseg));
      for (std::uint64_t i = 0; i < nseg; ++i) {
        DataSegment seg;
        seg.path = r.str();
        seg.records = r.pod<std::uint64_t>();
        state.provenance.push_back(std::move(seg));
      }
    }
  } catch (const InputError&) {
    throw;
  } catch (const Error& e) {
    // Structural validation inside UnitStore/DimensionGrid throws plain
    // Error; in this context the cause is a corrupt file, so reclassify.
    throw InputError(std::string("checkpoint: invalid structure: ") +
                     e.what());
  }
  require_input(r.at == r.size,
                "checkpoint: trailing garbage after payload");
  return state;
}

std::string checkpoint_file_path(const std::string& directory,
                                 std::uint64_t level) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-level-%04llu.bin",
                static_cast<unsigned long long>(level));
  return (std::filesystem::path(directory) / name).string();
}

namespace {

/// Shared atomic write: serialize, write to `path` + ".tmp", rename.
void write_checkpoint_bytes(const std::string& directory,
                            const CheckpointState& state,
                            const std::string& final_path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(directory, ec);
  require(!ec, "checkpoint: cannot create directory " + directory);

  const std::vector<std::uint8_t> bytes = serialize_checkpoint(state);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    require(out.good(), "checkpoint: cannot open " + tmp_path);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    require(out.good(), "checkpoint: write failed for " + tmp_path);
  }
  // Atomic publish: a crash before this rename leaves only the .tmp file,
  // which the resume scan ignores; a crash after it leaves a complete,
  // CRC-valid checkpoint.
  fs::rename(tmp_path, final_path, ec);
  require(!ec, "checkpoint: cannot rename " + tmp_path + " to " + final_path);
}

}  // namespace

void write_checkpoint_file(const std::string& directory,
                           const CheckpointState& state) {
  write_checkpoint_bytes(directory, state,
                         checkpoint_file_path(directory, state.level));
}

std::string final_checkpoint_path(const std::string& directory) {
  return (std::filesystem::path(directory) / "ckpt-final.bin").string();
}

void write_final_checkpoint(const std::string& directory,
                            const CheckpointState& state) {
  require(state.complete != 0,
          "checkpoint: final checkpoint must have complete set");
  write_checkpoint_bytes(directory, state, final_checkpoint_path(directory));
}

CheckpointScan load_final_checkpoint(const std::string& directory,
                                     std::uint64_t fingerprint) {
  CheckpointScan scan;
  const std::string path = final_checkpoint_path(directory);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return scan;  // no final checkpoint: not an error
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  try {
    CheckpointState state = deserialize_checkpoint(bytes.data(), bytes.size());
    require_input(state.complete != 0,
                  "checkpoint: final file is not marked complete");
    require_input(fingerprint == 0 || state.fingerprint == fingerprint,
                  "checkpoint: options/data fingerprint mismatch");
    scan.state = std::move(state);
  } catch (const InputError&) {
    ++scan.discarded;
  }
  return scan;
}

CheckpointScan load_latest_checkpoint(const std::string& directory,
                                      std::uint64_t fingerprint) {
  namespace fs = std::filesystem;
  CheckpointScan scan;
  std::error_code ec;
  if (!fs::is_directory(directory, ec) || ec) return scan;

  // Collect levels with a checkpoint file present, highest first.
  std::vector<std::uint64_t> levels;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long level = 0;
    if (std::sscanf(name.c_str(), "ckpt-level-%4llu.bin", &level) == 1 &&
        name == fs::path(checkpoint_file_path(directory, level))
                    .filename()
                    .string()) {
      levels.push_back(level);
    }
  }
  std::sort(levels.rbegin(), levels.rend());

  for (const std::uint64_t level : levels) {
    const std::string path = checkpoint_file_path(directory, level);
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
      ++scan.discarded;
      continue;
    }
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    try {
      CheckpointState state = deserialize_checkpoint(bytes.data(), bytes.size());
      require_input(state.fingerprint == fingerprint,
                    "checkpoint: options/data fingerprint mismatch");
      scan.state = std::move(state);
      return scan;
    } catch (const InputError&) {
      // Corrupt, short, or mismatched: fall back to the previous level.
      ++scan.discarded;
    }
  }
  return scan;
}

}  // namespace mafia
