// Level-granularity checkpoint/restart for the bottom-up loop.
//
// Each level of Algorithm 2 ends with a small, complete summary of every
// data pass so far: the adaptive grids, the next level's candidate units,
// the previous level's dense units (with parent links for maximality
// marking), everything registered as maximal, and the per-level trace.
// Serializing exactly that after each level means a multi-hour run killed
// at level k restarts at level k instead of level 1 — the cheapest
// possible recovery point for a grid/density algorithm, since the state is
// dense-unit summaries (kilobytes), not data (gigabytes).
//
// File format (version 5, little-endian PODs):
//   [0..7]   magic "MAFIACKP"
//   [8..11]  uint32 format version
//   [12..15] uint32 CRC-32 of the payload
//   [16.. ]  payload: fingerprint, data shape, loop state (including the
//            pending join-stats carried into the next level trace), grids,
//            unit stores, level traces, registered maximal units,
//            populate kernel counters, join-kernel counters, and — when the
//            `complete` flag is set — the append-base sections: attribute
//            domains, the global fine histogram, one AppendLevelMemo per
//            executed level (candidate units, counts, dense flags), and
//            the data-segment provenance
// (Version 2 added the join-kernel work counters; version 3 added the
// per-level populate kernel id, bitmap-index footprint/AND-work counters,
// and the unjoined-dense-unit count + capped printable list; version 4
// added the `complete` flag and the append-base sections behind it;
// version 5 dropped the join artifacts — parent links, dedup map, pending
// join counters — from each AppendLevelMemo, since an append run always
// re-runs the join.  Older files are discarded by the version check: a
// resume restarts from level 1, and an append refuses a base it cannot
// read.)
//
// Two kinds of checkpoint file share the format:
//   * per-level files "ckpt-level-NNNN.bin" (complete = 0): the recovery
//     points written at each level boundary, scanned by
//     load_latest_checkpoint for --resume;
//   * the final file "ckpt-final.bin" (complete = 1): written once after
//     the level loop finishes, carrying everything `pmafia append` needs
//     to fold a new batch in without rescanning the base data — the
//     domains and fine histogram (histogram reuse), and per-level memo
//     entries with the candidate units, global counts and dense flags
//     (level reuse).
//
// Torn writes cannot produce a "valid" half-checkpoint: files are written
// to a temp name and atomically renamed, and the CRC guards everything
// after the header.  load_latest_checkpoint walks levels highest-first and
// silently falls back past any file that is short, corrupt, from another
// format version, or fingerprinted for different options/data — counting
// the discards so the run report can surface them.
//
// The options fingerprint covers every knob that changes the computed
// state (grid parameters, density policy, join rule, dedup policy, tau,
// partitioning, max_level, domains, MDL pruning) and deliberately excludes
// knobs that provably don't (chunk size B, populate tuning — every sweep
// and block size produces bit-identical counts — join kernel selection —
// bucketed and pairwise joins are bit-identical — and rank count p; the
// determinism suite pins result invariance across all four), so a resume
// may legally change them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/result.hpp"
#include "grid/grid_types.hpp"
#include "units/unit_store.hpp"

namespace mafia {

inline constexpr std::uint32_t kCheckpointVersion = 5;

/// One data file a checkpointed run consumed, in concatenation order —
/// `pmafia append` reloads the segments to reconstruct the base data.
struct DataSegment {
  std::string path;
  std::uint64_t records = 0;
};

/// One executed level's candidate units with their global populate counts
/// and dense flags — the memo an append run seeds from.  Under identical
/// binning the stored counts are valid exactly when the append run's
/// candidate set for the level is byte-equal to `cdus`; the level then
/// scans only the batch and adds these counts on top.
struct AppendLevelMemo {
  std::uint64_t level = 1;
  UnitStore cdus{1};
  /// Global populate counts (post-allreduce, CDU order) and the dense
  /// flags identify produced from them (post-MDL when pruning is on).
  std::vector<Count> counts;
  std::vector<std::uint8_t> flags;
};

/// Everything the bottom-up loop needs to continue from a level boundary,
/// plus the cumulative outputs accumulated so far.  `level` is the next
/// level to populate; `cdus` its candidate units.
struct CheckpointState {
  std::uint64_t fingerprint = 0;   ///< checkpoint_fingerprint() of the run
  std::uint64_t num_records = 0;
  std::uint32_t num_dims = 0;

  // Loop-carried state (see MafiaWorker::level_loop).
  std::uint64_t level = 1;
  std::uint64_t pending_raw_count = 0;
  /// Join counters of the join that produced `cdus`, awaiting their level
  /// trace; kernel: 0 = none yet, 1 = pairwise, 2 = bucketed.
  JoinStats pending_join;
  std::uint8_t pending_join_kernel = 0;
  UnitStore cdus{1};
  UnitStore prev_dense{1};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parents;
  std::vector<std::uint32_t> raw_to_unique;

  // Cumulative outputs.
  GridSet grids;
  std::vector<LevelTrace> levels;
  std::vector<UnitStore> registered;
  PopulateKernelStats populate;
  JoinKernelStats join_kernel;

  // ---- Append-base sections (serialized only when `complete` is set).
  /// 1 for the final post-run checkpoint ("ckpt-final.bin"), 0 for the
  /// per-level recovery files.
  std::uint8_t complete = 0;
  /// Attribute domains the grids were built on.  Empty when the run could
  /// not record them (resumed runs restore grids, not the domain pass);
  /// append then falls back to full scans.
  std::vector<Value> domain_lo;
  std::vector<Value> domain_hi;
  /// Global fine histogram (dim-major, fine_bins cells per dim; see
  /// HistogramBuilder).  Empty when unavailable (resumed or uniform-grid
  /// runs); append then rebuilds the histogram from all records.
  std::vector<Count> hist_counts;
  /// One memo per executed level, contiguous from level 1.  Empty when the
  /// run resumed mid-way (earlier levels were never executed here).
  std::vector<AppendLevelMemo> memo;
  /// Data files this state was computed from, in concatenation order
  /// (copied from CheckpointConfig::provenance; filled by the CLI).
  std::vector<DataSegment> provenance;
};

/// Hash of the options and data shape a checkpoint is only valid for.
/// Bit-exact field hashing (doubles bit-cast), so any change to a
/// result-affecting knob invalidates old checkpoints.
[[nodiscard]] std::uint64_t checkpoint_fingerprint(const MafiaOptions& options,
                                                   std::uint64_t num_records,
                                                   std::uint32_t num_dims);

/// Serializes `state` to the kCheckpointVersion wire format (CRC filled
/// in).  The append-base sections are written only when `complete` is set.
[[nodiscard]] std::vector<std::uint8_t> serialize_checkpoint(
    const CheckpointState& state);

/// Parses and validates a serialized checkpoint.  Throws mafia::InputError
/// on bad magic, version, CRC, or structural corruption.
[[nodiscard]] CheckpointState deserialize_checkpoint(
    const std::uint8_t* data, std::size_t size);

/// Path of the checkpoint file for `level` under `directory`.
[[nodiscard]] std::string checkpoint_file_path(const std::string& directory,
                                               std::uint64_t level);

/// Atomically writes `state` as the checkpoint for its level under
/// `directory` (created if missing): temp file + rename, so a crash
/// mid-write leaves the previous level's file as the latest valid one.
void write_checkpoint_file(const std::string& directory,
                           const CheckpointState& state);

/// Result of scanning a checkpoint directory for a resume point.
struct CheckpointScan {
  std::optional<CheckpointState> state;  ///< latest valid checkpoint, if any
  std::uint64_t discarded = 0;  ///< corrupt/short/mismatched files skipped
};

/// Finds the highest-level checkpoint under `directory` that deserializes
/// cleanly and matches `fingerprint`, falling back level-by-level past
/// invalid files.  A missing directory is simply "no checkpoint".  Only
/// per-level files are scanned; the final file is load_final_checkpoint's.
[[nodiscard]] CheckpointScan load_latest_checkpoint(
    const std::string& directory, std::uint64_t fingerprint);

/// Path of the final (complete) checkpoint under `directory`.
[[nodiscard]] std::string final_checkpoint_path(const std::string& directory);

/// Atomically writes `state` (which must have `complete` set) as the final
/// checkpoint under `directory`: temp file + rename, so a crash mid-write
/// — including a SIGKILL mid-append — leaves the previous final state as
/// the valid one and the append simply reruns.
void write_final_checkpoint(const std::string& directory,
                            const CheckpointState& state);

/// Loads the final checkpoint under `directory` if present, valid,
/// complete, and fingerprinted `fingerprint` (0 = accept any fingerprint).
/// Invalid or mismatched files count as discarded, exactly like
/// load_latest_checkpoint.
[[nodiscard]] CheckpointScan load_final_checkpoint(
    const std::string& directory, std::uint64_t fingerprint);

}  // namespace mafia
