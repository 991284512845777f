// Shared-disk -> local-disk staging (Algorithm 2's first I/O step).
//
// "In our set up on the IBM SP2, each processor reads a portion of the data
// from a shared disk initially and keeps it on the local disk.  The
// bandwidth seen by a processor of an I/O access from the local disk is
// much higher than an access to a shared disk."  (Section 4)
//
// On a single machine the "local disks" are p separate record files; the
// point of the substrate is the access-pattern contract: after staging,
// rank r's scans touch ONLY its own file.  StagedSource enforces that
// contract (scanning outside the owning partition of any file is
// impossible by construction), so the driver's partitioned scans exercise
// exactly the paper's I/O structure, and the staging time — the cost the
// paper excludes from its measurements ("time taken for data to be read
// from the shared disk onto the local disks ... is not included") — can be
// measured separately.
#pragma once

#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "io/data_source.hpp"

namespace mafia {

/// Result of staging a shared record file across p local files.
struct StagedPartitions {
  std::vector<std::string> paths;  ///< one record file per rank
  RecordIndex num_records = 0;     ///< total records across all partitions
  std::size_t num_dims = 0;
  double staging_seconds = 0.0;    ///< the cost the paper excludes
};

/// Splits `shared_path` into p record files `<local_prefix>.rank<r>`, each
/// holding rank r's block partition (same split as the driver uses).
[[nodiscard]] StagedPartitions stage_partitions(const std::string& shared_path,
                                                const std::string& local_prefix,
                                                int ranks,
                                                std::size_t chunk_records = 1 << 16);

/// Deletes the staged files.
void remove_staged(const StagedPartitions& staged);

/// DataSource concatenating its parts in order under one global record
/// numbering: scanning records [begin, end) reads from the part(s) owning
/// that range, splitting chunks at part boundaries.  The parts are the
/// per-rank staged files — when the driver's rank r scans its block
/// partition, every byte comes from file r, the paper's local-disk access
/// pattern — or an append's provenance segments followed by its batch.
class StagedSource final : public DataSource {
 public:
  explicit StagedSource(std::vector<std::unique_ptr<const DataSource>> parts);
  /// Opens each staged partition file as a FileSource.
  explicit StagedSource(const StagedPartitions& staged);

  [[nodiscard]] RecordIndex num_records() const override { return offsets_.back(); }
  [[nodiscard]] std::size_t num_dims() const override { return dims_; }

  void scan(RecordIndex begin, RecordIndex end, std::size_t chunk_records,
            const ChunkFn& fn) const override;

  /// Number of distinct parts a scan of [begin, end) touches — tests
  /// assert this is 1 for every rank-aligned scan of staged partitions.
  [[nodiscard]] std::size_t partitions_touched(RecordIndex begin,
                                               RecordIndex end) const;

 private:
  std::vector<std::unique_ptr<const DataSource>> parts_;
  std::vector<RecordIndex> offsets_;  ///< global start of each part, then the total
  std::size_t dims_ = 0;
};

}  // namespace mafia
