#include "io/staging.hpp"

#include <cstdio>

#include "common/timer.hpp"
#include "io/record_file.hpp"

namespace mafia {

StagedPartitions stage_partitions(const std::string& shared_path,
                                  const std::string& local_prefix, int ranks,
                                  std::size_t chunk_records) {
  require(ranks >= 1, "stage_partitions: need at least one rank");
  Timer timer;

  const FileSource shared(shared_path);
  const RecordIndex n = shared.num_records();
  const std::size_t d = shared.num_dims();

  StagedPartitions staged;
  staged.num_records = n;
  staged.num_dims = d;
  staged.paths.reserve(static_cast<std::size_t>(ranks));

  for (int r = 0; r < ranks; ++r) {
    const BlockRange range =
        block_partition(static_cast<std::size_t>(n),
                        static_cast<std::size_t>(ranks),
                        static_cast<std::size_t>(r));
    Dataset part(d);
    part.reserve(range.size());
    std::vector<Value> row(d);
    shared.scan(range.begin, range.end, chunk_records,
                [&](const Value* rows, std::size_t nrows) {
                  for (std::size_t i = 0; i < nrows; ++i) {
                    std::copy(rows + i * d, rows + (i + 1) * d, row.begin());
                    part.append(row);
                  }
                });
    const std::string path = local_prefix + ".rank" + std::to_string(r);
    write_record_file(path, part, /*with_labels=*/false);
    staged.paths.push_back(path);
  }
  staged.staging_seconds = timer.seconds();
  return staged;
}

void remove_staged(const StagedPartitions& staged) {
  for (const std::string& path : staged.paths) std::remove(path.c_str());
}

namespace {

std::vector<std::unique_ptr<const DataSource>> open_files(
    const std::vector<std::string>& paths) {
  std::vector<std::unique_ptr<const DataSource>> parts;
  parts.reserve(paths.size());
  for (const std::string& path : paths) {
    parts.push_back(std::make_unique<FileSource>(path));
  }
  return parts;
}

}  // namespace

StagedSource::StagedSource(std::vector<std::unique_ptr<const DataSource>> parts)
    : parts_(std::move(parts)) {
  require(!parts_.empty(), "StagedSource: no partitions");
  dims_ = parts_.front()->num_dims();
  offsets_.reserve(parts_.size() + 1);
  RecordIndex at = 0;
  for (const auto& part : parts_) {
    require(part->num_dims() == dims_,
            "StagedSource: partition dimensionality mismatch");
    offsets_.push_back(at);
    at += part->num_records();
  }
  offsets_.push_back(at);
}

StagedSource::StagedSource(const StagedPartitions& staged)
    : StagedSource(open_files(staged.paths)) {
  require(dims_ == staged.num_dims && num_records() == staged.num_records,
          "StagedSource: partitions do not match the staged shape");
}

void StagedSource::scan(RecordIndex begin, RecordIndex end,
                        std::size_t chunk_records, const ChunkFn& fn) const {
  require(begin <= end && end <= num_records(), "StagedSource::scan: bad range");
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    const RecordIndex lo = std::max(begin, offsets_[p]);
    const RecordIndex hi = std::min(end, offsets_[p + 1]);
    if (lo < hi) {
      parts_[p]->scan(lo - offsets_[p], hi - offsets_[p], chunk_records, fn);
    }
  }
}

std::size_t StagedSource::partitions_touched(RecordIndex begin,
                                             RecordIndex end) const {
  std::size_t touched = 0;
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    const bool overlaps = end > offsets_[p] && begin < offsets_[p + 1];
    touched += overlaps ? 1 : 0;
  }
  return touched;
}

}  // namespace mafia
