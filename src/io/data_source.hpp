// DataSource: uniform chunked-scan interface over in-memory and on-disk data.
//
// Algorithm 2 structures every data pass as "Read N/p chunks of B records
// from local disk and ... populate" — i.e. the algorithm only ever touches
// data through sequential B-record chunks of a rank's partition.  DataSource
// captures exactly that contract, so the same driver runs in-core
// (InMemorySource) and out-of-core (FileSource).  scan() is const and
// re-entrant: FileSource opens a fresh stream per call so every SPMD rank
// can scan its own partition concurrently (the paper's "local disk" —
// with one shared OS page cache standing in for p local disks, documented
// as a substitution in DESIGN.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "io/dataset.hpp"
#include "io/record_file.hpp"

namespace mafia {

/// Callback receiving one chunk: pointer to `nrows` row-major records.
using ChunkFn = std::function<void(const Value* rows, std::size_t nrows)>;

class DataSource {
 public:
  virtual ~DataSource() = default;

  [[nodiscard]] virtual RecordIndex num_records() const = 0;
  [[nodiscard]] virtual std::size_t num_dims() const = 0;

  /// Invokes `fn` on consecutive chunks of at most `chunk_records` records
  /// covering records [begin, end).  Must be safe to call concurrently from
  /// multiple threads (each call owns its cursor/stream).
  virtual void scan(RecordIndex begin, RecordIndex end,
                    std::size_t chunk_records, const ChunkFn& fn) const = 0;

  /// Total number of B-record chunk reads a full scan of [begin,end) makes;
  /// the benches feed this into the Section 4.5 I/O term (N/(pB))·k·γ.
  [[nodiscard]] std::size_t chunk_count(RecordIndex begin, RecordIndex end,
                                        std::size_t chunk_records) const {
    const RecordIndex n = end - begin;
    return static_cast<std::size_t>((n + chunk_records - 1) / chunk_records);
  }
};

/// Zero-copy source over an in-memory Dataset.
class InMemorySource final : public DataSource {
 public:
  explicit InMemorySource(const Dataset& data) : data_(data) {}
  /// Owning variant, for rows that nothing else holds (a parsed CSV).
  explicit InMemorySource(Dataset&& data)
      : owned_(std::make_unique<const Dataset>(std::move(data))),
        data_(*owned_) {}

  [[nodiscard]] RecordIndex num_records() const override { return data_.num_records(); }
  [[nodiscard]] std::size_t num_dims() const override { return data_.num_dims(); }

  void scan(RecordIndex begin, RecordIndex end, std::size_t chunk_records,
            const ChunkFn& fn) const override {
    require(chunk_records > 0, "scan: chunk_records must be positive");
    require(begin <= end && end <= data_.num_records(), "scan: bad record range");
    const std::size_t d = data_.num_dims();
    for (RecordIndex at = begin; at < end;) {
      const RecordIndex take =
          std::min<RecordIndex>(chunk_records, end - at);
      fn(data_.values().data() + static_cast<std::size_t>(at) * d,
         static_cast<std::size_t>(take));
      at += take;
    }
  }

 private:
  std::unique_ptr<const Dataset> owned_;
  const Dataset& data_;
};

/// Out-of-core source over a record file; each scan() reads sequentially in
/// B-record chunks through its own stream and buffer.
class FileSource final : public DataSource {
 public:
  explicit FileSource(std::string path)
      : path_(std::move(path)), header_(read_record_file_header(path_)) {}

  [[nodiscard]] RecordIndex num_records() const override { return header_.num_records; }
  [[nodiscard]] std::size_t num_dims() const override { return header_.num_dims; }

  void scan(RecordIndex begin, RecordIndex end, std::size_t chunk_records,
            const ChunkFn& fn) const override {
    require(chunk_records > 0, "scan: chunk_records must be positive");
    require(begin <= end && end <= header_.num_records, "scan: bad record range");
    std::ifstream in(path_, std::ios::binary);
    require_input(in.good(), "FileSource::scan: cannot open " + path_);
    const std::size_t d = header_.num_dims;
    const std::size_t row_bytes = d * sizeof(Value);
    in.seekg(static_cast<std::streamoff>(kRecordFileHeaderBytes +
                                         static_cast<std::size_t>(begin) * row_bytes));
    std::vector<Value> buffer(chunk_records * d);
    for (RecordIndex at = begin; at < end;) {
      const auto take = static_cast<std::size_t>(
          std::min<RecordIndex>(chunk_records, end - at));
      in.read(reinterpret_cast<char*>(buffer.data()),
              static_cast<std::streamsize>(take * row_bytes));
      require_input(in.good(), "FileSource::scan: truncated read in " + path_);
      // Reject NaN/Inf before any kernel sees the chunk: a single bad
      // float would otherwise poison bin lookups silently.  One isfinite
      // pass per chunk is noise next to the disk read it follows.
      validate_finite_values(buffer.data(), take, d, at, path_);
      fn(buffer.data(), take);
      at += take;
    }
  }

 private:
  std::string path_;
  RecordFileHeader header_;
};

}  // namespace mafia
