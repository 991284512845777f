// Tests for the I/O extensions: CSV import/export, shared->local staging,
// the StagedSource access-pattern contract, and cross-source equivalence:
//   * chunk-sequence equivalence — randomized (begin, end, chunk_records)
//     sweeps proving InMemorySource, FileSource and StagedSource deliver
//     bit-identical chunk sequences (same boundaries, same bytes, same
//     order) wherever no part boundary splits a chunk;
//   * concatenation — an append's base segments plus its batch, scanned
//     through one StagedSource, deliver the concatenated record stream at
//     every rank count, including rank ranges that straddle the boundary;
//   * driver bit-identity — run_pmafia yields identical clusters and
//     per-level populate checksums over every source at every rank count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/math_util.hpp"
#include "core/mafia.hpp"
#include "core/trace.hpp"
#include "datagen/generator.hpp"
#include "io/csv.hpp"
#include "io/data_source.hpp"
#include "io/record_file.hpp"
#include "io/staging.hpp"

namespace mafia {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --------------------------------------------------------------------- CSV

TEST(Csv, RoundTripWithHeaderAndLabels) {
  TempFile tmp("mafia_csv_roundtrip.csv");
  Dataset data(3);
  data.append(std::vector<Value>{1.5f, -2.25f, 100.0f}, 0);
  data.append(std::vector<Value>{0.0f, 3.5f, -0.125f}, -1);

  CsvOptions o;
  o.last_column_is_label = true;
  write_csv(tmp.path(), data, o, {"alpha", "beta", "gamma"});
  const Dataset loaded = read_csv(tmp.path(), o);
  ASSERT_EQ(loaded.num_records(), 2u);
  ASSERT_EQ(loaded.num_dims(), 3u);
  EXPECT_EQ(loaded.values(), data.values());
  EXPECT_EQ(loaded.labels(), data.labels());
}

TEST(Csv, ReadsHeaderlessFiles) {
  TempFile tmp("mafia_csv_noheader.csv");
  {
    std::ofstream out(tmp.path());
    out << "1,2,3\n4,5,6\n";
  }
  CsvOptions o;
  o.header = false;
  const Dataset data = read_csv(tmp.path(), o);
  EXPECT_EQ(data.num_records(), 2u);
  EXPECT_EQ(data.at(1, 2), 6.0f);
}

TEST(Csv, CustomDelimiter) {
  TempFile tmp("mafia_csv_semicolon.csv");
  {
    std::ofstream out(tmp.path());
    out << "a;b\n1.5;2.5\n";
  }
  CsvOptions o;
  o.delimiter = ';';
  const Dataset data = read_csv(tmp.path(), o);
  EXPECT_EQ(data.num_records(), 1u);
  EXPECT_EQ(data.at(0, 1), 2.5f);
}

TEST(Csv, SkipsBlankLines) {
  TempFile tmp("mafia_csv_blank.csv");
  {
    std::ofstream out(tmp.path());
    out << "a,b\n1,2\n\n3,4\n";
  }
  const Dataset data = read_csv(tmp.path());
  EXPECT_EQ(data.num_records(), 2u);
}

TEST(Csv, RejectsRaggedRows) {
  TempFile tmp("mafia_csv_ragged.csv");
  {
    std::ofstream out(tmp.path());
    out << "a,b\n1,2\n1,2,3\n";
  }
  EXPECT_THROW((void)read_csv(tmp.path()), Error);
}

TEST(Csv, RejectsNonNumericField) {
  TempFile tmp("mafia_csv_text.csv");
  {
    std::ofstream out(tmp.path());
    out << "a,b\n1,hello\n";
  }
  EXPECT_THROW((void)read_csv(tmp.path()), Error);
}

TEST(Csv, RejectsMissingFile) {
  EXPECT_THROW((void)read_csv("/nonexistent/never.csv"), Error);
}

// ----------------------------------------------------------------- staging

TEST(Staging, PartitionsHoldBlockSplitOfSharedFile) {
  GeneratorConfig cfg;
  cfg.num_dims = 4;
  cfg.num_records = 1000;
  cfg.seed = 9;
  const Dataset data = generate(cfg);

  TempFile shared("mafia_stage_shared.bin");
  write_record_file(shared.path(), data, false);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "mafia_stage_local").string();

  const StagedPartitions staged = stage_partitions(shared.path(), prefix, 3);
  ASSERT_EQ(staged.paths.size(), 3u);
  EXPECT_EQ(staged.num_records, data.num_records());
  EXPECT_GT(staged.staging_seconds, 0.0);

  RecordIndex total = 0;
  for (int r = 0; r < 3; ++r) {
    const Dataset part = read_record_file(staged.paths[static_cast<std::size_t>(r)]);
    const BlockRange range = block_partition(
        static_cast<std::size_t>(data.num_records()), 3, static_cast<std::size_t>(r));
    ASSERT_EQ(part.num_records(), range.size());
    // Spot-check the first row of each partition.
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(part.at(0, j), data.at(range.begin, j));
    }
    total += part.num_records();
  }
  EXPECT_EQ(total, data.num_records());
  remove_staged(staged);
}

TEST(Staging, StagedSourceMatchesOriginalScan) {
  GeneratorConfig cfg;
  cfg.num_dims = 3;
  cfg.num_records = 500;
  cfg.seed = 13;
  const Dataset data = generate(cfg);
  TempFile shared("mafia_stage_match.bin");
  write_record_file(shared.path(), data, false);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "mafia_stage_match_local").string();
  const StagedPartitions staged = stage_partitions(shared.path(), prefix, 4);
  StagedSource source(staged);

  EXPECT_EQ(source.num_records(), data.num_records());
  std::vector<Value> scanned;
  source.scan(100, 400, 64, [&](const Value* rows, std::size_t n) {
    scanned.insert(scanned.end(), rows, rows + n * 3);
  });
  ASSERT_EQ(scanned.size(), 300u * 3u);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(scanned[i * 3 + j], data.at(100 + i, j)) << "record " << i;
    }
  }
  remove_staged(staged);
}

TEST(Staging, RankAlignedScansTouchExactlyOnePartition) {
  // The paper's whole point: after staging, a rank's passes hit only its
  // local disk.
  GeneratorConfig cfg;
  cfg.num_dims = 3;
  cfg.num_records = 997;  // deliberately not divisible by p
  cfg.seed = 17;
  const Dataset data = generate(cfg);
  TempFile shared("mafia_stage_aligned.bin");
  write_record_file(shared.path(), data, false);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "mafia_stage_aligned_local").string();
  constexpr int kRanks = 5;
  const StagedPartitions staged = stage_partitions(shared.path(), prefix, kRanks);
  StagedSource source(staged);

  for (int r = 0; r < kRanks; ++r) {
    const BlockRange range =
        block_partition(static_cast<std::size_t>(source.num_records()), kRanks,
                        static_cast<std::size_t>(r));
    EXPECT_EQ(source.partitions_touched(range.begin, range.end), 1u)
        << "rank " << r << " would read a remote disk";
  }
  remove_staged(staged);
}

TEST(Staging, EndToEndClusteringOverStagedSourceMatchesInMemory) {
  GeneratorConfig cfg;
  cfg.num_dims = 8;
  cfg.num_records = 15000;
  cfg.seed = 19;
  cfg.clusters.push_back(ClusterSpec::box({1, 3, 6}, {20, 20, 20}, {35, 35, 35}));
  const Dataset data = generate(cfg);
  TempFile shared("mafia_stage_e2e.bin");
  write_record_file(shared.path(), data, false);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "mafia_stage_e2e_local").string();
  constexpr int kRanks = 4;
  const StagedPartitions staged = stage_partitions(shared.path(), prefix, kRanks);
  StagedSource staged_source(staged);

  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};
  InMemorySource mem(data);
  const MafiaResult a = run_pmafia(mem, options, kRanks);
  const MafiaResult b = run_pmafia(staged_source, options, kRanks);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].dims, b.clusters[i].dims);
    EXPECT_EQ(a.clusters[i].units.size(), b.clusters[i].units.size());
  }
  remove_staged(staged);
}

// ------------------------------------------------------ source equivalence

Dataset make_dataset(std::size_t n, std::size_t d) {
  Dataset data(d);
  std::vector<Value> row(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      row[j] = static_cast<Value>((i * 131 + j * 17) % 997) * 0.25f;
    }
    data.append(row);
  }
  return data;
}

/// One chunk as the consumer saw it: row count + FNV-1a over its bytes.
struct ChunkSig {
  std::size_t nrows = 0;
  std::uint64_t hash = 0;
  bool operator==(const ChunkSig&) const = default;
};

std::uint64_t fnv_bytes(const void* data, std::size_t nbytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// The full chunk sequence a scan delivers.
std::vector<ChunkSig> chunk_sigs(const DataSource& source, RecordIndex begin,
                                 RecordIndex end, std::size_t chunk_records) {
  std::vector<ChunkSig> sigs;
  const std::size_t d = source.num_dims();
  source.scan(begin, end, chunk_records,
              [&](const Value* rows, std::size_t nrows) {
                sigs.push_back({nrows, fnv_bytes(rows, nrows * d * sizeof(Value))});
              });
  return sigs;
}

/// The record stream a scan delivers (bytes in order, chunking erased):
/// what a scan across a part boundary must preserve.
std::vector<Value> row_stream(const DataSource& source, RecordIndex begin,
                              RecordIndex end, std::size_t chunk_records) {
  std::vector<Value> rows;
  const std::size_t d = source.num_dims();
  source.scan(begin, end, chunk_records,
              [&](const Value* r0, std::size_t nrows) {
                rows.insert(rows.end(), r0, r0 + nrows * d);
              });
  return rows;
}

/// Deterministic splitmix64 for the randomized sweep.
std::uint64_t next_rand(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Clusters + per-level trace as a comparable value.
std::string result_fingerprint(const MafiaResult& r) {
  std::string s;
  for (const LevelTrace& t : r.levels) {
    s += "L" + std::to_string(t.level) + ":" + std::to_string(t.ncdu) + ":" +
         std::to_string(t.ndu) + ":" + std::to_string(t.count_checksum) + ";";
  }
  std::vector<std::string> clusters;
  for (const Cluster& c : r.clusters) {
    std::string cs;
    for (const DimId dim : c.dims) cs += "d" + std::to_string(dim);
    for (std::size_t u = 0; u < c.units.size(); ++u) {
      cs += c.units.to_string(u);
    }
    clusters.push_back(std::move(cs));
  }
  std::sort(clusters.begin(), clusters.end());
  for (const std::string& c : clusters) s += c + "|";
  return s;
}

TEST(SourceEquivalence, CrossSourceChunkSequences) {
  const std::size_t d = 5;
  const RecordIndex n = 1237;
  const Dataset data = make_dataset(static_cast<std::size_t>(n), d);
  TempFile rec("mafia_source_xsource.rec");
  write_record_file(rec.path(), data, /*with_labels=*/true);

  const InMemorySource mem(data);
  const FileSource file(rec.path());

  // Edge triples first, then a randomized sweep.
  std::vector<std::tuple<RecordIndex, RecordIndex, std::size_t>> cases = {
      {0, n, 64},
      {0, n, static_cast<std::size_t>(n) + 999},  // chunk_records > n
      {0, n, static_cast<std::size_t>(n)},        // exactly one chunk
      {0, 0, 16},                                  // empty at the front
      {n, n, 16},                                  // empty at the back
      {0, n, 1},                                   // one record per chunk
      {17, 18, 4},                                 // single record
  };
  std::uint64_t state = 42;
  for (int i = 0; i < 32; ++i) {
    const RecordIndex a = static_cast<RecordIndex>(next_rand(state) % (n + 1));
    const RecordIndex b = static_cast<RecordIndex>(next_rand(state) % (n + 1));
    const std::size_t chunk =
        1 + static_cast<std::size_t>(next_rand(state) % (2 * n));
    cases.emplace_back(std::min(a, b), std::max(a, b), chunk);
  }

  for (const auto& [begin, end, chunk] : cases) {
    EXPECT_EQ(chunk_sigs(file, begin, end, chunk),
              chunk_sigs(mem, begin, end, chunk))
        << "range [" << begin << ", " << end << ") chunk " << chunk;
  }
}

TEST(SourceEquivalence, StagedSourceAcrossRankCounts) {
  const std::size_t d = 4;
  const RecordIndex n = 1000;
  const Dataset data = make_dataset(static_cast<std::size_t>(n), d);
  TempFile rec("mafia_source_staged.rec");
  write_record_file(rec.path(), data, /*with_labels=*/false);
  const InMemorySource mem(data);

  for (const int p : {1, 2, 3, 5, 8}) {
    const std::string prefix =
        (std::filesystem::temp_directory_path() /
         ("mafia_source_staged_p" + std::to_string(p)))
            .string();
    const StagedPartitions parts = stage_partitions(rec.path(), prefix, p);
    const StagedSource staged(parts);
    ASSERT_EQ(staged.num_records(), n);

    // Partition-aligned scans — the driver's access pattern (rank r scans
    // its own block partition only) — must reproduce the in-memory chunk
    // sequence exactly, including chunk_records larger than the partition
    // and the empty range.
    for (int r = 0; r < p; ++r) {
      const BlockRange part =
          block_partition(static_cast<std::size_t>(n), static_cast<std::size_t>(p),
                          static_cast<std::size_t>(r));
      const auto begin = static_cast<RecordIndex>(part.begin);
      const auto end = static_cast<RecordIndex>(part.end);
      EXPECT_EQ(staged.partitions_touched(begin, end), 1u) << "p=" << p;
      for (const std::size_t chunk :
           {std::size_t{31}, static_cast<std::size_t>(n) + 1}) {
        EXPECT_EQ(chunk_sigs(staged, begin, end, chunk),
                  chunk_sigs(mem, begin, end, chunk))
            << "staged p=" << p << " rank " << r;
      }
      EXPECT_TRUE(chunk_sigs(staged, begin, begin, 8).empty());
    }

    // A cross-partition scan may split chunks at partition edges, but the
    // record stream itself (bytes in order) must still be identical.
    const RecordIndex lo = n / 3;
    const RecordIndex hi = (2 * n) / 3 + 7;
    EXPECT_EQ(row_stream(staged, lo, hi, 31), row_stream(mem, lo, hi, 31))
        << "p=" << p;
    remove_staged(parts);
  }
}

TEST(SourceEquivalence, ConcatenatedBaseAndBatchMatchInMemory) {
  // `pmafia append` scans the base segments followed by the batch through
  // one StagedSource.  Block partitions of the concatenation put some rank
  // range across the base/batch boundary; every range's record stream and
  // the driver's results must equal InMemorySource over the concatenated
  // Dataset.  The batch part is a record file or an owning in-memory part
  // (a CSV batch), and an empty batch must add nothing.
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = 3000;
  cfg.seed = 29;
  cfg.clusters.push_back(ClusterSpec::box({0, 2, 5}, {30, 30, 30}, {42, 42, 42}));
  const Dataset base = generate(cfg);
  cfg.num_records = 600;
  cfg.seed = 31;
  const Dataset full_batch = generate(cfg);
  TempFile base_rec("mafia_source_concat_base.rec");
  TempFile batch_rec("mafia_source_concat_batch.rec");
  write_record_file(base_rec.path(), base, /*with_labels=*/false);

  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};
  options.chunk_records = 257;  // several chunks per rank range

  for (const bool empty_batch : {false, true}) {
    for (const bool batch_in_memory : {false, true}) {
      const Dataset batch = empty_batch ? Dataset(base.num_dims()) : full_batch;
      write_record_file(batch_rec.path(), batch, /*with_labels=*/false);
      Dataset all = base;
      all.append_rows(batch);
      const InMemorySource mem(all);

      std::vector<std::unique_ptr<const DataSource>> parts;
      parts.push_back(std::make_unique<FileSource>(base_rec.path()));
      if (batch_in_memory) {
        parts.push_back(std::make_unique<InMemorySource>(Dataset(batch)));
      } else {
        parts.push_back(std::make_unique<FileSource>(batch_rec.path()));
      }
      const StagedSource concat(std::move(parts));
      const std::string where = std::string(empty_batch ? "empty" : "full") +
                                (batch_in_memory ? " in-memory" : " file") +
                                " batch";
      ASSERT_EQ(concat.num_records(), all.num_records()) << where;
      ASSERT_EQ(concat.num_dims(), all.num_dims()) << where;

      const auto n = static_cast<std::size_t>(all.num_records());
      const auto base_n = static_cast<RecordIndex>(base.num_records());
      for (const int p : {1, 2, 3, 5, 8}) {
        bool straddled = false;
        for (int r = 0; r < p; ++r) {
          const BlockRange range = block_partition(
              n, static_cast<std::size_t>(p), static_cast<std::size_t>(r));
          const auto begin = static_cast<RecordIndex>(range.begin);
          const auto end = static_cast<RecordIndex>(range.end);
          straddled |= begin < base_n && end > base_n;
          EXPECT_EQ(row_stream(concat, begin, end, 97),
                    row_stream(mem, begin, end, 97))
              << where << " p=" << p << " rank " << r;
        }
        EXPECT_EQ(straddled, !empty_batch) << where << " p=" << p;
        EXPECT_EQ(result_fingerprint(run_pmafia(concat, options, p)),
                  result_fingerprint(run_pmafia(mem, options, p)))
            << where << " p=" << p;
      }
    }
  }
}

TEST(SourceEquivalence, DriverBitIdenticalAcrossSources) {
  GeneratorConfig cfg;
  cfg.num_dims = 8;
  cfg.num_records = 6000;
  cfg.seed = 23;
  cfg.clusters.push_back(ClusterSpec::box({1, 4, 6}, {30, 30, 30}, {42, 42, 42}));
  cfg.clusters.push_back(ClusterSpec::box({0, 3}, {60, 60}, {75, 75}));
  const Dataset data = generate(cfg);
  TempFile rec("mafia_source_driver.rec");
  write_record_file(rec.path(), data, /*with_labels=*/false);
  const InMemorySource mem(data);
  const FileSource file(rec.path());

  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};
  options.chunk_records = 700;  // several chunks per rank partition

  const MafiaResult reference = run_pmafia(mem, options, 1);
  const std::string expect = result_fingerprint(reference);
  ASSERT_FALSE(reference.levels.empty());

  for (const int p : {1, 2, 3, 5, 8}) {
    const std::string prefix =
        (std::filesystem::temp_directory_path() /
         ("mafia_source_driver_p" + std::to_string(p)))
            .string();
    const StagedPartitions parts = stage_partitions(rec.path(), prefix, p);
    const StagedSource staged(parts);

    const MafiaResult r_mem = run_pmafia(mem, options, p);
    EXPECT_EQ(result_fingerprint(r_mem), expect) << "mem p=" << p;
    const MafiaResult r_file = run_pmafia(file, options, p);
    EXPECT_EQ(result_fingerprint(r_file), expect) << "file p=" << p;
    EXPECT_EQ(result_fingerprint(run_pmafia(staged, options, p)), expect)
        << "staged p=" << p;

    // Same scans from every source: the bytes read do not depend on where
    // the records live, and a scan's time splits into read + compute.
    const IoScanStats io = r_mem.trace.io_total();
    EXPECT_GT(io.bytes, 0u);
    EXPECT_EQ(r_file.trace.io_total().bytes, io.bytes) << "p=" << p;
    EXPECT_NEAR(io.read_seconds + io.compute_seconds, io.scan_seconds,
                1e-9 * static_cast<double>(io.chunks + 1) + 1e-6)
        << "p=" << p;
    remove_staged(parts);
  }
}

TEST(ScanStats, SerializationRoundTripAndMerge) {
  IoScanStats a;
  a.chunks = 7;
  a.bytes = 123456;
  a.read_seconds = 0.25;
  a.compute_seconds = 1.5;
  a.scan_seconds = 1.75;
  const auto words = a.serialize();
  const IoScanStats b = IoScanStats::deserialize(words.data());
  EXPECT_EQ(b.chunks, a.chunks);
  EXPECT_EQ(b.bytes, a.bytes);
  EXPECT_DOUBLE_EQ(b.read_seconds, a.read_seconds);
  EXPECT_DOUBLE_EQ(b.compute_seconds, a.compute_seconds);
  EXPECT_DOUBLE_EQ(b.scan_seconds, a.scan_seconds);

  IoScanStats sum = a;
  sum.merge(b);
  EXPECT_EQ(sum.chunks, 14u);
  EXPECT_DOUBLE_EQ(sum.read_seconds, 0.5);
  EXPECT_FALSE(sum.empty());
  EXPECT_TRUE(IoScanStats{}.empty());
}

}  // namespace
}  // namespace mafia
