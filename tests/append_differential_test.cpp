// Incremental append (MafiaOptions::append): an append run over
// concatenated base + batch data must be bit-identical to a full rebuild
// on the same concatenated data — cluster set, per-level count checksums,
// and per-record assigned labels — for every batch size, populate/join
// kernel, mp backend, and rank count.  The memo only buys speed; these
// tests pin that it never buys a different answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "cluster/membership.hpp"
#include "core/checkpoint.hpp"
#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "datagen/workloads.hpp"
#include "grid/histogram.hpp"
#include "grid/uniform_grid.hpp"
#include "io/data_source.hpp"
#include "mp/backend.hpp"
#include "units/populate.hpp"

namespace mafia {
namespace {

namespace fs = std::filesystem;

/// A fresh scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A successful append atomically replaces ckpt-final.bin with the state
/// of the concatenated data, so re-appending the same batch on the same
/// directory must start from a fresh copy of the base state.
void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

Dataset base_data(RecordIndex records = 2000) {
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = records;
  cfg.seed = 17;
  cfg.clusters.push_back(ClusterSpec::box({1, 3, 4}, {20, 20, 20}, {40, 40, 40}));
  return generate(cfg);
}

/// A batch drawn from the base distribution (same planted box, new seed).
Dataset same_shape_batch(RecordIndex records, std::uint64_t seed = 91) {
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = records;
  cfg.seed = seed;
  cfg.clusters.push_back(ClusterSpec::box({1, 3, 4}, {20, 20, 20}, {40, 40, 40}));
  return generate(cfg);
}

/// A deterministic uniform-noise batch (no planted structure).
Dataset noise_batch(RecordIndex records, std::uint64_t seed = 5) {
  Dataset d(6);
  std::uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (RecordIndex r = 0; r < records; ++r) {
    Value row[6];
    for (auto& v : row) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<Value>((s >> 33) % 10000) / 100.0f;  // [0, 100)
    }
    d.append(row, kNoiseLabel);
  }
  return d;
}

Dataset concat(const Dataset& base, const Dataset& batch) {
  Dataset all(base.num_dims());
  all.append_rows(base);
  all.append_rows(batch);
  return all;
}

MafiaOptions base_options() {
  MafiaOptions o;
  o.fixed_domain = {{0.0f, 100.0f}};
  return o;
}

/// Order-independent cluster identity: the multiset of DNF strings.
std::vector<std::string> signature(const MafiaResult& r) {
  std::vector<std::string> sig;
  for (const Cluster& c : r.clusters) sig.push_back(c.to_string(r.grids));
  std::sort(sig.begin(), sig.end());
  return sig;
}

/// The ground-truth identity check: clusters, every per-level field a full
/// rebuild and an append run must agree on (work counters the append
/// legitimately avoids — populate bitmap footprints — are excluded), and
/// the per-record labels assign_members derives from the model.
void expect_bit_identical(const MafiaResult& append, const MafiaResult& full,
                          const DataSource& data) {
  EXPECT_EQ(signature(append), signature(full));
  ASSERT_EQ(append.levels.size(), full.levels.size());
  for (std::size_t i = 0; i < append.levels.size(); ++i) {
    const LevelTrace& a = append.levels[i];
    const LevelTrace& b = full.levels[i];
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.ncdu_raw, b.ncdu_raw);
    EXPECT_EQ(a.ncdu, b.ncdu);
    EXPECT_EQ(a.ndu, b.ndu);
    EXPECT_EQ(a.count_checksum, b.count_checksum)
        << "count checksum diverged at level " << a.level;
    EXPECT_EQ(a.unjoined_dus, b.unjoined_dus);
    EXPECT_EQ(a.unjoined_units, b.unjoined_units);
  }
  EXPECT_EQ(assign_members(data, append.clusters, append.grids),
            assign_members(data, full.clusters, full.grids));
}

/// Runs the base data checkpointed (writing the final checkpoint an append
/// run seeds from), then the append run over the concatenated data.
MafiaResult run_base_then_append(const Dataset& base, const Dataset& all,
                                 const std::string& dir,
                                 const MafiaOptions& append_opts, int p,
                                 const MafiaOptions* base_opts = nullptr) {
  InMemorySource base_source(base);
  MafiaOptions bo = base_opts != nullptr ? *base_opts : base_options();
  bo.checkpoint.directory = dir;
  (void)run_pmafia(base_source, bo, 2);

  InMemorySource all_source(all);
  MafiaOptions ao = append_opts;
  ao.checkpoint.directory = dir;
  ao.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  return run_pmafia(all_source, ao, p);
}

// ------------------------------------------------------------- batch sizes

TEST(AppendDifferential, BatchSizesBitIdentical) {
  const Dataset base = base_data();
  const auto base_n = static_cast<RecordIndex>(base.num_records());
  // {1, 7, a chunk-boundary batch, a batch larger than the base}.
  const RecordIndex kChunk = 512;
  for (const RecordIndex batch_records :
       {RecordIndex{1}, RecordIndex{7}, kChunk, base_n + 500}) {
    ScratchDir dir("mafia_append_size_" + std::to_string(batch_records));
    const Dataset batch = same_shape_batch(batch_records);
    const Dataset all = concat(base, batch);
    InMemorySource all_source(all);

    MafiaOptions opts = base_options();
    opts.chunk_records = static_cast<std::size_t>(kChunk);
    const MafiaResult full = run_pmafia(all_source, opts, 2);
    const MafiaResult inc = run_base_then_append(base, all, dir.path(), opts, 2);
    EXPECT_TRUE(inc.append.performed);
    EXPECT_FALSE(full.append.performed);
    if (batch_records <= 7) {
      // Batches this small leave the adaptive edges and every level's
      // dense set unchanged for this seeded workload, so the whole run
      // rides the memo (deterministic, so safe to pin).
      EXPECT_EQ(inc.append.levels_reused, inc.levels.size());
      EXPECT_EQ(inc.append.levels_rerun, 0u);
    }
    expect_bit_identical(inc, full, all_source);
  }
}

// ---------------------------------------------- kernel/backend/rank matrix

/// One base run's final checkpoint serves every configuration: the
/// fingerprint deliberately excludes kernels, chunk size, backend, and
/// rank count, so an append may change all of them relative to the base.
void kernel_matrix_bit_identical(mp::MpBackend backend) {
  const Dataset base = base_data(1200);
  const Dataset batch = same_shape_batch(300);
  const Dataset all = concat(base, batch);
  InMemorySource all_source(all);

  ScratchDir dir(std::string("mafia_append_matrix_") +
                 mp::mp_backend_name(backend));
  {
    InMemorySource base_source(base);
    MafiaOptions bo = base_options();
    bo.checkpoint.directory = dir.path();
    (void)run_pmafia(base_source, bo, 2);
  }
  const MafiaResult full = run_pmafia(all_source, base_options(), 2);

  const std::string work = dir.path() + "_work";
  // Reused levels stream only the batch through the bitmap sweep, so its
  // block size is the populate axis here.
  for (const std::size_t block : {std::size_t{2048}, std::size_t{7}}) {
    for (const JoinKernel jk : {JoinKernel::Bucketed, JoinKernel::Pairwise}) {
      for (const int p : {1, 2, 3, 5, 8}) {
        copy_dir(dir.path(), work);
        MafiaOptions ao = base_options();
        ao.populate.block_records = block;
        ao.join.kernel = jk;
        ao.mp.backend = backend;
        ao.checkpoint.directory = work;
        ao.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
        const MafiaResult inc = run_pmafia(all_source, ao, p);
        SCOPED_TRACE("block=" + std::to_string(block) +
                     " join=" + std::to_string(static_cast<int>(jk)) +
                     " p=" + std::to_string(p));
        EXPECT_TRUE(inc.append.performed);
        expect_bit_identical(inc, full, all_source);
      }
    }
  }
  fs::remove_all(work);
}

TEST(AppendDifferential, KernelMatrixBitIdenticalThreads) {
  kernel_matrix_bit_identical(mp::MpBackend::Threads);
}

TEST(AppendDifferential, KernelMatrixBitIdenticalProcess) {
  if (!mp::process_backend_supported()) {
    GTEST_SKIP() << "process backend unavailable in this build";
  }
  kernel_matrix_bit_identical(mp::MpBackend::Process);
}

// ------------------------------------------------------ adversarial batches

TEST(AppendDifferential, AllNoiseBatchBitIdentical) {
  const Dataset base = base_data();
  const Dataset all = concat(base, noise_batch(600));
  InMemorySource all_source(all);
  ScratchDir dir("mafia_append_noise");

  const MafiaResult full = run_pmafia(all_source, base_options(), 2);
  const MafiaResult inc =
      run_base_then_append(base, all, dir.path(), base_options(), 2);
  expect_bit_identical(inc, full, all_source);
}

TEST(AppendDifferential, AllInsideOneUnitBatchBitIdentical) {
  const Dataset base = base_data();
  // Every batch record lands in the same cell of the planted box.
  Dataset batch(6);
  for (int r = 0; r < 400; ++r) {
    const Value row[6] = {50.0f, 30.0f, 50.0f, 30.0f, 30.0f, 50.0f};
    batch.append(row);
  }
  const Dataset all = concat(base, batch);
  InMemorySource all_source(all);
  ScratchDir dir("mafia_append_oneunit");

  const MafiaResult full = run_pmafia(all_source, base_options(), 2);
  const MafiaResult inc =
      run_base_then_append(base, all, dir.path(), base_options(), 2);
  expect_bit_identical(inc, full, all_source);
}

TEST(AppendDifferential, DemotingBatchBitIdentical) {
  // A noise-heavy batch raises the (n-scaled) density thresholds without
  // feeding the planted box, so units dense in the base run fall below
  // threshold in the combined run.
  const Dataset base = base_data(1000);
  const Dataset all = concat(base, noise_batch(4000, 23));
  InMemorySource all_source(all);
  ScratchDir dir("mafia_append_demote");

  const MafiaResult full = run_pmafia(all_source, base_options(), 2);
  const MafiaResult inc =
      run_base_then_append(base, all, dir.path(), base_options(), 2);
  expect_bit_identical(inc, full, all_source);
}

TEST(AppendDifferential, EmptyBatchIsFullyReusedNoOp) {
  // base_records == num_records: nothing new.  The grids rebuild from the
  // identical data, the chain holds through every level, and the result is
  // the base result.
  const Dataset base = base_data();
  InMemorySource source(base);
  ScratchDir dir("mafia_append_empty");

  MafiaOptions bo = base_options();
  bo.checkpoint.directory = dir.path();
  const MafiaResult first = run_pmafia(source, bo, 2);

  MafiaOptions ao = base_options();
  ao.checkpoint.directory = dir.path();
  ao.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  const MafiaResult inc = run_pmafia(source, ao, 2);
  EXPECT_TRUE(inc.append.performed);
  EXPECT_EQ(inc.append.levels_rerun, 0u);
  EXPECT_EQ(inc.append.levels_reused, inc.levels.size());
  EXPECT_EQ(inc.append.units_promoted, 0u);
  EXPECT_EQ(inc.append.units_demoted, 0u);
  expect_bit_identical(inc, first, source);
}

// --------------------------------------------------- base-state edge cases

TEST(AppendDifferential, AppendWithoutFinalCheckpointIsInputError) {
  const Dataset base = base_data(500);
  const Dataset all = concat(base, same_shape_batch(100));
  InMemorySource all_source(all);
  ScratchDir dir("mafia_append_nobase");

  MafiaOptions ao = base_options();
  ao.checkpoint.directory = dir.path();
  ao.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  EXPECT_THROW((void)run_pmafia(all_source, ao, 2), InputError);
}

TEST(AppendDifferential, OldFormatFinalCheckpointIsRefused) {
  // A final checkpoint from the previous format version (whose memo
  // carried join artifacts) is discarded, not misread: restamping the
  // version field leaves the file otherwise valid, since the CRC covers
  // only the payload.
  const Dataset base = base_data(500);
  const Dataset all = concat(base, same_shape_batch(100));
  InMemorySource base_source(base);
  InMemorySource all_source(all);
  ScratchDir dir("mafia_append_oldformat");

  MafiaOptions bo = base_options();
  bo.checkpoint.directory = dir.path();
  (void)run_pmafia(base_source, bo, 2);
  const std::string path = final_checkpoint_path(dir.path());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const std::uint32_t old_version = 4;  // memo with join artifacts
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&old_version), sizeof(old_version));
  }
  const CheckpointScan scan = load_final_checkpoint(dir.path(), 0);
  EXPECT_FALSE(scan.state.has_value());
  EXPECT_EQ(scan.discarded, 1u);

  MafiaOptions ao = base_options();
  ao.checkpoint.directory = dir.path();
  ao.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  try {
    (void)run_pmafia(all_source, ao, 2);
    FAIL() << "append over an old-format base checkpoint must throw";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find(dir.path()), std::string::npos)
        << e.what();
  }
}

TEST(AppendDifferential, OptionMismatchInvalidatesBaseCheckpoint) {
  const Dataset base = base_data(500);
  const Dataset all = concat(base, same_shape_batch(100));
  InMemorySource base_source(base);
  InMemorySource all_source(all);
  ScratchDir dir("mafia_append_mismatch");

  MafiaOptions bo = base_options();
  bo.checkpoint.directory = dir.path();
  (void)run_pmafia(base_source, bo, 2);

  // Different alpha -> different fingerprint: the stored base state does
  // not describe this run's options, so append must refuse, not reuse.
  MafiaOptions ao = base_options();
  ao.grid.alpha = 2.0;
  ao.checkpoint.directory = dir.path();
  ao.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  EXPECT_THROW((void)run_pmafia(all_source, ao, 2), InputError);
}

TEST(AppendDifferential, ResumedBaseFullRebuildsBitIdentically) {
  // A base run that itself resumed mid-way never saw its early levels, so
  // its final checkpoint carries no memo: the append run full-rebuilds
  // (levels_reused == 0) and still matches the from-scratch answer.
  const Dataset base = base_data();
  InMemorySource base_source(base);
  ScratchDir dir("mafia_append_resumedbase");

  MafiaOptions faulted = base_options();
  faulted.checkpoint.directory = dir.path();
  faulted.mp.deadline_seconds = 30.0;
  faulted.fault_plan.kill(/*rank=*/1, /*op=*/40);
  try {
    (void)run_pmafia(base_source, faulted, 2);
  } catch (const mp::FaultError&) {
  }
  MafiaOptions resume = base_options();
  resume.checkpoint.directory = dir.path();
  resume.checkpoint.resume = true;
  const MafiaResult resumed = run_pmafia(base_source, resume, 2);
  if (!resumed.recovery.resumed) {
    GTEST_SKIP() << "kill fired before the first checkpoint; nothing to test";
  }

  const Dataset all = concat(base, same_shape_batch(300));
  InMemorySource all_source(all);
  MafiaOptions ao = base_options();
  ao.checkpoint.directory = dir.path();
  ao.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  const MafiaResult inc = run_pmafia(all_source, ao, 2);
  EXPECT_EQ(inc.append.levels_reused, 0u);
  expect_bit_identical(inc, run_pmafia(all_source, base_options(), 2),
                       all_source);
}

TEST(AppendDifferential, JoinCountersMatchARebuildUnderTheAppendsKernel) {
  // The join always runs, even on reused levels: an append that switches
  // the join kernel reports the work of its own kernel, exactly as a full
  // rebuild with the append's options does, never the base run's.
  const Dataset base = base_data();
  const Dataset all = concat(base, same_shape_batch(7));
  InMemorySource all_source(all);
  for (const JoinKernel base_kernel : {JoinKernel::Bucketed, JoinKernel::Pairwise}) {
    const JoinKernel append_kernel = base_kernel == JoinKernel::Bucketed
                                         ? JoinKernel::Pairwise
                                         : JoinKernel::Bucketed;
    SCOPED_TRACE("append join=" + std::to_string(static_cast<int>(append_kernel)));
    ScratchDir dir("mafia_append_joinstats_" +
                   std::to_string(static_cast<int>(base_kernel)));
    MafiaOptions bo = base_options();
    bo.join.kernel = base_kernel;
    MafiaOptions ao = base_options();
    ao.join.kernel = append_kernel;
    const MafiaResult inc = run_base_then_append(base, all, dir.path(), ao, 2, &bo);
    const MafiaResult full = run_pmafia(all_source, ao, 2);
    ASSERT_EQ(inc.append.levels_reused, inc.levels.size());
    expect_bit_identical(inc, full, all_source);

    EXPECT_EQ(inc.join_kernel.bucketed_levels, full.join_kernel.bucketed_levels);
    EXPECT_EQ(inc.join_kernel.pairwise_levels, full.join_kernel.pairwise_levels);
    EXPECT_EQ(inc.join_kernel.buckets, full.join_kernel.buckets);
    EXPECT_EQ(inc.join_kernel.probes, full.join_kernel.probes);
    EXPECT_EQ(inc.join_kernel.emitted, full.join_kernel.emitted);
    EXPECT_EQ(inc.join_kernel.repeats_fused, full.join_kernel.repeats_fused);
    EXPECT_GT(append_kernel == JoinKernel::Bucketed
                  ? inc.join_kernel.bucketed_levels
                  : inc.join_kernel.pairwise_levels,
              0u);
    for (std::size_t i = 0; i < inc.levels.size(); ++i) {
      EXPECT_EQ(inc.levels[i].join_buckets, full.levels[i].join_buckets);
      EXPECT_EQ(inc.levels[i].join_probes, full.levels[i].join_probes);
      EXPECT_EQ(inc.levels[i].join_emitted, full.levels[i].join_emitted);
      EXPECT_EQ(inc.levels[i].join_repeats_fused,
                full.levels[i].join_repeats_fused);
    }
  }
}

// ------------------------------------------------------- crash mid-append

/// Kill-at-every-op sweep over the append run: an append interrupted at
/// any collective leaves the base's final checkpoint intact (per-level
/// writes are suppressed; the new final state publishes atomically at the
/// end), so simply re-running the append succeeds bit-identically.
TEST(AppendDifferential, SigkillMidAppendLeavesBaseRetryable) {
  const Dataset base = base_data(1200);
  const Dataset all = concat(base, same_shape_batch(300));
  InMemorySource all_source(all);
  ScratchDir dir("mafia_append_kill");

  {
    InMemorySource base_source(base);
    MafiaOptions bo = base_options();
    bo.checkpoint.directory = dir.path();
    (void)run_pmafia(base_source, bo, 2);
  }
  const MafiaResult full = run_pmafia(all_source, base_options(), 2);

  const std::string work = dir.path() + "_work";
  int interrupted_runs = 0;
  for (std::uint64_t op = 0;; ++op) {
    copy_dir(dir.path(), work);
    MafiaOptions faulted = base_options();
    faulted.mp.deadline_seconds = 30.0;
    faulted.checkpoint.directory = work;
    faulted.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
    faulted.fault_plan.kill(/*rank=*/1, op);
    bool fired = false;
    try {
      const MafiaResult inc = run_pmafia(all_source, faulted, 2);
      expect_bit_identical(inc, full, all_source);
    } catch (const mp::FaultError&) {
      fired = true;
      ++interrupted_runs;
    }
    if (!fired) break;

    // The kill landed either before the atomic publish (the base state is
    // untouched) or after it (the append committed; only the trailing
    // result exchange died).  Never anything in between: the directory
    // always holds exactly one valid, complete final checkpoint.
    const CheckpointScan scan = load_final_checkpoint(work, /*fingerprint=*/0);
    ASSERT_TRUE(scan.state.has_value()) << "kill op " << op;
    EXPECT_EQ(scan.discarded, 0u);
    const bool committed = scan.state->num_records ==
                           static_cast<std::uint64_t>(all.num_records());
    if (!committed) {
      EXPECT_EQ(scan.state->num_records,
                static_cast<std::uint64_t>(base.num_records()));
    }
    // Retrying the append from whichever state survived reproduces the
    // full rebuild bit-identically (a committed append re-appends an
    // empty batch; an uncommitted one re-appends the real batch).
    MafiaOptions retry = base_options();
    retry.checkpoint.directory = work;
    retry.append = AppendConfig{scan.state->num_records};
    const MafiaResult inc = run_pmafia(all_source, retry, 2);
    expect_bit_identical(inc, full, all_source);
    ASSERT_LT(op, 10000u) << "fault sweep did not terminate";
  }
  fs::remove_all(work);
  EXPECT_GT(interrupted_runs, 0);
}

TEST(AppendDifferential, ChainedAppendsCompose) {
  // The final checkpoint a successful append publishes is itself a valid
  // base: a second batch appends on top of it, and the result matches the
  // full rebuild on all three segments.
  const Dataset base = base_data(1200);
  const Dataset b1 = same_shape_batch(300, 91);
  const Dataset b2 = noise_batch(200, 7);
  const Dataset first = concat(base, b1);
  const Dataset all = concat(first, b2);
  InMemorySource all_source(all);
  ScratchDir dir("mafia_append_chained");

  {
    InMemorySource base_source(base);
    MafiaOptions bo = base_options();
    bo.checkpoint.directory = dir.path();
    (void)run_pmafia(base_source, bo, 2);
  }
  {
    InMemorySource first_source(first);
    MafiaOptions ao = base_options();
    ao.checkpoint.directory = dir.path();
    ao.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
    (void)run_pmafia(first_source, ao, 2);
  }
  MafiaOptions ao = base_options();
  ao.checkpoint.directory = dir.path();
  ao.append = AppendConfig{static_cast<std::uint64_t>(first.num_records())};
  const MafiaResult inc = run_pmafia(all_source, ao, 2);
  expect_bit_identical(inc, run_pmafia(all_source, base_options(), 2),
                       all_source);
}

// ------------------------------------------------------------ drift golden

/// Pins the level-reuse decision on the canonical drift workload (the one
/// `pmafia generate --workload drift` emits and the scoreboard scores): a
/// small batch leaves the adaptive binning stable, so every level is
/// reused with batch-only scans; the default-sized batch (25% of the
/// base) shifts the adaptive histogram edges, so the run conservatively
/// reruns every level.  Both must still be bit-identical to the full
/// rebuild — the golden pin is about which path was taken, not the answer.
TEST(AppendDrift, GoldenLevelReuseOnDriftWorkload) {
  const Dataset base = generate(workloads::drift_base(8000));
  const MafiaOptions plain;  // CLI defaults: adaptive grid, no fixed domain

  const struct {
    RecordIndex batch;
    bool reused;
  } kCases[] = {{200, true}, {2000, false}};
  for (const auto& c : kCases) {
    SCOPED_TRACE("batch=" + std::to_string(c.batch));
    const Dataset batch = generate(workloads::drift_batch(c.batch));
    const Dataset all = concat(base, batch);
    ScratchDir dir("mafia_append_drift_" + std::to_string(c.batch));
    const MafiaResult append =
        run_base_then_append(base, all, dir.path(), plain, 2, &plain);
    InMemorySource all_source(all);
    const MafiaResult full = run_pmafia(all_source, plain, 2);
    ASSERT_TRUE(append.append.performed);
    if (c.reused) {
      EXPECT_EQ(append.append.levels_reused, append.levels.size());
      EXPECT_EQ(append.append.levels_rerun, 0u);
    } else {
      EXPECT_EQ(append.append.levels_reused, 0u);
      EXPECT_EQ(append.append.levels_rerun, append.levels.size());
    }
    expect_bit_identical(append, full, all_source);
  }
}

// --------------------------------------------------- accumulator overflow

TEST(AppendOverflow, HistogramSeedAtBoundaryIsExactAndPastItThrows) {
  const std::vector<Value> lo(2, 0.0f);
  const std::vector<Value> hi(2, 100.0f);
  HistogramBuilder hist(lo, hi, 4);
  // Exactly at the boundary: zero local counts + max base is representable.
  std::vector<Count> base(hist.counts().size(),
                          std::numeric_limits<Count>::max());
  hist.seed_counts(base);
  EXPECT_EQ(hist.counts()[0], std::numeric_limits<Count>::max());

  // One record past the boundary must throw, not wrap.
  HistogramBuilder over(lo, hi, 4);
  const Value row[2] = {1.0f, 1.0f};
  over.accumulate(row, 1);
  EXPECT_THROW(over.seed_counts(base), Error);
}

TEST(AppendOverflow, PopulateSeedAtBoundaryIsExactAndPastItThrows) {
  const std::vector<Value> lo(2, 0.0f);
  const std::vector<Value> hi(2, 100.0f);
  const GridSet grids = compute_uniform_grids(lo, hi, 4, 0.01, 100);
  UnitStore cdus(1);
  for (BinId b = 0; b < 4; ++b) {
    const DimId d0[] = {0};
    const BinId bb[] = {b};
    cdus.push(d0, bb);
  }
  std::vector<Count> base(cdus.size(), std::numeric_limits<Count>::max());
  {
    UnitPopulator pop(grids, cdus);
    pop.seed_counts(base);  // zero local counts: boundary is representable
    EXPECT_EQ(pop.counts()[0], std::numeric_limits<Count>::max());
  }
  {
    // A streamed record (the bitmap sweep) lands in the counts before the
    // guarded add, so one more count past the boundary throws.
    UnitPopulator pop(grids, cdus);
    const Value row[2] = {1.0f, 1.0f};
    pop.accumulate(row, 1);
    EXPECT_THROW(pop.seed_counts(base), Error);
  }
}

}  // namespace
}  // namespace mafia
