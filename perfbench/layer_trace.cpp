// `pbtool trace`: the traced run.  Times the public functions of every
// layer (io, grid, units, mp, core, cluster, serve) from the benchmark's
// own code and replays the level loop serially through the same public
// calls run_pmafia makes, so each phase gets its own span.  The replay must
// reproduce the 4-rank run's per-level count_checksum and clusters; every
// other check (append == rebuild, served labels == offline labels) counts
// into the reported failures.
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/assembly.hpp"
#include "cluster/membership.hpp"
#include "common.hpp"
#include "core/checkpoint.hpp"
#include "core/mafia.hpp"
#include "core/model_io.hpp"
#include "grid/adaptive_grid.hpp"
#include "grid/histogram.hpp"
#include "io/data_source.hpp"
#include "io/record_file.hpp"
#include "machine.hpp"
#include "serve/client.hpp"
#include "serve/model_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "units/dedup.hpp"
#include "units/identify.hpp"
#include "units/join.hpp"
#include "units/populate.hpp"

namespace perfbench {
namespace {

using namespace mafia;
namespace fs = std::filesystem;

/// Failed checks of one traced run, by description.
struct Checks {
  std::size_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

struct ReplayLevel {
  std::size_t level = 0;
  std::size_t ncdu_raw = 0;
  std::size_t ncdu = 0;
  std::size_t ndu = 0;
  std::uint64_t count_checksum = 0;
  std::uint64_t join_probes = 0;
  std::uint64_t join_emitted = 0;
  double populate_s = 0.0;
};

struct Replay {
  GridSet grids;
  std::vector<ReplayLevel> levels;
  std::vector<Cluster> clusters;
  std::vector<std::uint8_t> level1_flags;
  PopulateKernelStats populate;
  double wall_s = 0.0;
};

/// Serial replay of run_pmafia's single-rank path (mafia.cpp): min/max and
/// histogram passes, adaptive grids, then populate -> identify -> register
/// -> join -> dedup per level, and cluster assembly.  Every call is a
/// public layer function; every layer call sits in a span.
Replay replay_level_loop(const Dataset& data, const MafiaOptions& opt, SpanLog& log) {
  const InMemorySource source(data);
  const std::size_t d = data.num_dims();
  const auto n = static_cast<Count>(data.num_records());
  Replay out;
  const double t0 = now_seconds();

  std::vector<Value> lo(d);
  std::vector<Value> hi(d);
  {
    SpanLog::Scope sp(log, "grid.histogram");
    if (opt.fixed_domain) {
      std::fill(lo.begin(), lo.end(), opt.fixed_domain->first);
      std::fill(hi.begin(), hi.end(), opt.fixed_domain->second);
    } else {
      MinMaxAccumulator mm(d);
      source.scan(0, data.num_records(), opt.chunk_records,
                  [&](const Value* rows, std::size_t nrows) { mm.accumulate(rows, nrows); });
      lo = mm.mins();
      hi = mm.maxs();
    }
  }
  HistogramBuilder hist(lo, hi, opt.grid.fine_bins);
  {
    SpanLog::Scope sp(log, "grid.histogram");
    source.scan(0, data.num_records(), opt.chunk_records,
                [&](const Value* rows, std::size_t nrows) { hist.accumulate(rows, nrows); });
  }
  {
    SpanLog::Scope sp(log, "grid.adaptive");
    out.grids = compute_adaptive_grids(lo, hi, hist, n, opt.grid);
  }

  const DensityContext dctx{opt.grid.alpha, n};
  std::vector<UnitStore> registered;
  UnitStore cdus(1);
  UnitStore prev_dense(1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parents;
  std::vector<std::uint32_t> raw_to_unique;
  for (std::size_t j = 0; j < out.grids.num_dims(); ++j) {
    for (std::size_t b = 0; b < out.grids[j].num_bins(); ++b) {
      const auto dj = static_cast<DimId>(j);
      const auto bb = static_cast<BinId>(b);
      cdus.push_unchecked(&dj, &bb);
    }
  }
  std::size_t pending_raw = cdus.size();
  JoinStats pending_join;
  std::size_t level = 1;

  auto register_unmarked = [&](const UnitStore& dense, const std::vector<std::uint8_t>& marked) {
    UnitStore reg(dense.k());
    for (std::size_t u = 0; u < dense.size(); ++u) {
      if (!marked[u]) reg.push_unchecked(dense.dims(u).data(), dense.bins(u).data());
    }
    if (!reg.empty()) registered.push_back(std::move(reg));
  };

  while (true) {
    SpanLog::Scope level_span(log, "level." + std::to_string(level));
    ReplayLevel rec;
    rec.level = level;
    rec.ncdu_raw = pending_raw;
    rec.ncdu = cdus.size();
    rec.join_probes = pending_join.probes;
    rec.join_emitted = pending_join.emitted;

    UnitPopulator populator(out.grids, cdus, opt.populate);
    {
      SpanLog::Scope sp(log, "units.populate");
      const double tp = now_seconds();
      source.scan(0, data.num_records(), opt.chunk_records,
                  [&](const Value* rows, std::size_t nrows) { populator.accumulate(rows, nrows); });
      (void)populator.counts();  // finalizes the bitmap kernel's pending rows
      rec.populate_s = now_seconds() - tp;
    }
    out.populate.merge(populator.kernel_stats());

    std::vector<std::uint8_t> flags(cdus.size(), 0);
    {
      SpanLog::Scope sp(log, "units.identify");
      identify_dense_units(cdus, populator.counts(), out.grids, opt.density, dctx, 0,
                           cdus.size(), flags);
    }
    if (level == 1) out.level1_flags = flags;
    for (const std::uint8_t f : flags) rec.ndu += (f != 0);
    rec.count_checksum = count_vector_checksum(populator.counts());
    out.levels.push_back(rec);

    if (level > 1) {
      std::vector<std::uint8_t> marked(prev_dense.size(), 0);
      for (std::size_t r = 0; r < parents.size(); ++r) {
        if (flags[raw_to_unique[r]]) {
          marked[parents[r].first] = 1;
          marked[parents[r].second] = 1;
        }
      }
      register_unmarked(prev_dense, marked);
    }
    if (rec.ndu == 0) break;

    UnitStore dense(cdus.k());
    {
      SpanLog::Scope sp(log, "units.identify");
      dense = build_dense_store(cdus, flags);
    }
    if (level >= opt.max_level) {
      registered.push_back(dense);
      break;
    }
    prev_dense = std::move(dense);
    ++level;

    const bool bucketed = opt.join.kernel == JoinKernel::Bucketed && prev_dense.k() >= 2;
    UnitStore raw(level);
    {
      SpanLog::Scope sp(log, "units.join");
      JoinResult jr = bucketed ? bucket_join_dense_units(prev_dense, opt.join_rule)
                               : join_dense_units(prev_dense, opt.join_rule);
      raw = std::move(jr.cdus);
      parents = std::move(jr.parents);
      pending_join = jr.stats;
    }
    if (raw.empty()) {
      registered.push_back(prev_dense);
      break;
    }
    pending_raw = raw.size();
    {
      SpanLog::Scope sp(log, "units.dedup");
      DedupResult dd = (bucketed || opt.dedup == DedupPolicy::Hash)
                           ? dedup_hash(raw)
                           : dedup_from_flags(raw, pairwise_repeat_flags(raw, 0, raw.size()));
      cdus = std::move(dd.unique);
      raw_to_unique = std::move(dd.raw_to_unique);
    }
  }

  {
    SpanLog::Scope sp(log, "cluster.assemble");
    out.clusters = assemble_clusters(registered);
    std::erase_if(out.clusters, [&opt](const Cluster& c) { return c.dims.size() < opt.min_cluster_dims; });
  }
  out.wall_s = now_seconds() - t0;
  return out;
}

/// Share of rows with a distinct set of level-1 dense items: each row maps
/// to the set {(dim, bin) : its bin in dim is dense at level 1}.  Computed
/// from the run's grids and level-1 flags, outside the program.
double distinct_set_ratio(const Dataset& data, const GridSet& grids,
                          const std::vector<std::uint8_t>& level1_flags) {
  const std::size_t d = data.num_dims();
  std::vector<std::size_t> offset(d + 1, 0);
  for (std::size_t j = 0; j < d; ++j) offset[j + 1] = offset[j] + grids[j].num_bins();
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(data.num_records()));
  const Value* values = data.values().data();
  for (RecordIndex r = 0; r < data.num_records(); ++r) {
    const Value* row = values + static_cast<std::size_t>(r) * d;
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t j = 0; j < d; ++j) {
      const std::size_t b = grids[j].bin_of(row[j]);
      if (!level1_flags[offset[j] + b]) continue;
      h = (h ^ (j * 257 + b + 1)) * 1099511628211ull;
    }
    h ^= h >> 31;  // finalizer: spread FNV's low-entropy high bits
    h *= 0x9e3779b97f4a7c15ull;
    keys.push_back(h ^ (h >> 29));
  }
  std::sort(keys.begin(), keys.end());
  const auto distinct = static_cast<double>(std::unique(keys.begin(), keys.end()) - keys.begin());
  return distinct / static_cast<double>(data.num_records());
}

/// Per-level checksums and cluster DNFs, for comparing two runs.
std::vector<std::string> run_signature(const std::vector<std::uint64_t>& checksums,
                                       const std::vector<Cluster>& clusters, const GridSet& grids) {
  std::vector<std::string> sig;
  for (const std::uint64_t c : checksums) sig.push_back(std::to_string(c));
  for (const Cluster& c : clusters) sig.push_back(c.to_string(grids));
  return sig;
}

std::vector<std::string> run_signature(const MafiaResult& r) {
  std::vector<std::uint64_t> sums;
  for (const LevelTrace& t : r.levels) sums.push_back(t.count_checksum);
  return run_signature(sums, r.clusters, r.grids);
}

template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now_seconds();
  fn();
  return now_seconds() - t0;
}

/// Median wall seconds of `reps` calls.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(timed(fn));
  return median(t);
}

/// Serve-layer stage costs for one 512-row batch, plus round trips to an
/// in-process ServeServer that reloads its model every 100 ms for a second.
struct ServeLayer {
  double encode_query_us = 0.0;
  double decode_query_us = 0.0;
  double encode_response_us = 0.0;
  double decode_response_us = 0.0;
  double assign_us = 0.0;
  double cache_reload_ms = 0.0;
  double transport_us = 0.0;
  double reloads = 0.0;
  double noise_row_ratio = 0.0;
};

constexpr std::size_t kBatchRows = 512;
constexpr double kServeSeconds = 1.0;
constexpr double kReloadSeconds = 0.1;

serve::QueryBatch rows_batch(const Dataset& data, std::size_t first) {
  const std::size_t d = data.num_dims();
  serve::QueryBatch b;
  b.num_dims = static_cast<std::uint32_t>(d);
  const auto begin = data.values().begin() + static_cast<std::ptrdiff_t>(first * d);
  b.values.assign(begin, begin + static_cast<std::ptrdiff_t>(kBatchRows * d));
  return b;
}

/// Runs ServeServer::serve() on its own thread; stops and joins it on
/// destruction, so an exception in the caller cannot leak the thread.
class ServerThread {
 public:
  explicit ServerThread(const ServeOptions& options)
      : server_(options), thread_([this] { server_.serve(); }) {}
  ~ServerThread() {
    server_.stop();
    thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  [[nodiscard]] serve::ServeServer& server() { return server_; }

 private:
  serve::ServeServer server_;
  std::thread thread_;
};

ServeLayer measure_serve(const Dataset& data, const std::string& model_path,
                         const std::string& socket_path, Checks& checks) {
  const Model model = load_model(model_path);
  const InMemorySource source(data);
  const std::vector<std::int32_t> offline = assign_members(source, model.clusters, model.grids);
  const std::size_t d = data.num_dims();
  const auto rows = static_cast<std::size_t>(data.num_records());
  constexpr int kReps = 201;
  ServeLayer out;

  const serve::QueryBatch batch = rows_batch(data, 0);
  Dataset one(d);
  one.append_rows(batch.values.data(), kBatchRows);
  const InMemorySource one_source(one);
  std::vector<serve::RowAnswer> answers(kBatchRows);
  for (std::size_t r = 0; r < kBatchRows; ++r) answers[r].label = offline[r];
  std::vector<std::uint8_t> query_bytes;
  std::vector<std::uint8_t> response_bytes;
  std::size_t sink = 0;
  out.encode_query_us = 1e6 * median_seconds(kReps, [&] { query_bytes = serve::encode_query(batch); });
  out.decode_query_us = 1e6 * median_seconds(kReps, [&] {
    sink += serve::decode_query(query_bytes.data(), query_bytes.size(), 4096,
                                static_cast<std::uint32_t>(d)).num_rows();
  });
  out.assign_us = 1e6 * median_seconds(kReps, [&] {
    sink += assign_members(one_source, model.clusters, model.grids).size();
  });
  out.encode_response_us = 1e6 * median_seconds(kReps, [&] { response_bytes = serve::encode_response(answers); });
  out.decode_response_us = 1e6 * median_seconds(kReps, [&] {
    sink += serve::decode_response(response_bytes.data(), response_bytes.size()).size();
  });
  checks.expect(sink == static_cast<std::size_t>(kReps) * 3 * kBatchRows,
                "serve codec round trips or assign_members lost rows");
  serve::ModelCache cache(model_path, 2);
  out.cache_reload_ms = 1e3 * median_seconds(21, [&] { cache.reload(); });

  ServeOptions options;
  options.model_path = model_path;
  options.listen = "unix:" + socket_path;
  options.serve_threads = 2;
  std::vector<double> rtt;
  std::size_t wrong = 0;
  ServeReport report;
  {
    ServerThread daemon(options);
    serve::ServeClient client(daemon.server().endpoint());
    const double t_end = now_seconds() + kServeSeconds;
    double next_reload = now_seconds() + kReloadSeconds;
    for (std::size_t at = 0; now_seconds() < t_end;) {
      const serve::QueryBatch q = rows_batch(data, at);
      const double t0 = now_seconds();
      const std::vector<serve::RowAnswer> got = client.query(q);
      rtt.push_back(now_seconds() - t0);
      bool same = got.size() == kBatchRows;
      for (std::size_t r = 0; same && r < kBatchRows; ++r) same = got[r].label == offline[at + r];
      wrong += same ? 0 : 1;
      at = at + 2 * kBatchRows <= rows ? at + kBatchRows : 0;
      if (now_seconds() >= next_reload) {
        daemon.server().request_reload();
        next_reload += kReloadSeconds;
      }
    }
    report = daemon.server().snapshot();
  }
  checks.expect(!rtt.empty() && wrong == 0,
                std::to_string(wrong) + " served batches differ from offline assign_members");
  const double stages = out.encode_query_us + out.decode_query_us + out.assign_us +
                        out.encode_response_us + out.decode_response_us;
  out.transport_us = 1e6 * median(rtt) - stages;
  out.reloads = static_cast<double>(report.model_reloads);
  out.noise_row_ratio = report.rows == 0 ? 0.0
                                         : static_cast<double>(report.noise_rows) /
                                               static_cast<double>(report.rows);
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int cmd_trace(const Args& args) {
  const std::string work = args.need("work");
  const bool replay_combined = args.get("replay", "base") == "combined";
  fs::create_directories(work);

  const MachineContext machine = probe_machine();

  // io: the workload's record files, page cache warm.
  Dataset base(1);
  Dataset batch(1);
  const double read_base_s = timed([&] { base = read_record_file(args.need("data")); });
  const double read_batch_s = timed([&] { batch = read_record_file(args.need("batch")); });
  const double read_mb = static_cast<double>(fs::file_size(args.need("data")) +
                                             fs::file_size(args.need("batch"))) / 1e6;
  Dataset combined = base;
  combined.append_rows(batch);
  const Dataset& target = replay_combined ? combined : base;
  const InMemorySource target_source(target);

  MafiaOptions opt;
  if (args.has("domain-lo")) {
    opt.fixed_domain = {{static_cast<Value>(args.num("domain-lo", 0.0)),
                         static_cast<Value>(args.num("domain-hi", 100.0))}};
  }
  Checks checks;

  // core: untraced 4-rank and 1-rank runs; the 1-rank run is the
  // single-threaded baseline the replay's overhead is measured against.
  MafiaResult run4;
  const double run4_s = timed([&] { run4 = run_pmafia(target_source, opt, 4); });
  MafiaResult run1;
  const double run1_s = timed([&] { run1 = run_pmafia(target_source, opt, 1); });
  const std::vector<std::string> reference = run_signature(run4);
  checks.expect(run_signature(run1) == reference, "1-rank run differs from the 4-rank run");

  SpanLog log;
  const Replay rp = replay_level_loop(target, opt, log);
  std::vector<std::uint64_t> replay_sums;
  for (const ReplayLevel& l : rp.levels) replay_sums.push_back(l.count_checksum);
  checks.expect(run_signature(replay_sums, rp.clusters, rp.grids) == reference,
                "layer replay does not reproduce the 4-rank run's checksums and clusters");
  log.write_chrome_trace(args.need("trace-out"));

  const std::string model_path = (fs::path(work) / "model.txt").string();
  const double model_save_s = median_seconds(5, [&] { save_model(model_path, run4.grids, run4.clusters); });
  const double model_load_s = median_seconds(5, [&] { (void)load_model(model_path); });
  const double model_kb = static_cast<double>(fs::file_size(model_path)) / 1024.0;

  // core: checkpointed base build, then an append of the batch onto it.
  const std::string ckpt = (fs::path(work) / "ckpt").string();
  fs::remove_all(ckpt);
  MafiaOptions base_opt = opt;
  base_opt.checkpoint.directory = ckpt;
  (void)run_pmafia(InMemorySource(base), base_opt, 4);
  const double checkpoint_kb = static_cast<double>(fs::file_size(final_checkpoint_path(ckpt))) / 1024.0;
  const double checkpoint_load_s = median_seconds(5, [&] { (void)load_final_checkpoint(ckpt, 0); });
  MafiaOptions append_opt = base_opt;
  append_opt.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  MafiaResult appended;
  const InMemorySource combined_source(combined);
  const double append_s = timed([&] { appended = run_pmafia(combined_source, append_opt, 4); });
  const std::vector<std::string> rebuild =
      replay_combined ? reference : run_signature(run_pmafia(combined_source, opt, 4));
  checks.expect(run_signature(appended) == rebuild, "append differs from a full rebuild on base+batch");

  const ServeLayer sv =
      measure_serve(target, model_path, (fs::path(work) / "trace.sock").string(), checks);

  const auto n = static_cast<double>(target.num_records());
  const auto levels = static_cast<double>(rp.levels.size());
  double ncdu = 0, ndu = 0, probes = 0, emitted = 0, raw_k2 = 0, ncdu_k2 = 0, populate_k3plus = 0;
  for (const ReplayLevel& l : rp.levels) {
    ncdu += static_cast<double>(l.ncdu);
    ndu += static_cast<double>(l.ndu);
    probes += static_cast<double>(l.join_probes);
    emitted += static_cast<double>(l.join_emitted);
    if (l.level >= 2) {
      raw_k2 += static_cast<double>(l.ncdu_raw);
      ncdu_k2 += static_cast<double>(l.ncdu);
    }
    if (l.level >= 3) populate_k3plus += l.populate_s;
  }
  const double populate_s = log.total_seconds("units.populate");
  const double mb_binned = levels * n * static_cast<double>(target.num_dims()) * sizeof(Value) / 1e6;
  const double populate_gb_per_s = mb_binned / 1e3 / populate_s;
  const PopulateKernelStats& ps = rp.populate;
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  JsonLine m;
  m.num("io.read_s", read_base_s + read_batch_s)
      .num("io.read_mb_per_s", read_mb / (read_base_s + read_batch_s))
      .num("grid.histogram_s", log.total_seconds("grid.histogram"))
      .num("grid.adaptive_s", log.total_seconds("grid.adaptive"))
      .num("grid.bins", static_cast<double>(rp.grids.total_bins()))
      .num("units.populate_s", populate_s)
      .num("units.populate.k1_s", rp.levels.front().populate_s)
      .num("units.populate.k2_s", rp.levels.size() > 1 ? rp.levels[1].populate_s : 0.0)
      .num("units.populate.k3plus_s", populate_k3plus)
      .num("units.populate.rows", levels * n)
      .num("units.populate.subspaces",
           static_cast<double>(ps.packed_sorted_subspaces + ps.packed_hash_subspaces +
                               ps.memcmp_subspaces + ps.bitmap_subspaces))
      .num("units.populate.cdus", ncdu)
      .num("units.populate.mb_binned", mb_binned)
      .num("units.populate.distinct_set_ratio", distinct_set_ratio(target, rp.grids, rp.level1_flags))
      .num("units.populate.gb_per_s_computed", populate_gb_per_s)
      .num("units.populate.bw_share_computed", populate_gb_per_s / machine.stream_gb_per_s)
      .num("units.identify_s", log.total_seconds("units.identify"))
      .num("units.identify.dense_ratio", ratio(ndu, ncdu))
      .num("units.join_s", log.total_seconds("units.join"))
      .num("units.join.probes", probes)
      .num("units.join.emitted_ratio", ratio(emitted, probes))
      .num("units.dedup_s", log.total_seconds("units.dedup"))
      .num("units.dedup.unique_ratio", ratio(ncdu_k2, raw_k2))
      .num("mp.payload_mb", static_cast<double>(run4.comm.total_bytes()) / 1e6)
      .num("mp.collectives", static_cast<double>(run4.comm.collective_ops()))
      .num("mp.in_comm_s", run4.comm.comm_seconds)
      .num("mp.populate_skew_s", run4.trace.max_seconds("populate") - run4.trace.min_seconds("populate"))
      .num("mp.unaccounted_s", run4.total_seconds - run4.phases.total())
      .num("mp.parallel_efficiency", rp.wall_s / (4.0 * run4_s))
      .num("core.run_s", run4_s)
      .num("core.serial_run_s", run1_s)
      .num("core.model_save_s", model_save_s)
      .num("core.model_load_s", model_load_s)
      .num("core.model_kb", model_kb)
      .num("core.checkpoint_load_s", checkpoint_load_s)
      .num("core.checkpoint_kb", checkpoint_kb)
      .num("core.append.levels_reused", static_cast<double>(appended.append.levels_reused))
      .num("core.append.run_s", append_s)
      .num("cluster.assemble_s", log.total_seconds("cluster.assemble"))
      .num("cluster.clusters", static_cast<double>(rp.clusters.size()))
      .num("cluster.assign_us", sv.assign_us)
      .num("serve.encode_query_us", sv.encode_query_us)
      .num("serve.decode_query_us", sv.decode_query_us)
      .num("serve.encode_response_us", sv.encode_response_us)
      .num("serve.decode_response_us", sv.decode_response_us)
      .num("serve.cache_reload_ms", sv.cache_reload_ms)
      .num("serve.transport_us", sv.transport_us)
      .num("serve.reloads", sv.reloads)
      .num("serve.noise_row_ratio", sv.noise_row_ratio)
      .num("trace.unaccounted_s", rp.wall_s - log.sum_self_seconds())
      .num("trace.overhead_s", rp.wall_s - run1_s)
      .num("machine.nproc", static_cast<double>(machine.nproc))
      .num("machine.llc_mb", static_cast<double>(machine.llc_bytes) / 1048576.0)
      .num("machine.stream_gb_per_s", machine.stream_gb_per_s);

  std::vector<std::string> level_rows;
  std::vector<std::string> checksums;
  for (const ReplayLevel& l : rp.levels) {
    checksums.push_back(hex64(l.count_checksum));
    JsonLine row;
    row.num("k", static_cast<double>(l.level))
        .num("cdus", static_cast<double>(l.ncdu))
        .num("dense", static_cast<double>(l.ndu))
        .str("count_checksum", checksums.back())
        .num("populate_s", l.populate_s);
    level_rows.push_back(row.str());
  }
  std::vector<std::string> clusters;
  for (const Cluster& c : rp.clusters) clusters.push_back(c.to_string(rp.grids));
  std::string levels_json = "[";
  for (std::size_t i = 0; i < level_rows.size(); ++i) levels_json += (i ? ", " : "") + level_rows[i];
  levels_json += "]";

  JsonLine out;
  out.num("attempted", static_cast<double>(checks.attempted))
      .raw("failures", json_strings(checks.failures))
      .raw("checksums", json_strings(checksums))
      .raw("clusters", json_strings(clusters))
      .raw("levels", levels_json)
      .raw("metrics", m.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
