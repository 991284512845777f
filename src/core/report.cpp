#include "core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/json.hpp"

namespace mafia {

namespace {

/// Fixed-width hex rendering for the level count checksums: a 64-bit FNV
/// value exceeds the exactly-representable double range, so emitting it as
/// a JSON number would silently round in consumers; a hex string is
/// compare-for-equality data anyway.
std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Serializes one IoScanStats as a JSON object (the same shape wherever
/// I/O accounting appears: per phase, per rank, and run totals).
void write_io(JsonWriter& w, const IoScanStats& s) {
  w.begin_object();
  w.key("chunks").value(s.chunks);
  w.key("bytes_read").value(s.bytes);
  w.key("read_seconds").value(s.read_seconds);
  w.key("compute_seconds").value(s.compute_seconds);
  w.key("scan_seconds").value(s.scan_seconds);
  w.end_object();
}

/// Serializes one CommStats as a JSON object (shared by every level of the
/// report so the counter schema is identical everywhere it appears).
void write_comm(JsonWriter& w, const mp::CommStats& s) {
  w.begin_object();
  w.key("p2p_messages").value(s.p2p_messages);
  w.key("p2p_bytes").value(s.p2p_bytes);
  w.key("barriers").value(s.barriers);
  w.key("reduces").value(s.reduces);
  w.key("bcasts").value(s.bcasts);
  w.key("gathers").value(s.gathers);
  w.key("scatters").value(s.scatters);
  w.key("collective_bytes").value(s.collective_bytes);
  w.key("total_bytes").value(s.total_bytes());
  w.key("comm_seconds").value(s.comm_seconds);
  w.end_object();
}

}  // namespace

std::string render_clusters(const MafiaResult& result) {
  std::ostringstream os;
  for (std::size_t i = 0; i < result.clusters.size(); ++i) {
    os << "cluster " << i << ": " << result.clusters[i].to_string(result.grids)
       << "\n";
  }
  return os.str();
}

std::string render_report(const MafiaResult& result) {
  std::ostringstream os;
  os << "pMAFIA run: " << result.num_records << " records x "
     << result.num_dims << " dims on " << result.num_ranks << " rank(s) ("
     << mp::mp_backend_name(result.mp_backend) << " backend), "
     << result.total_seconds << " s\n";

  os << "\nclusters (" << result.clusters.size() << ", maximal subspaces):\n";
  os << render_clusters(result);

  os << "\nlevel trace:\n";
  os << "  " << std::setw(3) << "k" << std::setw(12) << "raw CDUs"
     << std::setw(14) << "unique CDUs" << std::setw(14) << "dense units"
     << std::setw(14) << "join probes" << std::setw(14) << "join buckets"
     << std::setw(10) << "unjoined" << std::setw(9) << "kernel"
     << "\n";
  for (const LevelTrace& t : result.levels) {
    os << "  " << std::setw(3) << t.level << std::setw(12) << t.ncdu_raw
       << std::setw(14) << t.ncdu << std::setw(14) << t.ndu << std::setw(14)
       << t.join_probes << std::setw(14) << t.join_buckets << std::setw(10)
       << t.unjoined_dus << std::setw(9) << populate_kernel_name(t.populate_kernel)
       << "\n";
  }
  if (result.total_unjoined_dus() > 0) {
    os << "  unjoined dense units (could not be combined): "
       << result.total_unjoined_dus() << " over the run\n";
  }

  os << "\npopulate kernel (subspaces over all levels): packed-sorted "
     << result.populate_kernel.packed_sorted_subspaces << ", packed-hash "
     << result.populate_kernel.packed_hash_subspaces << ", memcmp "
     << result.populate_kernel.memcmp_subspaces << ", bitmap "
     << result.populate_kernel.bitmap_subspaces << ", block "
     << result.populate_kernel.block_records << " records";
  if (result.populate_kernel.bitmap_subspaces > 0) {
    os << "; bitmap index peak " << result.populate_kernel.bitmap_bytes
       << " bytes, " << result.populate_kernel.bitmap_words_anded
       << " words ANDed";
  }
  os << "\n";
  // Row source and rows swept (over all ranks) per level, then the
  // transaction-table ledger.
  os << "populate rows:";
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const LevelTrace& t = result.levels[i];
    os << (i == 0 ? " k" : ", k") << t.level << " "
       << populate_source_name(t.populate_source) << " " << t.populate_rows;
  }
  const PopulateKernelStats& pk = result.populate_kernel;
  if (pk.table_built_level > 0) {
    os << "; tables keyed at level " << pk.table_built_level << ", max "
       << pk.table_rows_max << " rows / " << pk.table_bytes_max
       << " bytes per rank, " << pk.table_fallback_ranks << " of "
       << result.num_ranks << " rank(s) fell back to records";
  }
  os << "\n";

  os << "join kernel (levels over the run): bucketed "
     << result.join_kernel.bucketed_levels << ", pairwise "
     << result.join_kernel.pairwise_levels << "; buckets "
     << result.join_kernel.buckets << ", probes " << result.join_kernel.probes
     << ", emitted " << result.join_kernel.emitted << ", repeats fused "
     << result.join_kernel.repeats_fused << "\n";

  // Chunked-scan I/O: where the data-pass time went, summed over ranks.
  // Only meaningful when the trace carries the per-rank breakdown.
  if (!result.trace.empty()) {
    const IoScanStats io = result.trace.io_total();
    os << "io (all ranks): " << io.chunks << " chunks, " << io.bytes
       << " bytes read; read " << io.read_seconds << " s, compute "
       << io.compute_seconds << " s\n";
  }

  // Phase seconds: the max column is a true cross-rank maximum (an
  // allreduce_max over every rank's timer, carried by result.phases); the
  // min/mean columns need the gathered per-rank trace and are omitted when
  // a result predates the exchange.
  const bool have_trace = !result.trace.empty();
  os << "\nphases (seconds, across " << result.num_ranks << " rank(s)):\n";
  os << "  " << std::left << std::setw(12) << "phase" << std::right
     << std::setw(12) << "max";
  if (have_trace) os << std::setw(12) << "min" << std::setw(12) << "mean";
  os << "\n";
  os << std::fixed << std::setprecision(6);
  for (const auto& [name, secs] : result.phases.phases()) {
    os << "  " << std::left << std::setw(12) << name << std::right
       << std::setw(12) << secs;
    if (have_trace) {
      os << std::setw(12) << result.trace.min_seconds(name) << std::setw(12)
         << result.trace.mean_seconds(name);
    }
    os << "\n";
  }
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6);

  if (result.recovery.checkpoint_enabled) {
    os << "\nrecovery: ";
    if (result.recovery.resumed) {
      os << "resumed at level " << result.recovery.resume_level;
    } else {
      os << "fresh run";
    }
    os << ", " << result.recovery.checkpoints_written
       << " checkpoint(s) written, " << result.recovery.checkpoints_discarded
       << " discarded\n";
  }

  if (result.append.performed) {
    os << "\nappend: " << result.append.levels_reused
       << " level(s) reused (batch-only scan), " << result.append.levels_rerun
       << " rerun; " << result.append.units_promoted << " unit(s) promoted, "
       << result.append.units_demoted << " demoted\n";
  }

  os << "\ncommunication (all ranks):\n";
  os << "  reduces " << result.comm.reduces << ", bcasts " << result.comm.bcasts
     << ", gathers " << result.comm.gathers << ", scatters "
     << result.comm.scatters << ", p2p " << result.comm.p2p_messages << "\n";
  os << "  payload bytes " << result.comm.total_bytes() << ", in-comm seconds "
     << result.comm.comm_seconds << "\n";
  return os.str();
}

std::string render_report_json(const MafiaResult& result,
                               const mp::CostModel& model) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("pmafia-report-v1");
  w.key("records").value(result.num_records);
  w.key("dims").value(result.num_dims);
  w.key("ranks").value(result.num_ranks);
  // SPMD transport the run used (additive in pmafia-report-v1): "threads"
  // or "process"; rank_exits carries per-rank exit statuses on the process
  // backend (empty array on threads — ranks have no exit status there).
  w.key("mp_backend").value(mp::mp_backend_name(result.mp_backend));
  w.key("rank_exits").begin_array();
  for (std::size_t r = 0; r < result.rank_exits.size(); ++r) {
    w.begin_object();
    w.key("rank").value(r);
    w.key("code").value(static_cast<std::int64_t>(result.rank_exits[r].code));
    w.key("signal").value(
        static_cast<std::int64_t>(result.rank_exits[r].signal));
    w.end_object();
  }
  w.end_array();
  w.key("total_seconds").value(result.total_seconds);
  w.key("num_clusters").value(result.clusters.size());
  w.key("max_dense_level").value(result.max_dense_level());

  w.key("clusters").begin_array();
  for (const Cluster& c : result.clusters) {
    w.begin_object();
    w.key("dims").begin_array();
    for (const DimId d : c.dims) w.value(static_cast<std::uint64_t>(d));
    w.end_array();
    w.key("num_units").value(c.units.size());
    w.key("dnf").value(c.to_string(result.grids));
    w.end_object();
  }
  w.end_array();

  w.key("levels").begin_array();
  for (const LevelTrace& t : result.levels) {
    w.begin_object();
    w.key("level").value(t.level);
    w.key("raw_cdus").value(t.ncdu_raw);
    w.key("cdus").value(t.ncdu);
    w.key("dense_units").value(t.ndu);
    w.key("count_checksum").value(hex64(t.count_checksum));
    w.key("join_buckets").value(t.join_buckets);
    w.key("join_probes").value(t.join_probes);
    w.key("join_emitted").value(t.join_emitted);
    w.key("join_repeats_fused").value(t.join_repeats_fused);
    w.key("populate_kernel").value(populate_kernel_name(t.populate_kernel));
    w.key("bitmap_bytes").value(t.bitmap_bytes);
    w.key("bitmap_words_anded").value(t.bitmap_words_anded);
    w.key("populate_source").value(populate_source_name(t.populate_source));
    w.key("populate_rows").value(t.populate_rows);
    // gpumafia's find_unjoined_dus: the level's dense units no join could
    // combine (count exact; the list capped at kMaxUnjoinedListed).
    w.key("unjoined_dus").value(t.unjoined_dus);
    w.key("unjoined_units").begin_array();
    for (const std::string& u : t.unjoined_units) w.value(u);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  // Which populate kernels the run selected (per-subspace, summed over
  // levels) and the block size of the subspace-major sweep — so a recorded
  // populate-phase time is attributable to a concrete kernel configuration.
  w.key("populate_kernel").begin_object();
  w.key("packed_sorted_subspaces").value(result.populate_kernel.packed_sorted_subspaces);
  w.key("packed_hash_subspaces").value(result.populate_kernel.packed_hash_subspaces);
  w.key("memcmp_subspaces").value(result.populate_kernel.memcmp_subspaces);
  w.key("bitmap_subspaces").value(result.populate_kernel.bitmap_subspaces);
  w.key("block_records").value(result.populate_kernel.block_records);
  w.key("bitmap_bytes").value(result.populate_kernel.bitmap_bytes);
  w.key("bitmap_words_anded").value(result.populate_kernel.bitmap_words_anded);
  w.key("table_rows_max").value(result.populate_kernel.table_rows_max);
  w.key("table_bytes_max").value(result.populate_kernel.table_bytes_max);
  w.key("table_built_level").value(result.populate_kernel.table_built_level);
  w.key("table_fallback_ranks").value(result.populate_kernel.table_fallback_ranks);
  w.end_object();

  // Run total of the per-level unjoined-DU counts (additive in
  // pmafia-report-v1).
  w.key("unjoined_dus").value(result.total_unjoined_dus());

  // Which join kernel each level ran on and the globalized work counters —
  // the candidate-generation analogue of populate_kernel (additive in
  // pmafia-report-v1).
  w.key("join_kernel").begin_object();
  w.key("bucketed_levels").value(result.join_kernel.bucketed_levels);
  w.key("pairwise_levels").value(result.join_kernel.pairwise_levels);
  w.key("buckets").value(result.join_kernel.buckets);
  w.key("probes").value(result.join_kernel.probes);
  w.key("emitted").value(result.join_kernel.emitted);
  w.key("repeats_fused").value(result.join_kernel.repeats_fused);
  w.end_object();

  // Checkpoint/restart accounting (additive in pmafia-report-v1; all-zero
  // when checkpointing is disabled).
  w.key("recovery").begin_object();
  w.key("checkpoint_enabled").value(result.recovery.checkpoint_enabled);
  w.key("resumed").value(result.recovery.resumed);
  w.key("resume_level").value(result.recovery.resume_level);
  w.key("checkpoints_written").value(result.recovery.checkpoints_written);
  w.key("checkpoints_discarded").value(result.recovery.checkpoints_discarded);
  w.end_object();

  // Incremental-append accounting (additive in pmafia-report-v1; present
  // only for append runs so existing reports are byte-unchanged).
  if (result.append.performed) {
    w.key("append").begin_object();
    w.key("levels_reused").value(result.append.levels_reused);
    w.key("levels_rerun").value(result.append.levels_rerun);
    w.key("units_promoted").value(result.append.units_promoted);
    w.key("units_demoted").value(result.append.units_demoted);
    w.end_object();
  }

  // Per-phase view.  max_seconds is a cross-rank allreduce_max; min/mean
  // and the comm attribution come from the gathered per-rank trace and are
  // present only when the result carries it (parent rank).
  const bool have_trace = !result.trace.empty();
  w.key("phases").begin_array();
  for (const auto& [name, secs] : result.phases.phases()) {
    w.begin_object();
    w.key("name").value(name);
    w.key("max_seconds").value(secs);
    if (have_trace) {
      w.key("min_seconds").value(result.trace.min_seconds(name));
      w.key("mean_seconds").value(result.trace.mean_seconds(name));
      w.key("comm");
      write_comm(w, result.trace.phase_comm(name));
      w.key("io");
      write_io(w, result.trace.phase_io(name));
    }
    w.end_object();
  }
  w.end_array();

  w.key("per_rank").begin_array();
  for (int r = 0; r < result.trace.num_ranks(); ++r) {
    w.begin_object();
    w.key("rank").value(r);
    w.key("phases").begin_object();
    for (const auto& [name, ps] :
         result.trace.per_rank[static_cast<std::size_t>(r)]) {
      w.key(name).begin_object();
      w.key("seconds").value(ps.seconds);
      w.key("comm");
      write_comm(w, ps.comm);
      if (!ps.io.empty()) {
        w.key("io");
        write_io(w, ps.io);
      }
      w.end_object();
    }
    w.end_object();
    w.key("comm_total");
    write_comm(w, result.trace.rank_totals[static_cast<std::size_t>(r)]);
    w.end_object();
  }
  w.end_array();

  w.key("comm");
  write_comm(w, result.comm);

  // Job-wide chunked-scan accounting (zero when the result predates the
  // trace exchange).
  w.key("io").begin_object();
  w.key("total");
  write_io(w, result.trace.io_total());
  w.end_object();

  // Section 4.5: what the measured volume would cost on the model machine
  // (SP2 by default), next to the wall time actually spent inside comm
  // calls (summed over ranks, barrier waits included).
  w.key("cost_model").begin_object();
  w.key("latency_seconds").value(model.latency_seconds);
  w.key("bandwidth_bytes_per_sec").value(model.bandwidth_bytes_per_sec);
  w.key("predicted_seconds").value(model.communication_seconds(result.comm));
  w.key("measured_seconds").value(result.comm.comm_seconds);
  w.end_object();

  w.end_object();
  return w.str();
}

std::string render_serve_report_json(const ServeReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("pmafia-serve-v1");
  w.key("listen").value(report.listen);
  w.key("model").begin_object();
  w.key("path").value(report.model_path);
  w.key("dims").value(report.num_dims);
  w.key("clusters").value(report.num_clusters);
  w.end_object();
  w.key("config").begin_object();
  w.key("serve_threads").value(report.serve_threads);
  w.key("max_batch").value(report.max_batch);
  w.end_object();
  w.key("traffic").begin_object();
  w.key("connections").value(report.connections);
  w.key("batches").value(report.batches);
  w.key("rows").value(report.rows);
  w.key("noise_rows").value(report.noise_rows);
  w.key("rejected_frames").value(report.rejected_frames);
  w.key("oversized_batches").value(report.oversized_batches);
  w.key("midframe_disconnects").value(report.midframe_disconnects);
  w.key("model_reloads").value(report.model_reloads);
  w.key("reload_failures").value(report.reload_failures);
  w.end_object();
  w.key("elapsed_seconds").value(report.elapsed_seconds);
  w.key("queries_per_second").value(report.queries_per_second);
  w.key("batches_per_second").value(report.batches_per_second);
  w.key("latency_ms").begin_object();
  w.key("p50").value(report.latency.p50_ms);
  w.key("p90").value(report.latency.p90_ms);
  w.key("p99").value(report.latency.p99_ms);
  w.key("max").value(report.latency.max_ms);
  w.key("mean").value(report.latency.mean_ms);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string render_serve_report(const ServeReport& report) {
  std::ostringstream out;
  out << "pmafia serve @ " << report.listen << "\n";
  out << "  model: " << report.model_path << " (" << report.num_dims
      << " dims, " << report.num_clusters << " clusters)\n";
  out << "  config: " << report.serve_threads << " threads, max batch "
      << report.max_batch << "\n";
  out << "  traffic: " << report.connections << " connections, "
      << report.batches << " batches, " << report.rows << " rows ("
      << report.noise_rows << " noise)\n";
  out << "  rejects: " << report.rejected_frames << " malformed, "
      << report.oversized_batches << " oversized, "
      << report.midframe_disconnects << " mid-frame disconnects\n";
  out << "  reloads: " << report.model_reloads << " ok, "
      << report.reload_failures << " failed\n";
  out << std::fixed << std::setprecision(1);
  out << "  throughput: " << report.queries_per_second << " rows/s, "
      << report.batches_per_second << " batches/s over "
      << report.elapsed_seconds << " s\n";
  out << std::setprecision(3);
  out << "  latency ms: p50 " << report.latency.p50_ms << ", p90 "
      << report.latency.p90_ms << ", p99 " << report.latency.p99_ms
      << ", max " << report.latency.max_ms << ", mean "
      << report.latency.mean_ms << "\n";
  return out.str();
}

}  // namespace mafia
