#include "core/result_codec.hpp"

#include <array>

namespace mafia {

namespace {

constexpr std::uint32_t kWorkerResultVersion = 4;  // v4: io stats lose wait

}  // namespace

// ------------------------------------------------------- component codecs

void write_store(ByteWriter& w, const UnitStore& store) {
  w.pod(static_cast<std::uint64_t>(store.k()));
  w.vec(store.dim_bytes());
  w.vec(store.bin_bytes());
}

UnitStore read_store(ByteReader& r) {
  const auto k = r.pod<std::uint64_t>();
  auto dims = r.vec<DimId>();
  auto bins = r.vec<BinId>();
  return UnitStore::from_bytes(static_cast<std::size_t>(k), std::move(dims),
                               std::move(bins));
}

void write_grids(ByteWriter& w, const GridSet& grids) {
  w.pod(static_cast<std::uint64_t>(grids.num_dims()));
  for (const DimensionGrid& g : grids.dims) {
    w.pod(g.dim);
    w.pod(g.domain_lo);
    w.pod(g.domain_hi);
    w.vec(g.edges);
    w.vec(g.thresholds);
    w.pod(static_cast<std::uint8_t>(g.uniform_fallback ? 1 : 0));
  }
}

GridSet read_grids(ByteReader& r) {
  GridSet grids;
  const auto ndims = r.pod<std::uint64_t>();
  require_input(ndims <= kMaxDims,
                std::string(r.context) + ": bad grid dimension count");
  grids.dims.reserve(static_cast<std::size_t>(ndims));
  for (std::uint64_t i = 0; i < ndims; ++i) {
    DimensionGrid g;
    g.dim = r.pod<DimId>();
    g.domain_lo = r.pod<Value>();
    g.domain_hi = r.pod<Value>();
    g.edges = r.vec<Value>();
    g.thresholds = r.vec<double>();
    g.uniform_fallback = r.pod<std::uint8_t>() != 0;
    g.validate();
    grids.dims.push_back(std::move(g));
  }
  return grids;
}

void write_level_trace(ByteWriter& w, const LevelTrace& t) {
  w.pod(static_cast<std::uint64_t>(t.level));
  w.pod(static_cast<std::uint64_t>(t.ncdu_raw));
  w.pod(static_cast<std::uint64_t>(t.ncdu));
  w.pod(static_cast<std::uint64_t>(t.ndu));
  w.pod(t.count_checksum);
  w.pod(t.join_buckets);
  w.pod(t.join_probes);
  w.pod(t.join_emitted);
  w.pod(t.join_repeats_fused);
  w.pod(t.populate_kernel);
  w.pod(t.bitmap_bytes);
  w.pod(t.bitmap_words_anded);
  w.pod(t.unjoined_dus);
  w.pod(static_cast<std::uint64_t>(t.unjoined_units.size()));
  for (const std::string& u : t.unjoined_units) w.str(u);
}

LevelTrace read_level_trace(ByteReader& r) {
  LevelTrace t;
  t.level = static_cast<std::size_t>(r.pod<std::uint64_t>());
  t.ncdu_raw = static_cast<std::size_t>(r.pod<std::uint64_t>());
  t.ncdu = static_cast<std::size_t>(r.pod<std::uint64_t>());
  t.ndu = static_cast<std::size_t>(r.pod<std::uint64_t>());
  t.count_checksum = r.pod<std::uint64_t>();
  t.join_buckets = r.pod<std::uint64_t>();
  t.join_probes = r.pod<std::uint64_t>();
  t.join_emitted = r.pod<std::uint64_t>();
  t.join_repeats_fused = r.pod<std::uint64_t>();
  t.populate_kernel = r.pod<std::uint8_t>();
  t.bitmap_bytes = r.pod<std::uint64_t>();
  t.bitmap_words_anded = r.pod<std::uint64_t>();
  t.unjoined_dus = r.pod<std::uint64_t>();
  const auto nunjoined = r.pod<std::uint64_t>();
  require_input(nunjoined <= kMaxUnjoinedListed,
                std::string(r.context) +
                    ": implausible unjoined-unit list length");
  t.unjoined_units.reserve(static_cast<std::size_t>(nunjoined));
  for (std::uint64_t u = 0; u < nunjoined; ++u) {
    t.unjoined_units.push_back(r.str());
  }
  return t;
}

// ------------------------------------------------------ worker result blob

namespace {

void write_comm_stats(ByteWriter& w, const mp::CommStats& s) {
  for (const std::uint64_t word : s.serialize()) w.pod(word);
}

mp::CommStats read_comm_stats(ByteReader& r) {
  std::array<std::uint64_t, mp::CommStats::kSerializedWords> words;
  for (std::uint64_t& word : words) word = r.pod<std::uint64_t>();
  return mp::CommStats::deserialize(words.data());
}

void write_phase_stats(ByteWriter& w, const PhaseStats& ps) {
  w.pod(ps.seconds);
  write_comm_stats(w, ps.comm);
  w.pod(ps.io.chunks);
  w.pod(ps.io.bytes);
  w.pod(ps.io.read_seconds);
  w.pod(ps.io.compute_seconds);
  w.pod(ps.io.scan_seconds);
}

PhaseStats read_phase_stats(ByteReader& r) {
  PhaseStats ps;
  ps.seconds = r.pod<double>();
  ps.comm = read_comm_stats(r);
  ps.io.chunks = r.pod<std::uint64_t>();
  ps.io.bytes = r.pod<std::uint64_t>();
  ps.io.read_seconds = r.pod<double>();
  ps.io.compute_seconds = r.pod<double>();
  ps.io.scan_seconds = r.pod<double>();
  return ps;
}

void write_phase_map(ByteWriter& w, const PhaseMap& m) {
  w.pod(static_cast<std::uint64_t>(m.size()));
  for (const auto& [name, ps] : m) {
    w.str(name);
    write_phase_stats(w, ps);
  }
}

PhaseMap read_phase_map(ByteReader& r) {
  const auto n = r.pod<std::uint64_t>();
  require_input(n <= 1u << 12,
                std::string(r.context) + ": implausible phase count");
  PhaseMap m;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    m[name] = read_phase_stats(r);
  }
  return m;
}

constexpr std::uint64_t kMaxRanksInBlob = 1u << 16;

}  // namespace

std::vector<std::uint8_t> serialize_worker_result(const WorkerResult& wr) {
  ByteWriter w;
  w.pod(kWorkerResultVersion);
  write_grids(w, wr.grids);
  w.pod(static_cast<std::uint64_t>(wr.levels.size()));
  for (const LevelTrace& t : wr.levels) write_level_trace(w, t);
  // The populate ledger fields stay out of write_level_trace: they are
  // globalized only at the end of a run, so checkpoints never carry them.
  for (const LevelTrace& t : wr.levels) {
    w.pod(t.populate_source);
    w.pod(t.populate_rows);
  }
  w.pod(static_cast<std::uint64_t>(wr.registered.size()));
  for (const UnitStore& store : wr.registered) write_store(w, store);
  w.pod(static_cast<std::uint64_t>(wr.trace.per_rank.size()));
  for (const PhaseMap& m : wr.trace.per_rank) write_phase_map(w, m);
  w.pod(static_cast<std::uint64_t>(wr.trace.rank_totals.size()));
  for (const mp::CommStats& s : wr.trace.rank_totals) write_comm_stats(w, s);
  w.pod(static_cast<std::uint64_t>(wr.trace.max_phases.phases().size()));
  for (const auto& [name, secs] : wr.trace.max_phases.phases()) {
    w.str(name);
    w.pod(secs);
  }
  w.pod(static_cast<std::uint64_t>(wr.populate.packed_sorted_subspaces));
  w.pod(static_cast<std::uint64_t>(wr.populate.packed_hash_subspaces));
  w.pod(static_cast<std::uint64_t>(wr.populate.memcmp_subspaces));
  w.pod(static_cast<std::uint64_t>(wr.populate.bitmap_subspaces));
  w.pod(static_cast<std::uint64_t>(wr.populate.block_records));
  w.pod(static_cast<std::uint64_t>(wr.populate.bitmap_bytes));
  w.pod(static_cast<std::uint64_t>(wr.populate.bitmap_words_anded));
  w.pod(static_cast<std::uint64_t>(wr.populate.table_rows_max));
  w.pod(static_cast<std::uint64_t>(wr.populate.table_bytes_max));
  w.pod(static_cast<std::uint64_t>(wr.populate.table_built_level));
  w.pod(static_cast<std::uint64_t>(wr.populate.table_fallback_ranks));
  w.pod(wr.join_kernel.bucketed_levels);
  w.pod(wr.join_kernel.pairwise_levels);
  w.pod(wr.join_kernel.buckets);
  w.pod(wr.join_kernel.probes);
  w.pod(wr.join_kernel.emitted);
  w.pod(wr.join_kernel.repeats_fused);
  w.pod(static_cast<std::uint8_t>(wr.recovery.checkpoint_enabled));
  w.pod(static_cast<std::uint8_t>(wr.recovery.resumed));
  w.pod(static_cast<std::uint64_t>(wr.recovery.resume_level));
  w.pod(static_cast<std::uint64_t>(wr.recovery.checkpoints_written));
  w.pod(static_cast<std::uint64_t>(wr.recovery.checkpoints_discarded));
  w.pod(static_cast<std::uint8_t>(wr.append.performed));
  w.pod(wr.append.levels_reused);
  w.pod(wr.append.levels_rerun);
  w.pod(wr.append.units_promoted);
  w.pod(wr.append.units_demoted);
  return std::move(w.out);
}

WorkerResult deserialize_worker_result(const std::uint8_t* data,
                                       std::size_t size) {
  ByteReader r{data, size, 0, "mp result"};
  WorkerResult wr;
  try {
    const auto version = r.pod<std::uint32_t>();
    require(version == kWorkerResultVersion,
            "mp result: unsupported blob version " + std::to_string(version));
    wr.grids = read_grids(r);
    const auto nlevels = r.pod<std::uint64_t>();
    require_input(nlevels <= 1u << 16, "mp result: implausible level count");
    wr.levels.reserve(static_cast<std::size_t>(nlevels));
    for (std::uint64_t i = 0; i < nlevels; ++i) {
      wr.levels.push_back(read_level_trace(r));
    }
    for (LevelTrace& t : wr.levels) {
      t.populate_source = r.pod<std::uint8_t>();
      t.populate_rows = r.pod<std::uint64_t>();
    }
    const auto nregistered = r.pod<std::uint64_t>();
    require_input(nregistered <= 1u << 16,
                  "mp result: implausible registered-store count");
    wr.registered.reserve(static_cast<std::size_t>(nregistered));
    for (std::uint64_t i = 0; i < nregistered; ++i) {
      wr.registered.push_back(read_store(r));
    }
    const auto nranks = r.pod<std::uint64_t>();
    require_input(nranks <= kMaxRanksInBlob,
                  "mp result: implausible rank count");
    wr.trace.per_rank.reserve(static_cast<std::size_t>(nranks));
    for (std::uint64_t i = 0; i < nranks; ++i) {
      wr.trace.per_rank.push_back(read_phase_map(r));
    }
    const auto ntotals = r.pod<std::uint64_t>();
    require_input(ntotals <= kMaxRanksInBlob,
                  "mp result: implausible rank-total count");
    wr.trace.rank_totals.reserve(static_cast<std::size_t>(ntotals));
    for (std::uint64_t i = 0; i < ntotals; ++i) {
      wr.trace.rank_totals.push_back(read_comm_stats(r));
    }
    const auto nmax = r.pod<std::uint64_t>();
    require_input(nmax <= 1u << 12, "mp result: implausible phase count");
    for (std::uint64_t i = 0; i < nmax; ++i) {
      std::string name = r.str();
      wr.trace.max_phases.add(name, r.pod<double>());
    }
    wr.populate.packed_sorted_subspaces =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.packed_hash_subspaces =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.memcmp_subspaces =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.bitmap_subspaces =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.block_records =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.bitmap_bytes =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.bitmap_words_anded =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.table_rows_max =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.table_bytes_max =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.table_built_level =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.populate.table_fallback_ranks =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.join_kernel.bucketed_levels = r.pod<std::uint64_t>();
    wr.join_kernel.pairwise_levels = r.pod<std::uint64_t>();
    wr.join_kernel.buckets = r.pod<std::uint64_t>();
    wr.join_kernel.probes = r.pod<std::uint64_t>();
    wr.join_kernel.emitted = r.pod<std::uint64_t>();
    wr.join_kernel.repeats_fused = r.pod<std::uint64_t>();
    wr.recovery.checkpoint_enabled = r.pod<std::uint8_t>() != 0;
    wr.recovery.resumed = r.pod<std::uint8_t>() != 0;
    wr.recovery.resume_level =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.recovery.checkpoints_written =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.recovery.checkpoints_discarded =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    wr.append.performed = r.pod<std::uint8_t>() != 0;
    wr.append.levels_reused = r.pod<std::uint64_t>();
    wr.append.levels_rerun = r.pod<std::uint64_t>();
    wr.append.units_promoted = r.pod<std::uint64_t>();
    wr.append.units_demoted = r.pod<std::uint64_t>();
    require_input(r.at == r.size, "mp result: trailing garbage after payload");
  } catch (const Error& e) {
    // The blob never touches disk or the user: any parse failure is a
    // transport or codec bug, so the class is Internal regardless of how
    // the reader classified it.
    throw Error(std::string("mp result: invalid worker result blob: ") +
                    e.what(),
                ErrorClass::Internal);
  }
  return wr;
}

}  // namespace mafia
