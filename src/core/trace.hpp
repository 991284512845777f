// Per-rank, per-phase run tracing — the observability layer behind the
// structured run reports.
//
// The paper's quantitative claims (near-linear speedup, the Section 4.5
// cost model, "negligible communication overhead") are all statements
// about WHERE time and bytes go: which phase, on which rank.  A PhaseTracer
// rides along with each SPMD rank, timing the driver's phases and
// snapshotting the rank's mp::CommStats at every phase boundary so each
// reduce/bcast/gather is attributed to the phase that issued it.  At the
// end of the run the per-rank tracers are globalized (gatherv of the
// serialized records plus an allreduce_max of the phase seconds) into a
// RunTrace: the true cross-rank picture, carried on MafiaResult and
// rendered by render_report / render_report_json.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "mp/stats.hpp"

namespace mafia {

namespace mp {
class Comm;
}  // namespace mp

/// I/O accounting for one or more chunked scans (MafiaWorker::scan_local):
/// `compute_seconds` is time inside the consumer callback and
/// `read_seconds` is the rest of the scan — reading and validating chunks.
struct IoScanStats {
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;  ///< value bytes delivered to the callback
  double read_seconds = 0.0;
  double compute_seconds = 0.0;
  double scan_seconds = 0.0;  ///< whole-scan wall time

  void merge(const IoScanStats& other) {
    chunks += other.chunks;
    bytes += other.bytes;
    read_seconds += other.read_seconds;
    compute_seconds += other.compute_seconds;
    scan_seconds += other.scan_seconds;
  }

  /// Fixed-width serialization for the trace exchange (doubles bit-cast to
  /// preserve exact values across the gather).
  static constexpr std::size_t kSerializedWords = 5;
  [[nodiscard]] std::array<std::uint64_t, kSerializedWords> serialize() const {
    return {chunks, bytes, std::bit_cast<std::uint64_t>(read_seconds),
            std::bit_cast<std::uint64_t>(compute_seconds),
            std::bit_cast<std::uint64_t>(scan_seconds)};
  }
  [[nodiscard]] static IoScanStats deserialize(const std::uint64_t* words) {
    IoScanStats s;
    s.chunks = words[0];
    s.bytes = words[1];
    s.read_seconds = std::bit_cast<double>(words[2]);
    s.compute_seconds = std::bit_cast<double>(words[3]);
    s.scan_seconds = std::bit_cast<double>(words[4]);
    return s;
  }

  [[nodiscard]] bool empty() const { return chunks == 0 && scan_seconds == 0.0; }
};

/// Wall seconds plus communication-counter deltas and chunked-scan I/O
/// accounting for one phase on one rank.  The comm deltas of all phases sum
/// to the rank's totals because every collective the driver issues happens
/// inside some phase scope; `io` is nonzero only for the phases that scan
/// data (histogram, populate).
struct PhaseStats {
  double seconds = 0.0;
  mp::CommStats comm;
  IoScanStats io;

  void merge(const PhaseStats& other) {
    seconds += other.seconds;
    comm.merge(other.comm);
    io.merge(other.io);
  }
};

/// Phase name -> accumulated stats, for one rank.
using PhaseMap = std::map<std::string, PhaseStats>;

/// Per-rank accumulator.  Construct with a pointer to the rank's live
/// CommStats (nullptr for comm-less callers); open a Scope around each
/// phase.  Scopes accumulate: re-entering a phase name adds to it.
class PhaseTracer {
 public:
  explicit PhaseTracer(const mp::CommStats* live = nullptr) : live_(live) {}

  /// RAII phase scope: times the enclosed block and attributes the comm
  /// counter movement inside it to `phase`.
  class Scope {
   public:
    Scope(PhaseTracer& tracer, std::string phase)
        : tracer_(tracer),
          phase_(std::move(phase)),
          at_entry_(tracer.live_ ? *tracer.live_ : mp::CommStats{}) {}

    ~Scope() {
      PhaseStats ps;
      ps.seconds = clock_.seconds();
      if (tracer_.live_ != nullptr) {
        ps.comm = tracer_.live_->delta_since(at_entry_);
      }
      tracer_.phases_[phase_].merge(ps);
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseTracer& tracer_;
    std::string phase_;
    mp::CommStats at_entry_;
    Timer clock_;
  };

  [[nodiscard]] const PhaseMap& phases() const { return phases_; }

  /// Attributes one chunked scan's I/O accounting to `phase` (accumulates,
  /// like re-entered Scopes do for seconds).
  void add_io(const std::string& phase, const IoScanStats& io) {
    phases_[phase].io.merge(io);
  }

  /// Seconds-only view in the legacy PhaseTimer shape.
  [[nodiscard]] PhaseTimer timer() const;

 private:
  const mp::CommStats* live_;
  PhaseMap phases_;
};

/// The globalized cross-rank trace of one run.  `max_phases` is filled on
/// every rank (via allreduce_max); the full per-rank breakdown and totals
/// are gathered onto the parent rank only — exactly the paper's "parent
/// processor owns the printable result" convention.
struct RunTrace {
  /// Per-rank phase breakdown, indexed by rank (parent rank only; empty
  /// elsewhere and on results that predate the exchange).
  std::vector<PhaseMap> per_rank;

  /// Per-rank CommStats totals snapshot taken after the last algorithm
  /// phase and before the trace exchange itself — so the per-phase deltas
  /// sum exactly to these totals (parent rank only).
  std::vector<mp::CommStats> rank_totals;

  /// Per-phase wall seconds, max across ranks (every rank).
  PhaseTimer max_phases;

  [[nodiscard]] bool empty() const { return per_rank.empty(); }
  [[nodiscard]] int num_ranks() const { return static_cast<int>(per_rank.size()); }

  /// Sorted union of phase names across ranks.
  [[nodiscard]] std::vector<std::string> phase_names() const;

  /// Cross-rank seconds statistics for one phase (max is available on all
  /// ranks; min/mean need the gathered per-rank data).
  [[nodiscard]] double max_seconds(const std::string& phase) const;
  [[nodiscard]] double min_seconds(const std::string& phase) const;
  [[nodiscard]] double mean_seconds(const std::string& phase) const;

  /// One rank's stats for one phase (zeros if absent).
  [[nodiscard]] PhaseStats rank_phase(int rank, const std::string& phase) const;

  /// Comm counters attributed to one phase, summed over ranks.
  [[nodiscard]] mp::CommStats phase_comm(const std::string& phase) const;

  /// I/O accounting attributed to one phase, summed over ranks.
  [[nodiscard]] IoScanStats phase_io(const std::string& phase) const;

  /// Job-wide chunked-scan I/O totals: every phase's io summed over ranks
  /// (parent rank only — zeros on results that predate the exchange).
  [[nodiscard]] IoScanStats io_total() const;

  /// Job-wide comm totals: the sum of the per-rank snapshots (excludes the
  /// trace exchange's own instrumentation traffic).
  [[nodiscard]] mp::CommStats comm_total() const;
};

/// Collective: globalizes every rank's tracer into a RunTrace.  Must be
/// called by all ranks, after the last algorithm phase.  All ranks must
/// have recorded the same phase-name set (the driver guarantees this: every
/// branch depends on globally replicated state); the collectives' length
/// checks enforce it.  The exchange's own collectives are deliberately not
/// attributed to any phase and excluded from the trace's totals.
///
/// `annotations` are caller-defined words (the same count on every rank)
/// that ride the phase-record gather, so they cost no extra collective; on
/// the parent, `*gathered` receives every rank's words, rank-major.
[[nodiscard]] RunTrace exchange_trace(
    const PhaseTracer& tracer, mp::Comm& comm,
    std::span<const std::uint64_t> annotations = {},
    std::vector<std::uint64_t>* gathered = nullptr);

}  // namespace mafia
