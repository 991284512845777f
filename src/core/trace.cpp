#include "core/trace.hpp"

#include <limits>

#include "common/error.hpp"
#include "mp/comm.hpp"

namespace mafia {

PhaseTimer PhaseTracer::timer() const {
  PhaseTimer t;
  for (const auto& [name, ps] : phases_) t.add(name, ps.seconds);
  return t;
}

std::vector<std::string> RunTrace::phase_names() const {
  // std::map keeps each rank's names sorted; the union stays sorted too.
  std::map<std::string, bool> seen;
  for (const auto& [name, secs] : max_phases.phases()) seen[name] = true;
  for (const PhaseMap& rank : per_rank) {
    for (const auto& [name, ps] : rank) seen[name] = true;
  }
  std::vector<std::string> names;
  names.reserve(seen.size());
  for (const auto& [name, unused] : seen) names.push_back(name);
  return names;
}

double RunTrace::max_seconds(const std::string& phase) const {
  return max_phases.get(phase);
}

double RunTrace::min_seconds(const std::string& phase) const {
  double lo = std::numeric_limits<double>::infinity();
  for (const PhaseMap& rank : per_rank) {
    const auto it = rank.find(phase);
    lo = std::min(lo, it == rank.end() ? 0.0 : it->second.seconds);
  }
  return per_rank.empty() ? 0.0 : lo;
}

double RunTrace::mean_seconds(const std::string& phase) const {
  if (per_rank.empty()) return 0.0;
  double sum = 0.0;
  for (const PhaseMap& rank : per_rank) {
    const auto it = rank.find(phase);
    if (it != rank.end()) sum += it->second.seconds;
  }
  return sum / static_cast<double>(per_rank.size());
}

PhaseStats RunTrace::rank_phase(int rank, const std::string& phase) const {
  require(rank >= 0 && rank < num_ranks(), "RunTrace: bad rank");
  const PhaseMap& m = per_rank[static_cast<std::size_t>(rank)];
  const auto it = m.find(phase);
  return it == m.end() ? PhaseStats{} : it->second;
}

mp::CommStats RunTrace::phase_comm(const std::string& phase) const {
  mp::CommStats total;
  for (const PhaseMap& rank : per_rank) {
    const auto it = rank.find(phase);
    if (it != rank.end()) total.merge(it->second.comm);
  }
  return total;
}

IoScanStats RunTrace::phase_io(const std::string& phase) const {
  IoScanStats total;
  for (const PhaseMap& rank : per_rank) {
    const auto it = rank.find(phase);
    if (it != rank.end()) total.merge(it->second.io);
  }
  return total;
}

IoScanStats RunTrace::io_total() const {
  IoScanStats total;
  for (const PhaseMap& rank : per_rank) {
    for (const auto& [name, ps] : rank) total.merge(ps.io);
  }
  return total;
}

mp::CommStats RunTrace::comm_total() const {
  mp::CommStats total;
  for (const mp::CommStats& s : rank_totals) total.merge(s);
  return total;
}

RunTrace exchange_trace(const PhaseTracer& tracer, mp::Comm& comm,
                        std::span<const std::uint64_t> annotations,
                        std::vector<std::uint64_t>* gathered) {
  // Per-phase serialization: the CommStats words followed by the
  // IoScanStats words, one fixed-width block per phase.
  constexpr std::size_t kCommWords = mp::CommStats::kSerializedWords;
  constexpr std::size_t kWords = kCommWords + IoScanStats::kSerializedWords;

  // Snapshot this rank's totals BEFORE the instrumentation traffic below,
  // so the reported totals equal the sum of the per-phase deltas.
  const mp::CommStats totals = comm.stats();

  // Serialize this rank's phases in sorted-name order (identical on every
  // rank — the driver's phase structure depends only on replicated state).
  std::vector<double> seconds;
  std::vector<std::uint64_t> words;
  seconds.reserve(tracer.phases().size());
  words.reserve(tracer.phases().size() * kWords);
  for (const auto& [name, ps] : tracer.phases()) {
    seconds.push_back(ps.seconds);
    const auto packed = ps.comm.serialize();
    words.insert(words.end(), packed.begin(), packed.end());
    const auto io_packed = ps.io.serialize();
    words.insert(words.end(), io_packed.begin(), io_packed.end());
  }
  words.insert(words.end(), annotations.begin(), annotations.end());

  // Every rank learns the cross-rank per-phase maxima (the slowest rank
  // bounds the job); the full breakdown is gathered onto the parent.
  std::vector<double> max_seconds = seconds;
  comm.allreduce_max(max_seconds);
  const std::vector<double> all_seconds = comm.gatherv(seconds);
  const std::vector<std::uint64_t> all_words = comm.gatherv(words);
  const auto packed_totals = totals.serialize();
  const std::vector<std::uint64_t> all_totals = comm.gatherv(
      std::vector<std::uint64_t>(packed_totals.begin(), packed_totals.end()));

  RunTrace trace;
  std::size_t i = 0;
  for (const auto& [name, ps] : tracer.phases()) {
    trace.max_phases.add(name, max_seconds[i++]);
  }

  if (!comm.is_parent()) return trace;

  const auto p = static_cast<std::size_t>(comm.size());
  const std::size_t np = tracer.phases().size();
  const std::size_t rank_words = np * kWords + annotations.size();
  require(all_seconds.size() == p * np &&
              all_words.size() == p * rank_words &&
              all_totals.size() == p * kCommWords,
          "exchange_trace: ranks disagree on the phase structure");

  trace.per_rank.resize(p);
  trace.rank_totals.resize(p);
  for (std::size_t r = 0; r < p; ++r) {
    PhaseMap& phases = trace.per_rank[r];
    std::size_t k = 0;
    for (const auto& [name, ps] : tracer.phases()) {
      PhaseStats rs;
      rs.seconds = all_seconds[r * np + k];
      const std::uint64_t* block =
          all_words.data() + r * rank_words + k * kWords;
      rs.comm = mp::CommStats::deserialize(block);
      rs.io = IoScanStats::deserialize(block + kCommWords);
      phases.emplace(name, rs);
      ++k;
    }
    trace.rank_totals[r] =
        mp::CommStats::deserialize(all_totals.data() + r * kCommWords);
    if (gathered != nullptr) {
      const auto* own = all_words.data() + r * rank_words + np * kWords;
      gathered->insert(gathered->end(), own, own + annotations.size());
    }
  }
  return trace;
}

}  // namespace mafia
