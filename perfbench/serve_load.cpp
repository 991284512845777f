// `pbtool serve-load` and `pbtool wait-ready`: closed-loop load against a
// running `pmafia serve` daemon.  Each client thread sends the next 512-row
// batch only after the previous answer arrived; every answer is compared
// with offline assign_members labels.  The main thread republishes the
// model file (temp + rename, same bytes) and sends the daemon SIGHUP on a
// fixed period, so reads run beside model-cache writes.
#include <signal.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "common.hpp"
#include "core/model_io.hpp"
#include "io/data_source.hpp"
#include "io/record_file.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace perfbench {
namespace {

using namespace mafia;

/// Polls the endpoint until it answers a Stats frame; false on timeout.
bool wait_until_ready(const std::string& endpoint, double timeout_s) {
  const double deadline = now_seconds() + timeout_s;
  while (now_seconds() < deadline) {
    try {
      serve::ServeClient client(endpoint);
      if (!client.stats_json().empty()) return true;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return false;
}

/// The integer after "\"key\": " in a flat JSON text, or -1.
long long json_int(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return -1;
  const auto colon = json.find(':', at);
  return colon == std::string::npos ? -1 : std::atoll(json.c_str() + colon + 1);
}

constexpr std::size_t kClients = 2;
constexpr std::size_t kBatchRows = 512;
constexpr double kReloadSeconds = 0.1;

struct ClientTally {
  std::vector<double> rtt;  ///< round trip of each answered batch
  std::uint64_t attempts = 0;
  std::uint64_t rows = 0;
  std::uint64_t noise_rows = 0;
  std::uint64_t failed = 0;  ///< error frames, dropped connections, wrong labels
};

void run_client(const std::string& endpoint, const Dataset& data,
                const std::vector<std::int32_t>& offline, std::size_t first_row, double t_end, ClientTally& tally) {
  const std::size_t d = data.num_dims();
  const auto rows = static_cast<std::size_t>(data.num_records());
  std::unique_ptr<serve::ServeClient> client;
  std::size_t at = first_row;
  while (now_seconds() < t_end) {
    serve::QueryBatch q;
    q.num_dims = static_cast<std::uint32_t>(d);
    const auto begin = data.values().begin() + static_cast<std::ptrdiff_t>(at * d);
    q.values.assign(begin, begin + static_cast<std::ptrdiff_t>(kBatchRows * d));
    ++tally.attempts;
    const double t0 = now_seconds();
    try {
      if (!client) client = std::make_unique<serve::ServeClient>(endpoint);
      const std::vector<serve::RowAnswer> got = client->query(q);
      tally.rtt.push_back(now_seconds() - t0);
      bool same = got.size() == kBatchRows;
      for (std::size_t r = 0; same && r < kBatchRows; ++r) same = got[r].label == offline[at + r];
      for (const serve::RowAnswer& a : got) tally.noise_rows += a.label == kNoiseLabel ? 1 : 0;
      tally.rows += got.size();
      tally.failed += same ? 0 : 1;
    } catch (const std::exception&) {
      ++tally.failed;
      client.reset();  // reconnect on the next batch
    }
    at = at + 2 * kBatchRows <= rows ? at + kBatchRows : 0;
  }
}

}  // namespace

int cmd_wait_ready(const Args& args) {
  return wait_until_ready(args.need("listen"), args.num("timeout", 30.0)) ? 0 : 1;
}

int cmd_serve_load(const Args& args) {
  const std::string endpoint = args.need("listen");
  const std::string model_path = args.need("model");
  const auto pid = static_cast<pid_t>(args.num("pid", 0));
  const double seconds = args.num("seconds", 10.0);

  const Dataset data = read_record_file(args.need("data"));
  const Model model = load_model(model_path);
  const std::vector<std::int32_t> offline =
      assign_members(InMemorySource(data), model.clusters, model.grids);
  std::string model_bytes;
  {
    std::ifstream in(model_path, std::ios::binary);
    model_bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  if (!wait_until_ready(endpoint, 30.0)) {
    std::fprintf(stderr, "serve-load: %s never answered a Stats frame\n", endpoint.c_str());
    return 1;
  }
  const std::uint64_t reloads_before =
      static_cast<std::uint64_t>(json_int(serve::ServeClient(endpoint).stats_json(), "model_reloads"));

  // The clock starts once the daemon has answered.
  const double t0 = now_seconds();
  const double t_end = t0 + seconds;
  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> threads;
  const auto stride = static_cast<std::size_t>(data.num_records()) / kClients / kBatchRows * kBatchRows;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(run_client, std::cref(endpoint), std::cref(data), std::cref(offline),
                         c * stride, t_end, std::ref(tallies[c]));
  }
  std::uint64_t reloads_sent = 0;
  std::uint64_t republish_failures = 0;
  const std::string tmp = model_path + ".republish";
  for (double next = t0 + kReloadSeconds; next < t_end; next += kReloadSeconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(next - now_seconds()));
    std::error_code ec;
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out << model_bytes;
    }
    std::filesystem::rename(tmp, model_path, ec);
    if (ec || pid <= 0 || ::kill(pid, SIGHUP) != 0) {
      ++republish_failures;
      continue;
    }
    ++reloads_sent;
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = now_seconds() - t0;

  ClientTally all;
  for (const ClientTally& t : tallies) {
    all.rtt.insert(all.rtt.end(), t.rtt.begin(), t.rtt.end());
    all.attempts += t.attempts;
    all.rows += t.rows;
    all.noise_rows += t.noise_rows;
    all.failed += t.failed;
  }
  // Let the last SIGHUP land before reading the reload counter.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const long long reloads_after = json_int(serve::ServeClient(endpoint).stats_json(), "model_reloads");

  JsonLine out;
  out.num("batches", static_cast<double>(all.attempts))
      .num("attempted", static_cast<double>(all.attempts + reloads_sent + republish_failures))
      .num("failed", static_cast<double>(all.failed + republish_failures))
      .num("rows", static_cast<double>(all.rows))
      .num("noise_rows", static_cast<double>(all.noise_rows))
      .num("elapsed_s", elapsed)
      .num("rows_per_s", static_cast<double>(all.rows) / elapsed)
      .num("p50_ms", 1e3 * percentile(all.rtt, 50.0))
      .num("p90_ms", 1e3 * percentile(all.rtt, 90.0))
      .num("p99_ms", 1e3 * percentile(all.rtt, 99.0))
      .num("reloads_sent", static_cast<double>(reloads_sent))
      .num("reloads_done", static_cast<double>(reloads_after - static_cast<long long>(reloads_before)));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
