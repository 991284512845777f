// pbtool: the benchmark's helper program.  run.py drives the pmafia CLI for
// every timed operation; pbtool supplies what the CLI does not: the layer
// replay of the traced run, the closed-loop serve clients, a record-file
// concatenation for the append oracle, and the machine context.
//
//   pbtool machine
//   pbtool concat --out F --a A --b B
//   pbtool wait-ready --listen EP [--timeout S]
//   pbtool serve-load --listen EP --data F --model M --pid PID [--seconds S]
//   pbtool trace --data F --batch F2 --work DIR --trace-out T.json
//                [--replay base|combined] [--domain-lo L --domain-hi H]
//
// Every subcommand prints one JSON line on stdout.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "io/record_file.hpp"
#include "machine.hpp"

namespace perfbench {

int cmd_trace(const Args& args);
int cmd_serve_load(const Args& args);
int cmd_wait_ready(const Args& args);

namespace {

int cmd_machine() {
  const MachineContext m = probe_machine();
  JsonLine out;
  out.num("nproc", static_cast<double>(m.nproc))
      .num("llc_mb", static_cast<double>(m.llc_bytes) / 1048576.0)
      .num("stream_array_mb", static_cast<double>(m.array_bytes) / 1048576.0)
      .num("stream_gb_per_s", m.stream_gb_per_s);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int cmd_concat(const Args& args) {
  mafia::Dataset all = mafia::read_record_file(args.need("a"));
  all.append_rows(mafia::read_record_file(args.need("b")));
  mafia::write_record_file(args.need("out"), all, /*with_labels=*/true);
  std::printf("%s\n", JsonLine().num("records", static_cast<double>(all.num_records())).str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fputs("usage: pbtool <machine|concat|wait-ready|serve-load|trace> [--flag value]...\n", stderr);
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args(argc, argv, 2);
    if (cmd == "machine") return cmd_machine();
    if (cmd == "concat") return cmd_concat(args);
    if (cmd == "wait-ready") return cmd_wait_ready(args);
    if (cmd == "serve-load") return cmd_serve_load(args);
    if (cmd == "trace") return cmd_trace(args);
    std::fprintf(stderr, "pbtool: unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbtool: %s\n", e.what());
    return 1;
  }
}
