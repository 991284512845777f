#!/usr/bin/env python3
"""pMAFIA benchmark: time-to-model on two 1M-record builds, a drift append,
and serving under model reloads, plus a traced layer replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planted-1m --seed 1 --seconds 20 --trace 0

The script builds `pmafia` and the helper `pbtool` from the checkout's
sources (CMake, Release) into `.bench_build/`, generates the workload's
inputs from --seed with `pmafia generate`, and passes only files to the
program.  With --trace 0 it times the workload's operation and prints the
end-to-end metrics; with --trace 1 it runs `pbtool trace` and prints the
per-layer metrics.  Every operation is checked (see README.md); the last
stdout line is the JSON result.  The serve-reload workload runs the same
way but is not listed in BENCHMARK.json (README.md says why).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
PMAFIA = BUILD / "pmafia"
PBTOOL = BUILD / "pbtool"

DEFAULT_SEED = 1
RANKS = "4"
SETUP_REPS = 3
MIN_OPS = 3  # timed operations per run, even past --seconds
RECORDS = 1_000_000
BATCH_RECORDS = 10_000  # 1% of RECORDS, before the generator's 10% noise
DRIFT_DOMAIN = ["--domain-lo", "0", "--domain-hi", "100"]

PLANTED = ["0,3,7,11,15,19:20:30", "2,5,9,13,17,21:50:60",
           "4,8,12,16,20,24,26,28:70:80"]
# Four 4%-wide boxes at offsets 4, 28, 52, 76 in each of three disjoint
# 8-dim subspaces (dims = 0, 1, 2 mod 3).
SCATTERED = [",".join(str(d) for d in range(r, 24, 3)) + f":{o}:{o + 4}"
             for r in range(3) for o in (4, 28, 52, 76)]


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def log(msg):
    print(msg, flush=True)


def run(cmd):
    """Runs a helper command; returns its stdout.  Raises BenchError."""
    p = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} {cmd[1]} exited "
                         f"{p.returncode}: {p.stderr.strip()[-400:]}")
    return p.stdout


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def timed_child(cmd, log_path):
    """Runs the program under test.  Returns (wall seconds, peak RSS in MB,
    exit code); output goes to log_path so no pipe can stall the child."""
    with open(log_path, "w") as f:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(c) for c in cmd], stdout=f, stderr=f)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, p.returncode


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "pmafia_cli.cpp").is_file():
        raise BenchError("run from the root of a pMAFIA checkout: src/ and "
                         "tools/ are missing")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        run(["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
         "--target", "pmafia", "pbtool"])


def warm(*paths):
    """Reads files once so timed runs start with the page cache warm."""
    for path in paths:
        with open(path, "rb") as f:
            while f.read(1 << 23):
                pass


def generate(out, dims, clusters, seed, records=RECORDS):
    cmd = [PMAFIA, "generate", "--out", out, "--dims", str(dims),
           "--records", str(records), "--seed", str(seed)]
    for c in clusters:
        cmd += ["--cluster", c]
    run(cmd)


def generate_drift(base, batch, seed):
    run([PMAFIA, "generate", "--workload", "drift", "--records", str(RECORDS),
         "--append-records", str(BATCH_RECORDS), "--out", base,
         "--append-out", batch, "--seed", str(seed)])


def report_signature(report_path):
    """Per-level count checksums and cluster DNFs of a pmafia report."""
    r = json.loads(Path(report_path).read_text())
    return {"checksums": [lv["count_checksum"] for lv in r["levels"]],
            "clusters": [c["dnf"] for c in r["clusters"]]}


class Workload:
    """One benchmark workload: setup() makes inputs (repeated SETUP_REPS
    times for setup_s), measure() times operations for the run's seconds,
    trace_args() names the files and options of the traced run."""

    pin_key = None

    def __init__(self, name, seed, work):
        self.name, self.seed, self.work = name, seed, work
        self.attempted = self.failed = 0
        self.failures = []
        self.pins = json.loads((BENCH / "expected.json").read_text())

    def tally(self, attempted, failed, what):
        """Counts `attempted` checked operations, `failed` of them wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    def check(self, ok, what):
        self.tally(1, 0 if ok else 1, what)

    def check_signature(self, sig, reference, what):
        """Determinism against the run's first result, and the pinned result
        for the default seed."""
        self.check(sig == reference, f"{what}: differs from the first result")
        if self.seed == DEFAULT_SEED:
            self.check(sig == self.pins[self.pin_key or self.name],
                       f"{what}: differs from the pinned default-seed result")

    def path(self, name):
        return self.work / name

    def teardown(self):
        pass


class BuildWorkload(Workload):
    """planted-1m / scattered-1m: `pmafia cluster --ranks 4 --save`."""

    def __init__(self, name, seed, work, dims, clusters):
        super().__init__(name, seed, work)
        self.dims, self.clusters = dims, clusters
        self.records = int(RECORDS * 1.1)  # the generator adds 10% noise rows

    def setup(self, trace):
        generate(self.path("data.bin"), self.dims, self.clusters, self.seed)
        warm(self.path("data.bin"))
        if trace:
            generate(self.path("batch.bin"), self.dims, self.clusters,
                     self.seed + 1, BATCH_RECORDS)

    def measure(self, seconds):
        walls, rss, first, first_model = [], [], None, None
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(walls) < MIN_OPS:
            i = len(walls)
            model, report = self.path(f"model{i}.txt"), self.path(f"report{i}.json")
            wall, peak, code = timed_child(
                [PMAFIA, "cluster", "--data", self.path("data.bin"), "--ranks", RANKS,
                 "--save", model, "--report-json", report], self.path(f"build{i}.log"))
            walls.append(wall)
            rss.append(peak)
            if code != 0:
                self.check(False, f"build {i} exited {code}")
                continue
            sig, model_bytes = report_signature(report), model.read_bytes()
            first, first_model = first or sig, first_model or model_bytes
            self.check_signature(sig, first, f"build {i}")
            self.check(model_bytes == first_model, f"build {i}: model bytes differ")
        log(f"builds: {len(walls)}, wall s: " + " ".join(f"{w:.3f}" for w in walls))
        return walls, rss, self.records

    def trace_args(self):
        return ["--data", self.path("data.bin"), "--batch", self.path("batch.bin")]


class AppendWorkload(Workload):
    """append-drift: `pmafia append` of a 1% drift batch onto a freshly
    restored copy of a checkpointed 1M base build."""

    pin_key = "append-drift"

    def setup(self, trace):
        base, batch = self.path("base.bin"), self.path("batch.bin")
        generate_drift(base, batch, self.seed)
        warm(base, batch)
        if trace:
            return
        shutil.rmtree(self.path("base_ckpt"), ignore_errors=True)
        _, _, code = timed_child(
            [PMAFIA, "cluster", "--data", base, "--ranks", RANKS, *DRIFT_DOMAIN,
             "--checkpoint-dir", self.path("base_ckpt"), "--save", self.path("base_model.txt")],
            self.path("base_build.log"))
        if code != 0:
            raise BenchError(f"base build exited {code}")

    def measure(self, seconds):
        base, batch = self.path("base.bin"), self.path("batch.bin")
        # The oracle: one full rebuild on base+batch, outside the timed region.
        run([PBTOOL, "concat", "--out", self.path("all.bin"), "--a", base, "--b", batch])
        _, _, code = timed_child(
            [PMAFIA, "cluster", "--data", self.path("all.bin"), "--ranks", RANKS, *DRIFT_DOMAIN,
             "--save", self.path("rebuild_model.txt"), "--report-json", self.path("rebuild.json")],
            self.path("rebuild.log"))
        if code != 0:
            raise BenchError(f"oracle rebuild exited {code}")
        rebuild = report_signature(self.path("rebuild.json"))
        rebuild_model = self.path("rebuild_model.txt").read_bytes()
        self.check_signature(rebuild, rebuild, "rebuild on base+batch")

        walls, rss, reused = [], [], set()
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(walls) < MIN_OPS:
            # Restore the base checkpoint and model outside the timed region.
            ckpt, model = self.path("ckpt"), self.path("model.txt")
            shutil.rmtree(ckpt, ignore_errors=True)
            shutil.copytree(self.path("base_ckpt"), ckpt)
            shutil.copyfile(self.path("base_model.txt"), model)
            report = self.path("append.json")
            wall, peak, code = timed_child(
                [PMAFIA, "append", "--model", model, "--checkpoint-dir", ckpt, "--data", batch,
                 "--ranks", RANKS, *DRIFT_DOMAIN, "--report-json", report],
                self.path("append.log"))
            walls.append(wall)
            rss.append(peak)
            if code != 0:
                self.check(False, f"append {len(walls)} exited {code}")
                continue
            self.check(report_signature(report) == rebuild and model.read_bytes() == rebuild_model,
                       f"append {len(walls)}: not bit-identical to the full rebuild")
            reused.add(json.loads(report.read_text())["append"]["levels_reused"])
        log(f"appends: {len(walls)}, levels reused: {sorted(reused)}, wall s: median "
            f"{statistics.median(walls):.4f}, p90 {statistics.quantiles(walls, n=10)[-1]:.4f}")
        return walls, rss, int(BATCH_RECORDS * 1.1)

    def trace_args(self):
        return ["--data", self.path("base.bin"), "--batch", self.path("batch.bin"),
                "--replay", "combined", *DRIFT_DOMAIN]


class ServeWorkload(Workload):
    """serve-reload: two closed-loop clients against `pmafia serve
    --serve-threads 2` on the planted-1m model, republished + SIGHUP every
    100 ms."""

    pin_key = "planted-1m"

    def __init__(self, name, seed, work):
        super().__init__(name, seed, work)
        self.daemon = None
        self.first_build = None

    def setup(self, trace):
        data = self.path("data.bin")
        generate(data, 30, PLANTED, self.seed)
        warm(data)
        if trace:
            generate(self.path("batch.bin"), 30, PLANTED, self.seed + 1, BATCH_RECORDS)
            return
        model, report = self.path("model.txt"), self.path("report.json")
        _, _, code = timed_child([PMAFIA, "cluster", "--data", data, "--ranks", RANKS,
                                  "--save", model, "--report-json", report],
                                 self.path("build.log"))
        if code != 0:
            raise BenchError(f"model build exited {code}")
        sig = report_signature(report)
        self.first_build = self.first_build or sig
        self.check_signature(sig, self.first_build, "served model build")
        # Relative to the working directory: a Unix socket path is limited
        # to 107 bytes, and the checkout may sit deep in the file system.
        self.endpoint = "unix:" + os.path.relpath(self.path("serve.sock"))
        with open(self.path("serve.log"), "w") as f:
            self.daemon = subprocess.Popen(
                [str(PMAFIA), "serve", "--model", str(model), "--listen", self.endpoint,
                 "--serve-threads", "2"], stdout=f, stderr=subprocess.STDOUT)
        run([PBTOOL, "wait-ready", "--listen", self.endpoint])

    def teardown(self):
        """Stops the daemon (SIGTERM drain); returns (peak RSS MB, exit code)."""
        if self.daemon is None:
            return 0.0, 0
        self.daemon.send_signal(signal.SIGTERM)
        _, status, usage = os.wait4(self.daemon.pid, 0)
        self.daemon.returncode = os.waitstatus_to_exitcode(status)
        code, self.daemon = self.daemon.returncode, None
        return usage.ru_maxrss / 1024.0, code

    def measure(self, seconds):
        out = last_json(run([PBTOOL, "serve-load", "--listen", self.endpoint,
                             "--data", self.path("data.bin"), "--model", self.path("model.txt"),
                             "--pid", self.daemon.pid, "--seconds", seconds]))
        peak, code = self.teardown()
        self.tally(int(out["attempted"]), int(out["failed"]),
                   f"{out['failed']:.0f} failed or wrong batches and reloads")
        self.check(code == 0, f"serve daemon exited {code}")
        self.check(out["reloads_done"] == out["reloads_sent"],
                   f"{out['reloads_done']:.0f} of {out['reloads_sent']:.0f} reloads applied")
        log(f"serve: {out['batches']:.0f} batches, {out['reloads_done']:.0f} reloads, "
            f"noise rows {out['noise_rows']:.0f}, p90 {out['p90_ms']:.3f} ms, "
            f"p99 {out['p99_ms']:.3f} ms")
        return out, peak

    def trace_args(self):
        return ["--data", self.path("data.bin"), "--batch", self.path("batch.bin")]


def make_workload(name, seed, work):
    if name == "planted-1m":
        return BuildWorkload(name, seed, work, 30, PLANTED)
    if name == "scattered-1m":
        return BuildWorkload(name, seed, work, 24, SCATTERED)
    if name == "append-drift":
        return AppendWorkload(name, seed, work)
    if name == "serve-reload":
        return ServeWorkload(name, seed, work)
    raise BenchError(f"unknown workload {name}")


def run_untraced(wl, seconds):
    setup = []
    for _ in range(SETUP_REPS):
        wl.teardown()  # stops the previous repetition's daemon, untimed
        t0 = time.perf_counter()
        wl.setup(trace=False)
        setup.append(time.perf_counter() - t0)
    log("setup s: " + " ".join(f"{s:.3f}" for s in setup))
    if isinstance(wl, ServeWorkload):
        out, peak = wl.measure(seconds)
        p50, rows_per_s = out["p50_ms"], out["rows_per_s"]
    else:
        walls, rss, rows = wl.measure(seconds)
        med = statistics.median(walls)
        p50, rows_per_s, peak = med * 1e3, rows / med, statistics.median(rss)
    return {"op_p50_ms": p50, "rows_per_s": rows_per_s,
            "peak_rss_mb": peak, "setup_s": statistics.median(setup)}


def run_traced(wl, seed):
    wl.setup(trace=True)
    trace_file = wl.path("trace.json")
    out = last_json(run([PBTOOL, "trace", *wl.trace_args(),
                         "--work", os.path.relpath(wl.path("trace")), "--trace-out", trace_file]))
    wl.tally(int(out["attempted"]), len(out["failures"]), "; ".join(out["failures"]))
    sig = {"checksums": out["checksums"], "clusters": out["clusters"]}
    if seed == DEFAULT_SEED:
        wl.check(sig == wl.pins[wl.pin_key or wl.name],
                 "traced run differs from the pinned default-seed result")
    log("level  cdus  dense  count_checksum    populate_s")
    for lv in out["levels"]:
        log(f"{lv['k']:5.0f} {lv['cdus']:5.0f} {lv['dense']:6.0f}  {lv['count_checksum']}  "
            f"{lv['populate_s']:.4f}")
    log(f"spans written to {trace_file} (Chrome trace-event JSON)")
    return out["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    if not args.trace:  # the traced run reports the machine as metrics
        log("machine: " + json.dumps(last_json(run([PBTOOL, "machine"]))))

    work = BUILD / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = make_workload(args.workload, args.seed, work)
    try:
        values = run_traced(wl, args.seed) if args.trace else run_untraced(wl, args.seconds)
    finally:
        wl.teardown()
    units = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"run lacks metrics {sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for f in wl.failures:
        log(f"FAILED: {f}")
    print(json.dumps({"correct": wl.failed == 0, "attempted": max(wl.attempted, 1),
                      "failed": wl.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
