#!/usr/bin/env python3
"""The modb repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a modb checkout. It builds modbd and the load driver
(perfbench/driver.cc) in Release mode into .bench_build, starts modbd for
the workload, drives it over the wire in a closed loop, checks every
reply, and prints as its last line one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. METRICS.md describes the workloads
and every metric. The full record of a run (metrics, sample counts and
the run context: nproc, load average, build type, modbd flags, seed,
source digest) is written to .bench_work/results/. The process exits
non-zero, without a result line, if it cannot build or run, and prints
the result line with "correct": false and exits 1 if any reply was wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("analytic_scan", "live_ingest", "point_lookup")
# modbd start-ups per run; setup_s is their median.
SETUP_TRIALS = 15
LISTEN_TIMEOUT_S = 60
DRIVER_SLACK_S = 120
# Which share of the traced round trip each workload exists to load.
SPLIT_CHECKS = {
    "point_lookup": ("trace.serve_wire_share", "serve + wire spans"),
    "analytic_scan": ("trace.db_run_share", "db.run"),
    "live_ingest": ("trace.ingest_storage_share", "ingest + storage spans"),
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("not run from a modb source checkout (no CMakeLists.txt and src/)")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configuring the build failed")
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    if build_type != "Release":
        fail("refusing a %r build: timings count only from Release" % build_type)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "modbd", "perfdrive", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("building modbd and perfdrive failed")
    return build_type


def binary(name):
    for sub in ("modb/tools", "."):
        path = os.path.join(BUILD, sub, name)
        if os.path.isfile(path):
            return path
    fail("built binary %s not found" % name)


def source_digest():
    """sha256 over the sources modbd and the driver are built from."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


class Server:
    """One modbd process; start() returns once it listens."""

    def __init__(self, modbd, flags, workdir, tag):
        self.cmd = [modbd] + flags
        self.stderr = open(os.path.join(workdir, "modbd-%s.err" % tag), "w")
        self.proc = None
        self.port = 0

    def start(self):
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            self.cmd, stdout=subprocess.PIPE, stderr=self.stderr, text=True
        )
        while True:
            if time.monotonic() - t0 > LISTEN_TIMEOUT_S:
                raise RuntimeError("modbd did not listen within %ds" % LISTEN_TIMEOUT_S)
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("modbd exited before listening: %s" % self.cmd)
            if line.startswith("modbd listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                return time.monotonic() - t0

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for modbd")

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        self.proc = None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_type = build()
    modbd, driver = binary("modbd"), binary("perfdrive")

    workdir = os.path.join(WORK, "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    # modbd's flags come from the workload definition (workloads.cc).
    flags = subprocess.run([driver, "flags", "--workload=" + args.workload],
                           capture_output=True, text=True, check=True).stdout.split()
    live = args.workload == "live_ingest"
    servers = []
    try:
        if live:
            prep = subprocess.run(
                [driver, "prep", "--dir=" + workdir, "--seed=%d" % args.seed],
                stdout=sys.stderr, stderr=sys.stderr, timeout=120,
            )
            if prep.returncode != 0:
                raise RuntimeError("preloading the live store failed")

        # Set-up time: exec to "listening" (generation + index build, or
        # store recovery), several times; the last server takes the load.
        setup = []
        for trial in range(SETUP_TRIALS):
            server_flags = list(flags)
            if live:
                store = os.path.join(workdir, "server-%d.store" % trial)
                shutil.copyfile(os.path.join(workdir, "preload.store"), store)
                server_flags.append("--store=" + store)
            server = Server(modbd, server_flags, workdir, str(trial))
            servers.append(server)
            setup.append(server.start())
            if trial + 1 < SETUP_TRIALS:
                server.stop()
        server = servers[-1]

        context = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "build_type": build_type,
            "modbd_flags": server.cmd[1:],
            "commit": commit(),
            "source_digest": source_digest(),
        }
        run = subprocess.run(
            [driver, "run", "--workload=" + args.workload, "--seed=%d" % args.seed,
             "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
             "--port=%d" % server.port, "--dir=" + workdir],
            capture_output=True, text=True, timeout=args.seconds + DRIVER_SLACK_S,
        )
        sys.stderr.write(run.stderr)
        if run.returncode != 0 or not run.stdout.strip():
            raise RuntimeError("the load driver failed (exit %d)" % run.returncode)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        rss = server.peak_rss_mib()
        server.stop()
        metrics = dict(result["metrics"])
        if args.trace:
            extra = result["extra"]
            store = os.path.join(workdir, "server-%d.store" % (SETUP_TRIALS - 1))
            metrics["store_bytes_per_fix"] = (
                os.path.getsize(store) / extra["fixes_stored"] if live else 0.0
            )
            share, what = SPLIT_CHECKS[args.workload]
            if metrics[share] <= 0.5:
                log("layer split does not hold on %s: %s is %.3f of the round trip"
                    % (args.workload, what, metrics[share]))
        else:
            metrics["setup_s"] = statistics.median(setup)
            metrics["server_rss_mb"] = rss
    finally:
        for s in servers:
            s.stop()

    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail("metrics missing from the run: %s" % ", ".join(missing))
    correct = result["failed"] == 0 and result["mismatches"] == 0
    if result["first_error"]:
        log("first error: " + result["first_error"])
    record = {
        "context": context,
        "setup_trials_s": setup,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "mismatches": result["mismatches"],
        "extra": result["extra"],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", os.path.basename(workdir) + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        os.replace(os.path.join(workdir, "spans.tsv"),
                   os.path.join(WORK, "results", args.workload + ".spans.tsv"))
    shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        fail(str(e))
