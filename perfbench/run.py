#!/usr/bin/env python3
"""Host-performance benchmark of the apenetpp simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and with it src/) into
.bench_build/perfbench on first use, derives the workload's inputs from the
seed, and runs the program (src/main.cpp) once per set-up sample and once
for the measurement. It checks every point's simulated result (pins.json),
prints a per-point report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (README.md explains each). Exit code 0 only when a result
was printed; a result with failed points still exits 0 and says so.

--seconds is at most MAX_SECONDS, so that a whole run ends within
DEADLINE_S. Extra flag: --pins <file> checks against another pin table (the
self-test corrupts a copy).
"""
import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
PINS = os.path.join(HERE, "pins.json")
SETUP_RUNS = 12     # set-up-only processes per run at least,
SETUP_MIN_S = 1.0   # and for at least this long; plus the measured one
DEADLINE_S = 170    # whole run, build excluded
MAX_SECONDS = 150   # --seconds, leaving the rest of DEADLINE_S for set-up

WORKLOADS = ("p2p_stream", "rdma_pingpong", "bfs_graph500", "hsg_halo")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found beside perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def inputs(workload, seed):
    """The program's inputs: the seeds of its random inputs, drawn from
    `seed`. Only bfs_graph500 and hsg_halo use them."""
    rng = random.Random("perfbench/%s/%d" % (workload, seed))
    args = {
        "rmat-seed": rng.getrandbits(32) + 1,
        "root-seed": rng.getrandbits(32),
        "lattice-seed": rng.getrandbits(32),
    }
    argv = ["--workload", workload]
    for k, v in args.items():
        argv += ["--" + k, str(v)]
    return argv


def program_env():
    # The simulator reads APN_* switches (tracing, race checker, hardware
    # profile); none may leak into a measurement.
    return {k: v for k, v in os.environ.items() if not k.startswith("APN_")}


def start(argv, deadline, cpu=None):
    """Spawn the program, pinned to `cpu` if given; return it and its
    set-up time, i.e. the host seconds from spawn until it reports READY."""
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # the child inherits it
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen([BINARY] + argv, stdout=subprocess.PIPE,
                                env=program_env(), text=True)
    finally:
        os.sched_setaffinity(0, allowed)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY" or time.monotonic() > deadline:
        proc.kill()
        proc.wait()
        fail("program did not get ready: " + line.strip())
    return proc, setup


def measure(workload, seed, seconds, trace, deadline):
    argv = inputs(workload, seed)
    # Set-ups run on each allowed CPU in turn, as the program's passes do:
    # the CPUs of a shared virtual machine differ in speed, by up to 40% in
    # set-up time, and which one is fast changes over time.
    # Short set-ups (a few ms) repeat for SETUP_MIN_S, so that their minimum
    # rests on as many samples as noise needs.
    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    until = time.monotonic() + SETUP_MIN_S
    while len(setups) < SETUP_RUNS or time.monotonic() < until:
        proc, setup = start(argv + ["--setup-only"], deadline,
                            cpus[len(setups) % len(cpus)])
        if proc.wait() != 0:
            fail("set-up run failed")
        setups.append(setup)
    argv += ["--seconds", repr(seconds)]
    if trace:
        argv += ["--trace-run", "--trace-out",
                 os.path.join(BUILD, "trace-%s-seed%d.json" % (workload, seed))]
    proc, setup = start(argv, deadline)
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("measurement overran the deadline")
    if proc.returncode != 0:
        fail("program exited with %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if len(lines) != 1:
        fail("program printed no result")
    return json.loads(lines[0][len("RESULT "):]), setups


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check(workload, seed, res, pins):
    """Per-point verdicts: (attempted, failed, paper errors, report rows).

    Every seed: a point fails if it threw, if a rerun differed from its
    first run, if its BFS tree failed validation or its HSG energy drifted,
    or if it is a Fig. 6 configuration off that bench's plateau. Where pins
    apply (seed-independent workloads, or the default seed) a point also
    fails if its simulated result differs from the pinned one."""
    wp = pins["workloads"][workload]
    pinned = not wp["seed_dependent"] or seed == pins["default_seed"]
    rel = pins["rel_tol"]
    attempted = failed = 0
    errs, rows = [], []
    for pt in res["points"]:
        runs = pt["runs"]
        bad = pt["errors"] + pt["mismatches"] + pt["invalid"]
        why = []
        if pt["errors"]:
            why.append("threw")
        if pt["mismatches"]:
            why.append("rerun differs")
        if pt["invalid"]:
            why.append("invalid result")
        pin = wp["points"].get(pt["name"], {})
        if pinned and not ("value" in pin and close(pt["value"], pin["value"], rel)
                           and close(pt["aux"], pin["aux"], rel)):
            bad = runs
            why.append("pinned %s" % pin.get("value"))
        plateau = pins["fig6_plateau_mbps"].get(pt["name"])
        if plateau is not None and round(pt["value"], 1) != plateau:
            bad = runs
            why.append("fig6 plateau %s" % plateau)
        err = None
        if "paper" in pin:
            err = abs(pt["value"] / pin["paper"] - 1)
            errs.append(err)
        attempted += runs
        failed += min(bad, runs)
        rows.append((pt, pin.get("paper"), err, why))
    return attempted, failed, errs, rows


def report(workload, seed, res, rows, attempted, failed, errs):
    print("perfbench %s seed=%d passes=%d traced_passes=%d"
          % (workload, seed, res["passes"], res["traced_passes"]))
    # model and aux print with all their digits, as pins.json holds them.
    print("%-24s %24s %-8s %24s %10s %8s %9s %9s  %s"
          % ("point", "model", "unit", "aux", "paper", "err", "min_ms",
             "med_ms", "check"))
    for pt, paper, err, why in rows:
        host = pt["host_s"] or [0.0]
        print("%-24s %24.17g %-8s %24.17g %10s %8s %9.3f %9.3f  %s"
              % (pt["name"], pt["value"], pt["unit"], pt["aux"],
                 "-" if paper is None else "%g" % paper,
                 "-" if err is None else "%.4f" % err, min(host) * 1e3,
                 statistics.median(host) * 1e3,
                 "FAIL: " + ", ".join(why) if why else "ok"))
    print("failed_frac = %d/%d = %.6g" % (failed, attempted, failed / attempted))
    if errs:
        print("paper_err_median = %.6g over %d points"
              % (statistics.median(errs), len(errs)))
    else:
        print("paper_err_median = n/a (no point carries a paper value)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pins", default=PINS)
    a = ap.parse_args()
    if not 0 < a.seconds <= MAX_SECONDS:
        fail("--seconds must be in (0, %d]: a run, set-up included, must end "
             "within %d s" % (MAX_SECONDS, DEADLINE_S))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(a.pins) as f:
        pins = json.load(f)

    build()
    deadline = time.monotonic() + DEADLINE_S
    res, setups = measure(a.workload, a.seed, a.seconds, a.trace, deadline)
    attempted, failed, errs, rows = check(a.workload, a.seed, res, pins)
    report(a.workload, a.seed, res, rows, attempted, failed, errs)
    print("set-up: min %.6f s, median %.6f s over %d processes"
          % (min(setups), statistics.median(setups), len(setups)))

    if a.trace:
        values = dict(res["layers"])
        values["accuracy.paper_err_median"] = statistics.median(errs) if errs else 0.0
        values["accuracy.paper_points"] = len(errs)
        values["check.failed_frac"] = failed / attempted
        declared = spec["per_layer"]
    else:
        values = {
            # One pass over the points, each at its fastest repetition, and
            # the fastest of the set-ups: on a shared host interference only
            # ever adds time, and it comes in episodes longer than all the
            # set-ups of a run, so the minimum is the steadiest estimate
            # (the report prints medians too).
            "wall_s": sum(min(p["host_s"]) for p in res["points"]),
            "setup_s": min(setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
