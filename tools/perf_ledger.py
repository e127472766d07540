#!/usr/bin/env python3
"""Counter ledger of perfbench runs, and an exact gate on it.

From the root of a checkout:

    python3 tools/perf_ledger.py write <label> --parent <rev> --change TEXT
    python3 tools/perf_ledger.py check

write runs perfbench/run.py on both sides, the parent <rev> (its committed
files, unpacked with `git archive` into a temporary directory) and this
checkout, and writes BENCH_<label>.json at the root:

  trace1  one `--trace 1 --seed 1 --seconds 25` run of each workload per
          side: the per-layer counters.
  trace0  PAIRS (10) pairs of `--trace 0` runs per workload, the side
          that runs first alternating from pair to pair. Median, quartiles
          and every run of wall_s, setup_s and peak_rss_mb, and the pairs
          whose change-side wall_s beat the parent's.

The entry records the toolchain perfbench built with (compiler and C
library): allocation counts depend on the C++ library, so an entry gates
only builds made with the same toolchain.

check re-runs the trace1 part on this checkout and compares it with the
`change` side of the newest entry (the highest PR number in a
BENCH_pr<N>_*.json name). The deterministic counters must be equal, in
both directions: sim.events, pcie.chunks, sim.allocs, every core.* and
gpu.* count, bfs.teps_sim and hsg.energy_drift. Every point must pass
(failed = 0). A difference in either direction fails: an intended change
of a count commits a new entry. Host times are printed and never gated,
and so is a toolchain that differs from the entry's (it is printed).
Exit status 0 only when every gated value is equal.

Standard library only.
"""
import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("p2p_stream", "rdma_pingpong", "bfs_graph500", "hsg_halo")
TRACE1 = ["--seed", "1", "--seconds", "25", "--trace", "1"]
TRACE0 = ["--seed", "1", "--seconds", "25", "--trace", "0"]
PAIRS = 10
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
EXACT = ("sim.events", "pcie.chunks", "sim.allocs", "bfs.teps_sim",
         "hsg.energy_drift")
SHOWN = ("sim.host_ns_per_event", "pcie.host_ns_per_chunk", "bfs.run_ms",
         "bfs.validate_ms", "hsg.run_ms")


def command(argv):
    return "python3 perfbench/run.py --workload <w> " + " ".join(argv)


def run_perfbench(root, workload, argv):
    """One run.py run in checkout `root`; returns its result line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload] + argv
    print("[%s] %s" % (os.path.basename(root) or root, " ".join(cmd[1:])),
          file=sys.stderr, flush=True)
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
        sys.exit("perf_ledger: perfbench failed on %s" % workload)
    return json.loads(r.stdout.strip().splitlines()[-1])


def toolchain(root):
    """The C++ compiler perfbench's build in checkout `root` uses, and the
    C library of this host."""
    compiler = "unknown compiler"
    cache = os.path.join(root, ".bench_build", "perfbench", "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                r = subprocess.run([path, "--version"], capture_output=True,
                                   text=True)
                if r.returncode == 0 and r.stdout:
                    compiler = r.stdout.splitlines()[0]
                break
    libc = " ".join(platform.libc_ver()).strip() or "unknown libc"
    return "%s; %s" % (compiler, libc)


def gated(name):
    return name in EXACT or name.startswith(("core.", "gpu."))


def compare(entry_side, measured):
    """Differences between an entry's trace1 side and measured results,
    one line each; empty when the gate holds."""
    problems = []
    for w in WORKLOADS:
        if w not in entry_side:
            problems.append("%s: missing from the entry" % w)
            continue
        if w not in measured:
            problems.append("%s: not measured" % w)
            continue
        got = measured[w]
        if got.get("failed") != 0:
            problems.append("%s: %s failed points" % (w, got.get("failed")))
        want_m, got_m = entry_side[w]["metrics"], got["metrics"]
        for name in sorted(set(want_m) | set(got_m)):
            if not gated(name):
                continue
            if name not in want_m or name not in got_m:
                problems.append("%s %s: present on one side only"
                                % (w, name))
                continue
            want, have = want_m[name]["value"], got_m[name]["value"]
            if have != want:
                problems.append("%s %s: measured %r, %s than the entry's %r"
                                % (w, name, have,
                                   "higher" if have > want else "lower",
                                   want))
    return problems


def newest_entry():
    entries = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_pr*_*.json")):
        m = re.match(r"BENCH_pr(\d+)_", os.path.basename(path))
        if m:
            entries.append((int(m.group(1)), path))
    if not entries:
        sys.exit("perf_ledger: no BENCH_pr<N>_*.json entry at the root")
    return max(entries)[1]


def cmd_check():
    path = newest_entry()
    with open(path) as f:
        entry = json.load(f)
    measured = {w: run_perfbench(ROOT, w, TRACE1) for w in WORKLOADS}
    print("entry: %s" % os.path.basename(path))
    here = toolchain(ROOT)
    if entry.get("toolchain") != here:
        print("note: entry built with %s; this build uses %s"
              % (entry.get("toolchain", "an unrecorded toolchain"), here))
    for w in WORKLOADS:
        m = measured.get(w, {}).get("metrics", {})
        shown = ["%s=%.6g" % (k, m[k]["value"]) for k in SHOWN if k in m]
        print("%-14s %s" % (w, " ".join(shown) or "-"))
    problems = compare(entry["trace1"]["change"], measured)
    for p in problems:
        print("FAIL: " + p)
    if problems:
        return 1
    print("ok: every gated count equals the entry's")
    return 0


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (
        runs * 3)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": runs}


def cmd_write(a):
    parent = subprocess.run(["git", "rev-parse", "--short", a.parent],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="perf_ledger_") as tmp:
        proot = os.path.join(tmp, "parent")
        os.mkdir(proot)
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", proot], input=archive, check=True)
        sides = {"parent": proot, "change": ROOT}

        trace1 = {"command": command(TRACE1), "parent": {}, "change": {}}
        for w in WORKLOADS:
            for side, root in sides.items():
                trace1[side][w] = run_perfbench(root, w, TRACE1)

        raw = {s: {w: [] for w in WORKLOADS} for s in sides}
        wins = {}
        for w in WORKLOADS:
            wins[w] = 0
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else (
                    "change", "parent")
                got = {s: run_perfbench(sides[s], w, TRACE0) for s in order}
                for s in sides:
                    raw[s][w].append(got[s])
                wall = {s: got[s]["metrics"]["wall_s"]["value"]
                        for s in sides}
                wins[w] += wall["change"] < wall["parent"]

    trace0 = {"command": command(TRACE0),
              "method": "pairs of runs, alternating which commit runs "
                        "first; median and quartiles over the runs",
              "pairs": {w: PAIRS for w in WORKLOADS}, "wins": wins,
              "parent": {}, "change": {}}
    for s in sides:
        for w in WORKLOADS:
            res = raw[s][w]
            out = {m: summary([r["metrics"][m]["value"] for r in res])
                   for m in END_TO_END}
            out["failed"] = [r["failed"] for r in res]
            trace0[s][w] = out
    entry = {
        "label": a.label,
        "change": a.change,
        "parent_commit": parent,
        "host": "%d-CPU %s %s host; perfbench's own Release build of each "
                "commit" % (os.cpu_count() or 1, platform.system(),
                            platform.machine()),
        "toolchain": toolchain(ROOT),
        "trace1": trace1,
        "trace0": trace0,
    }
    path = os.path.join(ROOT, "BENCH_%s.json" % a.label)
    with open(path, "w") as f:
        json.dump(entry, f, indent=1)
        f.write("\n")
    print("wrote %s" % os.path.basename(path))
    for w in WORKLOADS:
        med = {s: trace0[s][w]["wall_s"]["median"] for s in sides}
        print("%-14s wall_s %.6f -> %.6f (%.3fx), change faster in %d/%d"
              % (w, med["parent"], med["change"],
                 med["parent"] / med["change"], wins[w], PAIRS))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write", help="measure both sides, write an entry")
    w.add_argument("label")
    w.add_argument("--parent", required=True, help="git revision")
    w.add_argument("--change", required=True,
                   help="one-paragraph description of the change")
    sub.add_parser("check", help="gate this checkout on the newest entry")
    a = ap.parse_args()
    return cmd_write(a) if a.cmd == "write" else cmd_check()


if __name__ == "__main__":
    sys.exit(main())
