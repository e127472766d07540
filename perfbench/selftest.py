#!/usr/bin/env python3
"""Self-test of the benchmark. From the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload at smoke size (--seconds 1, so one pass) with
   --trace 0 and --trace 1 at the default seed, and asserts that the last
   line is a result naming every metric of BENCHMARK.json with its unit,
   and that every point passes its checks.
2. Asserts that each paper value in pins.json is the one the paper bench
   it was copied from prints (bench/*.cpp).
3. Corrupts one pinned value in a copy of pins.json and asserts that the
   run then reports failed points (failed_frac > 0).
Exits 0 when every check holds.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def bench(workload, trace, seed, pins=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if pins:
        cmd += ["--pins", pins]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        expect(False, "%s --trace %d exited %d" % (workload, trace, r.returncode))
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_result(res, declared, label):
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           label + ": result keys")
    expect(res["attempted"] >= 1, label + ": attempted >= 1")
    expect(res["correct"] and res["failed"] == 0, label + ": failed points")
    got = res["metrics"]
    expect(set(got) == {m["name"] for m in declared}, label + ": metric names")
    for m in declared:
        v = got.get(m["name"], {})
        expect(v.get("unit") == m["unit"], label + ": unit of " + m["name"])
        expect(isinstance(v.get("value"), (int, float)),
               label + ": value of " + m["name"])


def check_paper_values(pins):
    for wl in pins["workloads"].values():
        for name, pin in wl["points"].items():
            if "paper" not in pin:
                continue
            path, snippet = pin["paper_src"]
            with open(os.path.join(ROOT, path)) as f:
                expect(snippet in f.read(), "%s: paper source moved" % name)
            printed = float(re.findall(r"\d+(?:\.\d+)?", snippet)[-1])
            scale = 1000.0 if "GB/s" in snippet else 1.0
            expect(abs(printed * scale - pin["paper"]) < 1e-9,
                   "%s: paper value differs from %s" % (name, path))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    seed = pins["default_seed"]

    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = bench(w["name"], trace, seed)
            if res is not None:
                check_result(res, declared, "%s --trace %d" % (w["name"], trace))

    check_paper_values(pins)

    pins["workloads"]["p2p_stream"]["points"]["table1/host_read"]["value"] *= 1.01
    os.makedirs(BUILD, exist_ok=True)
    corrupt = os.path.join(BUILD, "pins-corrupt.json")
    with open(corrupt, "w") as f:
        json.dump(pins, f)
    res = bench("p2p_stream", 0, seed, pins=corrupt)
    if res is not None:
        expect(not res["correct"] and res["failed"] / res["attempted"] > 0,
               "a corrupted pin must make failed_frac > 0")

    print("selftest: %s" % ("ok" if not failures else
                            "%d check(s) failed" % len(failures)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
