#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs every workload of BENCHMARK.json once for each of the seeds 1 to 10
with --trace 0, then prints, per workload and end-to-end metric, the median
and quartiles of the values over the seeds and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound. A spread must stay within its bound for the benchmark to tell a
regression from noise; this report flags spreads above a third of the
bound.

Run from the root of the checkout:

    python3 perfbench/steady.py --out steadiness.md

perfbench/STEADINESS.md keeps the last ten-seed report, with notes on it.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

SEEDS = list(range(1, 11))


def run_once(cmd, workload, seed, seconds):
    """Runs one seed; returns the parsed result (None if the run failed),
    the wall time and a description of any failure."""
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        return None, wall, f"exit {proc.returncode}: {proc.stderr.strip()}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    problem = ""
    if not res["correct"] or res["failed"]:
        oracle = [l for l in proc.stdout.splitlines() if l.startswith("oracle:")]
        problem = f"{res['failed']} of {res['attempted']} ops failed {oracle}"
    return res, wall, problem


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    lines = [
        f"Steadiness over seeds {SEEDS[0]}..{SEEDS[-1]}, {seconds} s per run, "
        "one run per seed.",
        "",
        "| workload | metric | unit | median | q1 | q3 | spread | bound | spread/bound |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    unsteady, failures = [], []
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls = []
        for seed in SEEDS:
            res, wall, problem = run_once(bench["command"], name, seed, seconds)
            walls.append(wall)
            got = {}
            if res is not None:
                got = {m["name"]: res["metrics"][m["name"]]["value"] for m in bench["end_to_end"]}
            print(f"{name} seed {seed}: {wall:.1f} s {problem} {json.dumps(got)}", file=sys.stderr)
            if problem:
                failures.append(f"{name} seed {seed}: {problem}")
            for k, v in got.items():
                values[k].append(v)
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / m["bound"]
            if ratio > 1 / 3:
                unsteady.append(f"{name}/{m['name']}")
            lines.append(
                f"| {name} | {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | "
                f"{q3:.6g} | {spread:.4f} | {m['bound']} | {ratio:.2f} |")
        w1, wmed, w3 = statistics.quantiles(walls, n=4)
        lines.append(f"| {name} | (run wall time) | s | {wmed:.1f} "
                     f"| {w1:.1f} | {w3:.1f} | | | |")
    lines.append("")
    lines.append("Spreads above a third of their bound: "
                 + (", ".join(unsteady) if unsteady else "none") + ".")
    lines.append("")
    lines.append("Runs with failed ops or a non-zero exit: "
                 + ("; ".join(failures) if failures else "none") + ".")
    text = "\n".join(lines) + "\n"
    print(text)
    if opts.out:
        with open(opts.out, "w") as f:
            f.write(text)
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
