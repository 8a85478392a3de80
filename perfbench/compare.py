"""Collect benchmark runs and compare two sets of them.

    python3 perfbench/compare.py collect --out DIR --checkout parent=PATH \
        --checkout change=PATH --workload nk-min --seeds 0-9
    python3 perfbench/compare.py report DIR --base parent --change change
    python3 perfbench/compare.py report DIR            # spread of one set

``collect`` runs ``perfbench/run.py`` from each checkout's root, one run at
a time, alternating which checkout runs first for each seed, and stores each
run's result line as ``DIR/<checkout>/<workload>/seed<n>.json``.

``report`` prints, per workload and metric, each side's median and
quartiles. With two sides it pairs runs by seed and prints the share of
pairs the change won (ties count for neither) and a verdict: "gain" when it
won at least 9 in 10 pairs and the medians differ by more than the base's
quartile distance; "regression" when its median is worse than the base's by
more than the metric's bound in BENCHMARK.json; "unresolved" when the
base's own spread exceeds the bound and not every change run beats every
base run; otherwise "within bound". With one side it prints each metric's
spread as a share of its median next to its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def _load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    bench = _load_benchmark()
    checkouts = [spec.split("=", 1) for spec in args.checkout]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for seed in _seeds(args.seeds):
            order = checkouts if seed % 2 == 0 else checkouts[::-1]
            for name, root in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                      timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} {workload} seed {seed}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                outdir = os.path.join(args.out, name, workload)
                os.makedirs(outdir, exist_ok=True)
                with open(os.path.join(outdir, f"seed{seed}.json"), "w",
                          encoding="utf-8") as handle:
                    handle.write(lines[-1] + "\n")
                result = json.loads(lines[-1])
                print(f"{name} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    return 0


def _read_side(directory: str) -> dict:
    """{workload: {seed: result}} from one side's directory."""
    side = {}
    for workload in sorted(os.listdir(directory)):
        runs = {}
        for fname in os.listdir(os.path.join(directory, workload)):
            with open(os.path.join(directory, workload, fname), encoding="utf-8") as handle:
                runs[int(fname[len("seed"):-len(".json")])] = json.loads(handle.read())
        side[workload] = runs
    return side


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _metric_specs() -> dict:
    bench = _load_benchmark()
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def report(args) -> int:
    specs = _metric_specs()
    sides = sorted(os.listdir(args.dir)) if args.base is None else [args.base, args.change]
    if args.base is None and len(sides) != 1:
        print(f"{args.dir} holds {sides}; name --base and --change", file=sys.stderr)
        return 1
    data = {name: _read_side(os.path.join(args.dir, name)) for name in sides}
    base = data[sides[0]]
    status = 0
    for workload, runs in base.items():
        failed = sum(r["failed"] for r in runs.values())
        attempted = sum(r["attempted"] for r in runs.values())
        print(f"\n== {workload}: {sides[0]} {len(runs)} runs, "
              f"{failed}/{attempted} queries failed, "
              f"correct in {sum(r['correct'] for r in runs.values())}")
        for metric in next(iter(runs.values()))["metrics"]:
            spec = specs.get(metric, {})
            bound = spec.get("bound")
            b_vals = [runs[s]["metrics"][metric]["value"] for s in sorted(runs)]
            bq1, bmed, bq3 = _quartiles(b_vals)
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            line = f"{metric:32s} {sides[0]} median {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]"
            if len(sides) == 1:
                flag = ""
                if bound is not None:
                    flag = "  OK" if spread < bound / 3 else (
                        "  above bound/3" if spread <= bound else "  ABOVE BOUND")
                    status |= spread > bound
                print(f"{line} spread {spread:.3f}"
                      + (f" bound {bound}{flag}" if bound is not None else ""))
                continue
            change = data[sides[1]].get(workload, {})
            seeds = sorted(set(runs) & set(change))
            c_vals = [change[s]["metrics"][metric]["value"] for s in seeds]
            if not c_vals:
                print(f"{line} (no {sides[1]} runs)")
                continue
            cq1, cmed, cq3 = _quartiles(c_vals)
            lower = spec.get("better", "lower") == "lower"
            wins = sum((c < b) if lower else (c > b)
                       for c, b in zip(c_vals, (runs[s]["metrics"][metric]["value"]
                                                for s in seeds)))
            share = wins / len(seeds)
            worse = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
            if share >= 0.9 and abs(cmed - bmed) > bq3 - bq1:
                verdict = "gain"
            elif bound is not None and worse > bound:
                verdict = "regression"
                status = 1
            elif bound is not None and spread > bound and not (
                    max(c_vals) < min(b_vals) if lower else min(c_vals) > max(b_vals)):
                verdict = "unresolved"
            else:
                verdict = "within bound" if bound is not None else "-"
            print(f"{line} | {sides[1]} median {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] "
                  f"| won {wins}/{len(seeds)} | {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--checkout", action="append", required=True, metavar="NAME=PATH")
    p.add_argument("--workload", action="append")
    p.add_argument("--seeds", default="0-9", metavar="LO-HI")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p = sub.add_parser("report")
    p.add_argument("dir")
    p.add_argument("--base")
    p.add_argument("--change")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
