"""Write the baseline record: untraced end-to-end numbers from one or more
sets of collected runs, one traced run's per-layer numbers per workload, and,
with ``--full``, one untraced and one traced run of every workload at full
scale, with the max-mode iteration counts of the hardest queries.

    python3 perfbench/compare.py collect --out set1 --checkout base=. --seeds 0-9
    python3 perfbench/compare.py collect --out set2 --checkout base=. --seeds 0-9
    python3 perfbench/baseline.py --runs set1/base --runs set2/base --full \
        --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, scale: str, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--scale", scale,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(runs: dict) -> dict:
    out = {}
    for metric in next(iter(runs.values()))["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs.values()]
        q1, med, q3 = compare._quartiles(values)
        out[metric] = {"median": med, "q1": q1, "q3": q3,
                       "unit": next(iter(runs.values()))["metrics"][metric]["unit"]}
    return out


def _hard_queries(workload: str, min_iterations: int = 100, slowest: int = 5) -> dict:
    """From the full traced run: max-mode iterations per query where large,
    and the slowest queries' traced seconds."""
    path = os.path.join(ROOT, ".perfbench", f"trace-{workload}-full-seed0.json")
    with open(path, encoding="utf-8") as handle:
        spans = json.load(handle)
    iterations = {}
    for s in spans:
        if s["name"] == "solver.search" and spans[s["parent"]]["name"] == "solver.max":
            if s["counts"].get("iterations", 0) >= min_iterations:
                iterations[s["query"]] = s["counts"]["iterations"]
    roots = sorted((s for s in spans if s["parent"] is None),
                   key=lambda s: s["end"] - s["start"], reverse=True)[:slowest]
    return {
        "max_mode_iterations_over_100": dict(sorted(iterations.items())),
        "slowest_queries_s": {s["query"]: s["end"] - s["start"] for s in roots},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", action="append", required=True,
                        help="DIR/<side> from compare.py collect; once per set")
    parser.add_argument("--out", required=True)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args()
    bench = compare._load_benchmark()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip() or "unknown"
    record = {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "notes": args.note,
        "workloads": {},
    }
    sets = [compare._read_side(d) for d in args.runs]
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    for name in workloads.WORKLOADS:
        entry = {"why": whys.get(name, "not in BENCHMARK.json; see perfbench/README.md")}
        collected = [runs[name] for runs in sets if name in runs]
        if collected:
            entry["timed"] = {
                "sets": [{"runs": len(runs),
                          "seeds": sorted(runs),
                          "failed": sum(r["failed"] for r in runs.values()),
                          "attempted": sum(r["attempted"] for r in runs.values()),
                          "end_to_end": _summary(runs)} for runs in collected],
                "per_layer": _run(name, "timed", 1, bench["run_seconds"])["metrics"],
            }
        if args.full:
            untraced = _run(name, "full", 0, 0)
            traced = _run(name, "full", 1, 0)
            entry["full"] = {
                "failed": untraced["failed"],
                "attempted": untraced["attempted"],
                "end_to_end": untraced["metrics"],
                "per_layer": traced["metrics"],
                **_hard_queries(name),
            }
        record["workloads"][name] = entry
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
