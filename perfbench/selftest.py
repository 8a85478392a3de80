"""Reduced-size self-test of the benchmark (about a minute on 2 cores).

    python3 perfbench/selftest.py

On the smoke scale of every workload it checks that:
- an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and a traced run every per-layer metric;
- the traced run's outputs equal the untraced run's (the run's checker
  compares every pass with the first, so a traced run with no failure
  shows it);
- the per-layer counts repeat exactly in a second traced run;
- fresh networks (``--input-seed``) pass the checks that need no
  expected answers;
- a deliberately wrong expected answer is counted as a failure;
- a traced run stops with an error when a layer the queries reach is not
  wrapped;
- the command line prints the result as its last line, and exits non-zero
  without a result where the program's sources are missing.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def _metrics_printed(result: dict, lines: list[str], specs: list[dict], what: str) -> None:
    printed = {tuple(line.split()[:1] + line.split()[-1:]) for line in lines if line.split()}
    missing = [s["name"] for s in specs
               if result["metrics"].get(s["name"], {}).get("unit") != s["unit"]
               or (s["name"], s["unit"]) not in printed]
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    _check(not missing and not extra,
           f"{what}: all {len(specs)} metrics of BENCHMARK.json printed with their units"
           + (f"; missing {missing}, extra {sorted(extra)}" if missing or extra else ""))


def _wrong_answer(workload: str) -> dict:
    expected = copy.deepcopy(workloads.load_expected(workload, 0))
    net = workloads.networks(workload, "smoke")[0].name
    entry = expected[net]
    key = sorted(entry)[0]
    if isinstance(entry[key], str):
        entry[key] = "0" * 64
    else:
        entry[key] = entry[key][1:] if len(entry[key]) > 1 else ["-" * len(entry[key][0])]
    return expected


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    for workload in workloads.WORKLOADS:
        for trace, specs in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            lines = []
            result = run.run_workload(workload, "smoke", seed=1, seconds=0, trace=trace,
                                      log=lines.append)
            what = f"{workload} trace={int(trace)}"
            _metrics_printed(result, lines, specs, what)
            _check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{what}: all {result['attempted']} outputs correct"
                   + (", traced equal to untraced" if trace else ""))
            if trace:
                again = run.run_workload(workload, "smoke", seed=2, seconds=0, trace=True,
                                         log=lambda line: None)
                counts = [s["name"] for s in specs if s["unit"] == "count"]
                _check(all(result["metrics"][c] == again["metrics"][c] for c in counts),
                       f"{what}: counts repeat exactly in another run ({', '.join(counts)})")
        result = run.run_workload(workload, "smoke", seed=1, seconds=0, trace=False,
                                  input_seed=1, log=lambda line: None)
        _check(result["correct"] and result["failed"] == 0,
               f"{workload}: fresh networks (--input-seed 1) pass the checks "
               "that need no expected answers")
        result = run.run_workload(workload, "smoke", seed=1, seconds=0, trace=False,
                                  expected_override=_wrong_answer(workload),
                                  log=lambda line: None)
        _check(not result["correct"] and result["failed"] > 0,
               f"{workload}: a wrong expected answer counts as a failure")

    targets = tracing.TARGETS
    tracing.TARGETS = [t for t in targets if t[2] != "dynamics"]
    try:
        run.run_workload("corpus-check", "smoke", seed=1, seconds=0, trace=True,
                         log=lambda line: None)
        unwrapped = None
    except RuntimeError as exc:
        unwrapped = str(exc)
    finally:
        tracing.TARGETS = targets
    _check(unwrapped is not None and "dynamics" in unwrapped,
           f"a layer left unwrapped stops a traced run ({unwrapped})")

    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nk-min",
                           "--scale", "smoke", "--seconds", "0", "--seed", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    _check(proc.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"},
           "command line: exit 0, result object as the last line")

    bare = os.path.join(run.WORK_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nk-min",
                           "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    _check(proc.returncode != 0 and not proc.stdout.strip(),
           "without the sources: non-zero exit and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
