"""Benchmark of the trapspaces CLI: one workload per process, one client in
a closed loop calling ``trapspaces.cli.run(argv)`` in-process.

    python3 perfbench/run.py --workload corpus-check --seed 1 --seconds 45 --trace 0

A run makes whole passes over the workload's queries in an order shuffled
by ``--seed`` until ``--seconds`` would be exceeded (at least one pass).
Before each pass it sets up again: it times two imports of the CLI, each in
a fresh interpreter, and two set-ups of its inputs, so that the set-up
samples span the run as the passes do. Every output is checked.

Every time reported is scaled to a nominal machine speed by the reference
samples taken around it (``speed.py``): one before each query, one after
each pass, and a few before and after each set-up sample. The traced run
also reports the unscaled pass time and the reference's own time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
SAMPLES_PER_ROUND = 2


def call_cli(argv, tracer=None, qid=None) -> tuple:
    """One query: (exit code, or None if it raised; stdout; stderr; seconds).
    With a tracer, the call is the root span of query ``qid``."""
    from trapspaces import cli

    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.query = qid
        root = tracer.span("cli")
    else:
        root = contextlib.nullcontext()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with root:
                rc = cli.run(list(argv))
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def time_import() -> float:
    """Seconds to import the modules of ``trapspaces.cli`` in a fresh
    interpreter, timed inside it (interpreter start-up is left out) and
    scaled by reference samples taken in that interpreter before and after.
    ``speed`` imports only ``time``, so the import still loads everything
    else the CLI needs."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; import speed; "
            "before = speed.sample_median(); t = time.perf_counter(); "
            "import trapspaces.cli; took = time.perf_counter() - t; "
            "print(speed.scale(took, (before, speed.sample_median())))")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def setup(workload: str, scale: str, input_seed: int, workdir: str):
    """Generate the networks, write their files and load expected answers."""
    import workloads

    nets = workloads.networks(workload, scale, input_seed)
    queries = workloads.write_inputs(workload, nets, workdir)
    expected = workloads.load_expected(workload, input_seed)
    return queries, expected


def run_pass(queries, tracer=None):
    """One pass; returns ([(query, rc, stdout, stderr, seconds)], speed
    samples: one before each query and one after the last)."""
    results, samples = [], []
    for q in queries:
        samples.append(speed.sample())
        results.append((q, *call_cli(q.argv, tracer, q.qid)))
    samples.append(speed.sample())
    return results, samples


def _scale_layers(metrics: dict, factor: float) -> dict:
    """Per-layer metrics of a traced pass at nominal speed."""
    scaled = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        scaled[name] = (value, unit)
    return scaled


class Checker:
    """Validates outputs: the first output of a query in full, every later
    one by equality with the first (which also compares traced passes with
    untraced ones)."""

    def __init__(self, workload, expected, workdir):
        self.workload = workload
        self.expected = expected
        self.workdir = workdir
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _fail(self, qid: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{qid}: {reason}")

    def check(self, results) -> None:
        import workloads

        for q, rc, stdout, stderr, _ in results:
            self.attempted += 1
            path = os.path.join(self.workdir, q.network + ".bnet")
            try:
                if rc != 0:
                    raise ValueError(f"exit code {rc}: {stderr.strip()[-200:]}")
                canon = workloads.canonical_output(q, stdout)
                if q.qid not in self.first:
                    reason = workloads.check_output(self.workload, q, stdout,
                                                    self.expected, path)
                    if reason:
                        raise ValueError(reason)
                    self.first[q.qid] = canon
                elif canon != self.first[q.qid]:
                    raise ValueError("output differs from an earlier pass")
            except (ValueError, KeyError, TypeError) as exc:
                self._fail(q.qid, str(exc))

    def check_corpus_answers(self, queries) -> None:
        """corpus-check prints only OK; compare the solver's own answers,
        through the CLI and outside the timed passes, with the oracle's."""
        import workloads

        if self.workload != "corpus-check" or self.expected is None:
            return
        for q in queries:
            path = os.path.join(self.workdir, q.network + ".bnet")
            got = workloads.corpus_answers(path, lambda argv: call_cli(argv)[:2])
            if got != self.expected[q.network]:
                self._fail(q.qid, f"solver answers {got} != oracle {self.expected[q.network]}")


def _p95(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def run_workload(workload: str, scale: str, seed: int, seconds: float, trace: bool,
                 input_seed: int = 0, expected_override=None, log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import tracing
    import workloads

    workdir = os.path.join(WORK_DIR, f"{workload}-{scale}-input{input_seed}")
    imports, setups = [], []

    def set_up_round():
        # the machine's speed drifts over seconds: samples taken between
        # the passes see the same drift as the passes
        for _ in range(SAMPLES_PER_ROUND):
            imports.append(time_import())
            before = speed.sample_median()
            t0 = time.perf_counter()
            inputs = setup(workload, scale, input_seed, workdir)
            set_up = time.perf_counter() - t0
            setups.append(speed.scale(set_up, (before, speed.sample_median())))
        return inputs

    queries, expected = set_up_round()
    if expected_override is not None:
        expected = expected_override
    random.Random(seed).shuffle(queries)

    checker = Checker(workload, expected, workdir)
    untraced_passes, traced_passes, latencies, layers = [], [], [], []
    wall_passes, samples = [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    last = 0.0
    while not untraced_passes or time.perf_counter() - start + last <= seconds:
        if untraced_passes and not trace:
            set_up_round()
        t0 = time.perf_counter()
        results, pass_samples = run_pass(queries)
        last = time.perf_counter() - t0
        raw = [r[4] for r in results]
        scaled = speed.scale_pass(raw, pass_samples)
        untraced_passes.append(sum(scaled))
        wall_passes.append(sum(raw))
        samples.extend(pass_samples)
        latencies.extend(s * 1000.0 for s in scaled)
        checker.check(results)
        if trace:
            first = len(tracer.spans)
            t0 = time.perf_counter()
            with tracer.installed():
                results, pass_samples = run_pass(queries, tracer)
            last += time.perf_counter() - t0
            raw = [r[4] for r in results]
            traced_passes.append(sum(speed.scale_pass(raw, pass_samples)))
            layers.append(_scale_layers(
                tracing.layer_metrics(tracer.spans, first, sum(raw), workloads.SPANS),
                speed.scale(1.0, pass_samples)))
            checker.check(results)
    checker.check_corpus_answers(queries)

    for reason in checker.reasons:
        log(f"FAILED {reason}")
    log(f"# {workload} scale={scale} seed={seed} input_seed={input_seed}: "
        f"{len(untraced_passes)} untraced and {len(traced_passes)} traced passes "
        f"of {len(queries)} queries")
    if trace:
        metrics = {}
        for name, (_, unit) in layers[0].items():
            metrics[name] = {"value": statistics.median(m[name][0] for m in layers),
                             "unit": unit}
        traced = statistics.median(traced_passes)
        untraced = statistics.median(untraced_passes)
        metrics["trace.pass_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": (traced - untraced) / untraced,
                                          "unit": "ratio"}
        metrics["wall.pass_s"] = {"value": statistics.median(wall_passes), "unit": "s"}
        metrics["speed.sample_ms"] = {"value": statistics.median(samples) * 1000.0,
                                      "unit": "ms"}
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.dump(os.path.join(WORK_DIR, f"trace-{workload}-{scale}-seed{seed}.json"))
        log(f"# per-layer self times, counts and ratios (median of {len(layers)} traced passes)")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(imports) + statistics.median(setups),
                        "unit": "s"},
            "pass_s": {"value": statistics.median(untraced_passes), "unit": "s"},
            "query_ms_p50": {"value": statistics.median(latencies), "unit": "ms"},
            "query_ms_p95": {"value": _p95(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        log(f"# {len(latencies)} query latencies ({len(latencies) // 20} beyond p95), "
            f"{len(untraced_passes)} passes, {len(imports)} imports, "
            f"{len(setups)} set-ups")
    for name, m in metrics.items():
        log(f"{name:34s} {m['value']:>16.6f} {m['unit']}")
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus-check", "nk-min", "dense-export"])
    parser.add_argument("--seed", type=int, default=0, help="shuffles the query order")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["timed", "full", "smoke"], default="timed")
    parser.add_argument("--input-seed", type=int, default=0,
                        help="0 runs the committed networks; any other value "
                             "generates fresh ones, checked without expected answers")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trapspaces", "__init__.py")):
        print(f"error: no trapspaces sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run_workload(args.workload, args.scale, args.seed, args.seconds,
                          bool(args.trace), args.input_seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
