"""Workload definitions: the networks each workload generates, the CLI
queries it sends, and how each query's output is checked.

Every workload has three scales. ``full`` is the workload as specified:
the whole 200-network acceptance corpus with its two known-hard instances,
n=100 and n=200 at the paper's scale, and three n=16 dense networks.
``timed`` is what one benchmark run can measure steadily, and what the
default run measures: part of the corpus, and smaller nk-min and
dense-export networks (README.md says why). ``smoke`` is a few queries for
the self-test. One expected-answer file per workload covers the networks
of all three scales.

Inputs are fixed by ``input_seed`` (0 gives the committed networks); the
run's ``--seed`` only shuffles the query order, so that ten seeds measure
the same work and their spread is the machine's, not the inputs'.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional

from trapspaces import bnet, primes, randgen, solver, space

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

SCALES = ("timed", "full", "smoke")

# tests/conftest.py::corpus, as used by acceptance criterion 2
CORPUS_SIZES = (4, 5, 6, 7, 8, 9, 10)
CORPUS_COUNT = 200
# the 3^n oracle and the max-mode search grow steeply with n; n <= 7 keeps
# a timed pass near 5 s, which leaves room for several passes per run
CORPUS_TIMED_MAX_N = 7

# at least 1.5x the slowest nk-min query that completes (n=200 seed 0,
# 19 s on 2 cores); n=200 seed 2 exhausts it and exits 3
NK_TIMEOUT_S = "30"


@dataclass(frozen=True)
class Network:
    name: str
    cfg: randgen.GeneratorConfig


@dataclass(frozen=True)
class Query:
    qid: str  # "<network>/<label>"
    network: str
    label: str
    argv: tuple[str, ...]


def _input_base(input_seed: int) -> int:
    return 1000 * input_seed


def corpus_networks(scale: str, input_seed: int = 0) -> list[Network]:
    base = _input_base(input_seed)
    nets = []
    for i in range(CORPUS_COUNT):
        n = CORPUS_SIZES[i % len(CORPUS_SIZES)]
        nets.append(Network(f"c{i:03d}-n{n}",
                            randgen.GeneratorConfig(n=n, k=3.0, seed=base + i)))
    if scale == "full":
        return nets
    timed = [net for net in nets if net.cfg.n <= CORPUS_TIMED_MAX_N]
    return timed if scale == "timed" else timed[:4]


def nk_networks(scale: str, input_seed: int = 0) -> list[Network]:
    base = _input_base(input_seed)
    if scale == "full":
        sizes = [(100, s) for s in range(4)] + [(200, s) for s in range(3)]
    else:
        # one n=100 query takes up to 12 s and n=200 up to the budget: too
        # few per run for a steady median. n=50 queries take 0.1-2 s, and
        # with 16 of them the median falls where their costs lie close
        sizes = [(50, s) for s in range(16 if scale == "timed" else 1)]
    return [Network(f"nk{n}-s{s}", randgen.GeneratorConfig(n=n, k=3.0, seed=base + s))
            for n, s in sizes]


def dense_networks(scale: str, input_seed: int = 0) -> list[Network]:
    base = _input_base(input_seed)
    if scale == "full":
        specs = [(16, 7.0, 9, s) for s in range(3)]
    else:
        # an n=16 query takes 4-6 s, too few per run for a steady median.
        # These take 40-90 ms, so a run makes some 30 passes over the 16
        # queries and its latency percentiles are steady; functions have up
        # to 6 inputs
        specs = [(10, 5.0, 6, s) for s in range(8 if scale == "timed" else 1)]
    return [Network(f"d{n}-s{s}",
                    randgen.GeneratorConfig(n=n, k=k, seed=base + s, degree_cap=cap))
            for n, k, cap, s in specs]


def _corpus_queries(path: str) -> list[tuple[str, tuple[str, ...]]]:
    return [("check", ("check", path))]


def _nk_queries(path: str) -> list[tuple[str, tuple[str, ...]]]:
    return [("min", ("--json", "--timeout", NK_TIMEOUT_S, "trapspaces",
                     "--mode", "min", path))]


def _dense_queries(path: str) -> list[tuple[str, tuple[str, ...]]]:
    return [
        ("asp-max", ("encode", "--format", "asp", "--mode", "max", path)),
        ("ilp-min", ("encode", "--format", "ilp", "--mode", "min", path)),
    ]


# the layers a traced query of each label reaches (see tracing.check_spans)
SPANS = {
    "check": ("cli", "bnet", "dynamics", "primes", "solver.min", "solver.max",
              "solver.steady", "solver.search"),
    "min": ("cli", "bnet", "primes", "solver.min", "solver.search"),
    "asp-max": ("cli", "bnet", "primes", "encode"),
    "ilp-min": ("cli", "bnet", "primes", "encode"),
}

WORKLOADS = {
    "corpus-check": (corpus_networks, _corpus_queries),
    "nk-min": (nk_networks, _nk_queries),
    "dense-export": (dense_networks, _dense_queries),
}


def networks(workload: str, scale: str, input_seed: int = 0) -> list[Network]:
    return WORKLOADS[workload][0](scale, input_seed)


def write_inputs(workload: str, nets: list[Network], workdir: str) -> list[Query]:
    """Write one network file per network and return the workload's queries."""
    os.makedirs(workdir, exist_ok=True)
    queries = []
    make_queries = WORKLOADS[workload][1]
    for net in nets:
        path = os.path.join(workdir, net.name + ".bnet")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(bnet.write_network(randgen.generate(net.cfg)))
        for label, argv in make_queries(path):
            queries.append(Query(f"{net.name}/{label}", net.name, label, argv))
    return queries


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, workload + ".json")


def load_expected(workload: str, input_seed: int) -> Optional[dict]:
    """Committed answers for the default inputs; None for any other input seed."""
    if input_seed != 0:
        return None
    with open(expected_path(workload), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------- checking


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_output(query: Query, stdout: str) -> str:
    """The part of an output that must repeat exactly from pass to pass."""
    if query.label == "min":
        doc = json.loads(stdout)
        doc.get("stats", {}).pop("elapsed", None)
        return json.dumps(doc, sort_keys=True)
    if query.label in ("asp-max", "ilp-min"):
        return sha256(stdout)
    return stdout


def space_pattern(net: space.BooleanNetwork, fixed: dict) -> str:
    return "".join(str(fixed[v]) if v in fixed else "-" for v in net.variables)


def check_output(workload: str, query: Query, stdout: str,
                 expected: Optional[dict], path: str) -> Optional[str]:
    """Validate the output of a query that exited 0; returns a reason on
    failure, else None. Later passes are compared with the first output.
    """
    if workload == "corpus-check":
        return None if stdout == "OK\n" else f"unexpected output {stdout[:80]!r}"
    if workload == "dense-export":
        if expected is None:
            return None if stdout.strip() else "empty encoding"
        want = expected[query.network][query.label]
        got = sha256(stdout)
        return None if got == want else f"sha256 {got} != {want}"
    # nk-min: compare the spaces, validate every witness
    net = bnet.load_network(path)
    doc = json.loads(stdout)
    spaces = [space_pattern(net, d) for d in doc["spaces"]]
    if expected is not None:
        want = expected[query.network]["min"]
        if want is None:
            return "expected a timeout at this commit, got an answer"
        if spaces != want:
            return f"spaces {spaces} != expected {want}"
    else:
        reason = structural_min_check(net, spaces)
        if reason:
            return reason
    g = primes.build_graph(net)
    for pattern, witness in zip(spaces, doc["witnesses"]):
        if not (solver.is_stable(g, witness) and solver.is_consistent(g, witness)):
            return f"witness of {pattern} is not stable and consistent"
        if witness and str(solver.induced_subspace(g, witness)) != pattern:
            return f"witness does not induce {pattern}"
    return None


def structural_min_check(net: space.BooleanNetwork, patterns: list[str]) -> Optional[str]:
    """Every space is a trap space and no two are comparable."""
    subs = [space.Subspace.from_str(p) for p in patterns]
    for p in subs:
        if not space.is_trap_space(net, p):
            return f"{p} is not a trap space"
    for i, p in enumerate(subs):
        for q in subs[i + 1:]:
            if space.subspace_leq(p, q) or space.subspace_leq(q, p):
                return f"{p} and {q} are comparable"
    return None


def corpus_answers(path: str, run_cli) -> dict:
    """The solver's min, max and steady answers for one corpus network, via
    the CLI, in the form the oracle's expected answers are stored."""
    net = bnet.load_network(path)
    out = {}
    for key, argv in (("min", ["--json", "trapspaces", "--mode", "min", path]),
                      ("max", ["--json", "trapspaces", "--mode", "max", path]),
                      ("steady", ["--json", "steady", path])):
        rc, stdout = run_cli(argv)
        out[key] = (sorted(space_pattern(net, d) for d in json.loads(stdout)["spaces"])
                    if rc == 0 else f"exit code {rc}")
    return out
