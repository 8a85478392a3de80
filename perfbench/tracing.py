"""Span recording around the layer entry points the CLI calls.

Nothing under ``src/`` is edited: while a traced pass runs, the public
functions listed in ``TARGETS`` are replaced by wrappers that record a span
(name, start, end, parent, query id) plus a few counts taken from the
returned value, and the originals are put back afterwards. Spans stay in
memory and are written out when the run ends.

A layer's self time is its spans' duration minus the time their child spans
cover. Spans of one thread nest, so the covered time is the children's sum.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from trapspaces import bnet, cli, dynamics, encode, solver
from trapspaces.errors import SolverTimeoutError


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    query: Optional[str] = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _report_counts(report) -> dict:
    return {"spaces": len(report.spaces)}


def _search_counts(result) -> dict:
    return {"iterations": result.iterations, "nodes": result.nodes}


def _text_counts(text: str) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


# (module, attribute, span name, counts taken from the return value)
TARGETS: list[tuple[object, str, str, Optional[Callable]]] = [
    (bnet, "load_network", "bnet", None),
    (cli, "build_graph", "primes", lambda g: {"arcs": len(g.arcs)}),
    (solver, "min_trap_spaces", "solver.min", _report_counts),
    (solver, "max_trap_spaces", "solver.max", _report_counts),
    (solver, "steady_states", "solver.steady", lambda states: {"spaces": len(states)}),
    (solver, "enumerate_extremal", "solver.search", _search_counts),
    (dynamics, "brute_force_trap_spaces", "dynamics", None),
    (encode, "emit_asp", "encode", _text_counts),
    (encode, "emit_ilp", "encode", _text_counts),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.query: Optional[str] = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, query=self.query))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str, counts: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except SolverTimeoutError:
                self.spans[idx].counts["timeouts"] = 1
                raise
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx].counts.update(counts(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every target by its traced wrapper for the duration."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, counts), (_, _, fn) in zip(TARGETS, originals):
                setattr(mod, attr, self.wrap(fn, name, counts))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s.__dict__ for s in self.spans], handle)


def self_times(spans: list[Span], first: int) -> list[float]:
    """Self time of each span from index ``first`` on."""
    selfs = [s.duration for s in spans[first:]]
    for s in spans[first:]:
        if s.parent is not None and s.parent >= first:
            selfs[s.parent - first] -= s.duration
    return selfs


def check_spans(own: list[Span], expected: dict) -> None:
    """Raises unless every query of the pass recorded a span of each layer
    its label reaches, so that a layer call the wrappers miss (say, through
    a new import path) shows instead of being counted as ``cli`` self time.
    ``expected`` maps a query label (the part of the query id after the
    last "/") to span names. How often each is called is not checked: that
    is what ``dynamics.oracle_calls`` and the other counts report."""
    got: dict[str, set] = defaultdict(set)
    for s in own:
        got[s.query].add(s.name)
    for query, names in got.items():
        missing = set(expected[query.rsplit("/", 1)[1]]) - names
        if missing:
            raise RuntimeError(f"{query}: no span of {sorted(missing)}")


def layer_metrics(spans: list[Span], first: int, pass_s: float, expected: dict) -> dict:
    """Per-layer totals of one traced pass (the spans from index ``first``).

    Raises if the spans do not account for the pass: each query must record
    the layers ``expected`` names for it (see ``check_spans``), and the root
    spans must cover all but a small harness share of the pass.
    """
    own = spans[first:]
    check_spans(own, expected)
    selfs = self_times(spans, first)
    roots = sum(s.duration for s in own if s.parent is None)
    harness = pass_s - roots
    if harness < 0 or harness > 0.05 * pass_s:
        raise RuntimeError(f"root spans cover {roots:.6f} s of a {pass_s:.6f} s pass")

    def total(name: str) -> float:
        return sum(x for s, x in zip(own, selfs) if s.name == name)

    def count(name: str, key: str, parent: Optional[str] = None) -> int:
        return sum(s.counts.get(key, 0) for s in own if s.name == name
                   and (parent is None or spans[s.parent].name == parent))

    def search_s(parent: str) -> float:
        return sum(s.duration for s in own
                   if s.name == "solver.search" and spans[s.parent].name == parent)

    builds = [s.duration * 1000.0 for s in own if s.name == "primes"]
    search_total = total("solver.search")
    nodes = count("solver.search", "nodes")
    max_iterations = count("solver.search", "iterations", "solver.max")
    # a timeout passes through every wrapped caller; count queries, not spans
    timeouts = len({s.query for s in own if s.counts.get("timeouts")})
    return {
        "cli.self_s": (total("cli"), "s"),
        "bnet.load_s": (total("bnet"), "s"),
        "primes.build_s": (total("primes"), "s"),
        "primes.build_ms_p50": (statistics.median(builds) if builds else 0.0, "ms"),
        "primes.arcs": (count("primes", "arcs"), "count"),
        "solver.min.search_s": (search_s("solver.min"), "s"),
        "solver.max.search_s": (search_s("solver.max"), "s"),
        "solver.steady.search_s": (search_s("solver.steady"), "s"),
        "solver.report_s": (total("solver.min") + total("solver.max")
                            + total("solver.steady"), "s"),
        "solver.min.iterations": (count("solver.search", "iterations", "solver.min"), "count"),
        "solver.max.iterations": (max_iterations, "count"),
        "solver.min.nodes": (count("solver.search", "nodes", "solver.min"), "count"),
        "solver.max.nodes": (count("solver.search", "nodes", "solver.max"), "count"),
        "solver.max.spaces_per_iteration": (
            count("solver.max", "spaces") / max_iterations if max_iterations else 0.0,
            "ratio"),
        "solver.nodes_per_s": (nodes / search_total if search_total else 0.0, "1/s"),
        "solver.timeouts": (timeouts, "count"),
        "dynamics.oracle_s": (total("dynamics"), "s"),
        "dynamics.oracle_calls": (sum(1 for s in own if s.name == "dynamics"), "count"),
        "encode.emit_s": (total("encode"), "s"),
        "encode.bytes": (count("encode", "bytes"), "B"),
        "bench.harness_s": (harness, "s"),
    }
