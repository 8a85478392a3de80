"""Command-line interface.

One renderer owns every command's output and exit code: it writes the
result's text, or its JSON document under --json where it has one, to
stdout or -o, warns on stderr when the result is incomplete, and maps why
the command stopped to the exit code: 0 success, 1 usage error, 2 input
error or a check mismatch, 3 resource limit (support/state caps, solver
timeout, truncated enumeration).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import analysis as _analysis
from . import bnet as _bnet
from . import dynamics as _dynamics
from . import encode as _encode
from . import expr as _expr
from . import randgen as _randgen
from . import solver as _solver
from ._value import Value
from .errors import CapExceededError, SupportTooLargeError, TrapSpacesError
from .primes import build_graph
from .space import BooleanNetwork, Subspace, select_trap_spaces

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # an argument made only of 0, 1 and - is a subspace pattern such as
        # --1-, so a value; the bare -- stays the argument separator
        if arg_string != "--" and not arg_string.strip("01-"):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first ``run`` of a process and
    reused by every later one (parse results live in fresh namespaces)."""
    parser = _Parser(prog="trapspaces", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--timeout", type=float, default=_solver.DEFAULT_TIMEOUT,
                        metavar="S", help="wall-clock budget in seconds of each solver "
                        "search (check runs three, commitment two); parsing, prime "
                        "enumeration and the exhaustive oracle are not timed")
    parser.add_argument("--limit", type=int, default=_solver.DEFAULT_LIMIT,
                        metavar="COUNT", help="maximum number of solutions")
    parser.add_argument("--support-cap", type=int, default=_expr.DEFAULT_SUPPORT_CAP,
                        metavar="K", help="per-function support cap")
    parser.add_argument("--stg-cap", type=int, default=None, metavar="N",
                        help="cap for exhaustive state enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in [
        ("primes", "list the prime implicant hyperarcs"),
        ("steady", "all steady states"),
        ("bound", "lower bound on the number of cyclic attractors"),
        ("commitment", "commitment table of the maximal trap spaces (CSV)"),
        ("check", "cross-validate the solver against the exhaustive oracle"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file", help="network file")

    p = sub.add_parser("trapspaces", help="minimal/maximal/all trap spaces")
    p.add_argument("--mode", choices=["min", "max", "all"], default="min")
    p.add_argument("file")

    p = sub.add_parser("attractors", help="attractors of the transition graph")
    p.add_argument("--update", choices=["sync", "async"], default="async")
    p.add_argument("file")

    p = sub.add_parser("audit", help="attractor containment in minimal trap spaces")
    p.add_argument("--update", choices=["sync", "async"], default="async")
    p.add_argument("file")

    p = sub.add_parser("reduce", help="divide out the fixed variables of a trap space")
    p.add_argument("--space", required=True, metavar="PATTERN",
                   help="subspace over {0,1,-}, e.g. 1--1 or --1-; a bare -- ends "
                   "the options, so the whole space of two variables is --space=--")
    p.add_argument("--unchecked", action="store_true",
                   help="skip the trap-space precondition")
    p.add_argument("file")

    p = sub.add_parser("random", help="generate a random network file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, default=_randgen.DEFAULT_MEAN_DEGREE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree-cap", type=int, default=_randgen.DEFAULT_DEGREE_CAP)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("bench", help="random-network benchmark loop (CSV)")
    p.add_argument("--sizes", required=True, metavar="N1,N2,...")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--k", type=float, default=_randgen.DEFAULT_MEAN_DEGREE)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("encode", help="emit the ASP or ILP encoding")
    p.add_argument("--format", choices=["asp", "ilp"], required=True)
    p.add_argument("--mode", choices=["min", "max"], required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("file")

    return parser


def _require(ok: bool, flag: str, expected: str, value) -> None:
    """Refuse ``flag``'s ``value`` as a usage error unless ``ok``."""
    if not ok:
        raise _UsageError(f"argument {flag}: must be {expected}, got {value}")


def _require_k(k: float) -> None:
    _require(math.isfinite(k) and k >= 0, "--k", "a finite non-negative number", k)


class _Result(Value):
    """What a command produced. ``text`` is its plain output and ``doc`` its
    ``--json`` document (None where it has none). ``stop`` says why it
    stopped: "complete", "limit", "timeout", "cap" (``commitment``) or
    "mismatch" (``check``).
    ``notes`` go to stderr along with the text form."""

    __slots__ = _fields = ("text", "doc", "stop", "notes")
    __hash__ = None
    text: str
    doc: object
    stop: str
    notes: tuple[str, ...]

    def __init__(self, text: str, doc: object = None, stop: str = "complete",
                 notes: tuple[str, ...] = ()):
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "doc", doc)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "notes", notes)


_EXIT = {"complete": EXIT_OK, "limit": EXIT_RESOURCE, "timeout": EXIT_RESOURCE,
         "cap": EXIT_RESOURCE, "mismatch": EXIT_INPUT}
_WARNINGS = {
    "limit": "warning: enumeration truncated by --limit",
    "timeout": "resource limit: solver wall-clock budget exhausted; "
               "the results printed are those found before it",
    "cap": "resource limit: the state transition graph exceeds --stg-cap; "
           "the attractor rows are left out",
}


def _render(result: _Result, args) -> int:
    """Write ``result`` to stdout, or to ``-o`` where the command has one:
    its JSON document under ``--json`` where it has one, else its notes
    (to stderr) and its text. Warn when the results are incomplete, and
    return the exit code of its stop reason."""
    if args.json and result.doc is not None:
        out = json.dumps(result.doc) + "\n"
    else:
        for note in result.notes:
            print(note, file=sys.stderr)
        out = result.text
    path = getattr(args, "output", None)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)
    if result.stop in _WARNINGS:
        print(_WARNINGS[result.stop], file=sys.stderr)
    return _EXIT[result.stop]


def _lines(items) -> str:
    return "".join(f"{item}\n" for item in items)


def _spaces(net: BooleanNetwork, mode: str, spaces: list[Subspace], stop: str,
            **more) -> _Result:
    """One pattern per line; in JSON each space maps its fixed variables to
    their values, and ``more`` follows the spaces."""
    notes = ()
    if mode == "min" and spaces == [Subspace.whole(net.n)]:
        notes = ("# no proper trap space exists; the whole space "
                 "is the unique minimal trap space",)
    doc = {"mode": mode, "spaces": [{net.variables[i]: p.value(i) for i in p.fixed_vars()}
                                    for p in spaces], **more}
    return _Result(_lines(spaces), doc, stop, notes)


def _cmd_primes(args, net: BooleanNetwork) -> _Result:
    names = net.variables
    rows = []
    for a, tail, (hv, hc) in build_graph(net).arcs:
        tail_text = ",".join(f"{names[v]}={c}" for v, c in tail)
        rows.append(f"{a} {tail_text} -> {names[hv]}={hc}")
    return _Result(_lines(rows))


def _cmd_trapspaces(args, net: BooleanNetwork) -> _Result:
    if args.mode == "all":
        spaces = _dynamics.brute_force_trap_spaces(net, "all", args.stg_cap)
        stop = "limit" if len(spaces) > args.limit else "complete"
        return _spaces(net, "all", spaces[:args.limit], stop)
    g = build_graph(net)
    fn = _solver.min_trap_spaces if args.mode == "min" else _solver.max_trap_spaces
    result = _solver._record(fn, net, args.limit, args.timeout, g)
    stats = {"arcs": g.m, "iterations": result.iterations, "nodes": result.nodes,
             "elapsed": result.elapsed, "complete": result.complete, "stop": result.stop}
    return _spaces(net, args.mode, result.spaces, result.stop,
                   witnesses=[list(w.arc_ids) for w in result.witnesses], stats=stats)


def _cmd_steady(args, net: BooleanNetwork) -> _Result:
    states, stop = _solver._steady_upto(net, args.limit, args.timeout, build_graph(net))
    return _spaces(net, "steady", states, stop)


def _cmd_attractors(args, net: BooleanNetwork) -> _Result:
    state_format = f"0{net.n}b"
    rows, doc = [], []
    stg = _dynamics.build_stg(net, args.update, args.stg_cap)
    for a, enclosing in zip(*_analysis._attractors(stg)):
        states = [format(x, state_format) for x in a[:64]]
        doc.append({"size": len(a), "enclosing": str(enclosing), "states": states})
        more = f" ... ({len(a) - 64} more)" if len(a) > 64 else ""
        rows.append(f"{len(a)} {enclosing} {' '.join(states)}{more}")
    return _Result(_lines(rows), {"update": args.update, "attractors": doc})


def _cmd_reduce(args, net: BooleanNetwork) -> _Result:
    reduced = _analysis.reduce(net, Subspace.from_str(args.space), unchecked=args.unchecked)
    return _Result(_bnet.write_network(reduced.network))


def _cmd_bound(args, net: BooleanNetwork) -> _Result:
    bound = _analysis.cyclic_attractor_lower_bound(net, args.limit, args.timeout)
    rows = [f"cyclic attractors >= {bound.count}"] + [
        f"{p} oscillating among: {' '.join(names)}"
        for p, names in zip(bound.witnesses, bound.oscillating_candidates)]
    doc = {
        "lower_bound": bound.count,
        "witnesses": [str(p) for p in bound.witnesses],
        "oscillating_candidates": bound.oscillating_candidates,
    }
    return _Result(_lines(rows), doc, bound.stop)


def _cmd_commitment(args, net: BooleanNetwork) -> _Result:
    table = _analysis.commitment_table(net, args.stg_cap, args.limit, args.timeout)
    rows = [["row"] + table.spaces, ["steady"] + table.steady_counts]
    for label, counts in (("sync-cyclic", table.sync_cyclic_counts),
                          ("async-cyclic", table.async_cyclic_counts)):
        if counts is not None:
            rows.append([label] + counts)
    return _Result(_lines(",".join(map(str, row)) for row in rows), stop=table.stop)


def _cmd_audit(args, net: BooleanNetwork) -> _Result:
    audit = _analysis.attractor_trapspace_audit(net, args.update, stg_cap=args.stg_cap,
                                                limit=args.limit, timeout=args.timeout)
    rows = [f"{a.space} attractors={a.attractor_count} "
            + (" ".join("tight" if t else "loose" for t in a.tight) or "-")
            for a in audit.per_space]
    rows.append(f"attractors outside all minimal trap spaces: {len(audit.outside)}")
    doc = {
        "update": audit.rule,
        "spaces": [
            {"space": str(a.space), "attractors": a.attractor_count, "tight": a.tight}
            for a in audit.per_space
        ],
        "outside": [len(a) for a in audit.outside],
    }
    return _Result(_lines(rows), doc, audit.stop)


def _cmd_check(args, net: BooleanNetwork) -> _Result:
    oracle = _dynamics.brute_force_trap_spaces(net, "all", args.stg_cap)
    oracle_min = select_trap_spaces(oracle, "min")
    oracle_max = select_trap_spaces(oracle, "max")
    g = build_graph(net)
    got_min = _solver._record(_solver.min_trap_spaces, net, args.limit, args.timeout, g)
    got_max = _solver._record(_solver.max_trap_spaces, net, args.limit, args.timeout, g)
    got_steady, steady_stop = _solver._steady_upto(net, args.limit, args.timeout, g)
    oracle_steady = [p for p in oracle_min if p.is_state]
    failures = []
    for label, got, got_stop, expected in [
        ("min", got_min.spaces, got_min.stop, oracle_min),
        ("max", got_max.spaces, got_max.stop, oracle_max),
        ("steady", got_steady, steady_stop, oracle_steady),
    ]:
        # both lists are sorted by pattern; one cut short must still hold
        # only oracle spaces
        if not (got == expected if got_stop == "complete" else set(got) <= set(expected)):
            failures.append(f"MISMATCH {label}: solver={list(map(str, got))} "
                            f"oracle={list(map(str, expected))}")
    if failures:
        return _Result("", stop="mismatch", notes=tuple(failures))
    stop = _solver._worst(got_min.stop, got_max.stop, steady_stop)
    return _Result("OK\n" if stop == "complete" else "", stop=stop)


def _cmd_random(args, _net: None) -> _Result:
    _require(args.n >= 1, "--n", "at least 1", args.n)
    _require(args.degree_cap >= 1, "--degree-cap", "at least 1", args.degree_cap)
    _require_k(args.k)
    cfg = _randgen.GeneratorConfig(n=args.n, k=args.k, seed=args.seed,
                                   degree_cap=args.degree_cap)
    # each function's table has 2^degree rows: refuse before generating any
    degree = min(cfg.degree_cap, cfg.n)
    if degree > args.support_cap:
        raise SupportTooLargeError(degree, args.support_cap)
    return _Result(_bnet.write_network(_randgen.generate(cfg)))


def _cmd_bench(args, _net: None) -> _Result:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --sizes value: {args.sizes!r}") from exc
    _require(bool(sizes), "--sizes", "at least one size", repr(args.sizes))
    for n in sizes:
        _require(n >= 1, "--sizes", "at least 1 each", n)
    _require(args.reps >= 1, "--reps", "at least 1", args.reps)
    _require_k(args.k)
    rows = ["# in-degree sampled from Poisson(k) clamped to [1, min(degree-cap, n)]",
            "n,seed,primes,n_min,mean_fixed_min,ms_min,n_max,mean_fixed_max,ms_max"]
    runs = [n for n in sizes for _ in range(args.reps)]
    stop = "complete"
    for seed, n in enumerate(runs, start=args.seed):
        net = _randgen.generate(_randgen.GeneratorConfig(n=n, k=args.k, seed=seed))
        net = BooleanNetwork(net.variables, net.functions, args.support_cap)
        g = build_graph(net)
        row = [n, seed, g.m]
        for fn in (_solver.min_trap_spaces, _solver.max_trap_spaces):
            result = _solver._record(fn, net, args.limit, args.timeout, g)
            stop = _solver._worst(stop, result.stop)
            if stop == "timeout":
                # the first timed-out search ends the grid
                return _Result(_lines(rows), stop=stop)
            fixed = [sol.induced.num_fixed for sol in result.solutions]
            mean_fixed = sum(fixed) / len(fixed) if fixed else 0.0
            row.extend([len(fixed), f"{mean_fixed:.2f}", f"{result.elapsed * 1000.0:.1f}"])
        rows.append(",".join(map(str, row)))
    return _Result(_lines(rows), stop=stop)


def _cmd_encode(args, net: BooleanNetwork) -> _Result:
    emit = _encode.emit_asp if args.format == "asp" else _encode.emit_ilp
    return _Result(emit(build_graph(net), args.mode))


_COMMANDS = {
    "primes": _cmd_primes, "trapspaces": _cmd_trapspaces, "steady": _cmd_steady,
    "attractors": _cmd_attractors, "reduce": _cmd_reduce, "bound": _cmd_bound,
    "commitment": _cmd_commitment, "audit": _cmd_audit, "check": _cmd_check,
    "random": _cmd_random, "bench": _cmd_bench, "encode": _cmd_encode,
}


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        _require(args.limit >= 1, "--limit", "at least 1", args.limit)
        # NaN compares false to every deadline, so it would remove the budget;
        # it fails this test too
        _require(args.timeout >= 0, "--timeout", "a non-negative number", args.timeout)
        for flag, cap in (("--support-cap", args.support_cap), ("--stg-cap", args.stg_cap)):
            _require(cap is None or cap >= 0, flag, "non-negative", cap)
        net = _bnet.load_network(args.file, args.support_cap) if "file" in args else None
        return _render(_COMMANDS[args.command](args, net), args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceededError, SupportTooLargeError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, ValueError, TrapSpacesError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
