"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 input error, 3 resource limit
(support/state caps, solver timeout, truncated enumeration).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import analysis as _analysis
from . import bnet as _bnet
from . import dynamics as _dynamics
from . import encode as _encode
from . import expr as _expr
from . import randgen as _randgen
from . import solver as _solver
from .errors import (
    CapExceededError,
    SolverTimeoutError,
    SupportTooLargeError,
    TrapSpacesError,
)
from .primes import build_graph
from .space import BooleanNetwork, Subspace, smallest_enclosing_subspace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first ``run`` of a process and
    reused by every later one (parse results live in fresh namespaces)."""
    parser = _Parser(prog="trapspaces", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--timeout", type=float, default=_solver.DEFAULT_TIMEOUT,
                        metavar="S", help="solver wall-clock budget in seconds")
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
                   help="subspace over {0,1,-}, e.g. 1--1")
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
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("encode", help="emit the ASP or ILP encoding")
    p.add_argument("--format", choices=["asp", "ilp"], required=True)
    p.add_argument("--mode", choices=["min", "max"], required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("file")

    return parser


def _load(args) -> BooleanNetwork:
    return _bnet.load_network(args.file, args.support_cap)


def _space_json(net: BooleanNetwork, p: Subspace) -> dict:
    return {net.variables[i]: p.value(i) for i in p.fixed_vars()}


def _report_json(net, report) -> dict:
    return {
        "mode": report.mode,
        "spaces": [_space_json(net, p) for p in report.spaces],
        "witnesses": [list(w.arc_ids) for w in report.witnesses],
        "stats": report.stats,
    }


def _stopped(stop: str) -> int:
    """The exit code for a solve that stopped for ``stop``, after a warning
    on stderr when the results printed are incomplete."""
    if stop == "limit":
        print("warning: enumeration truncated by --limit", file=sys.stderr)
    elif stop == "timeout":
        print("resource limit: solver wall-clock budget exhausted; "
              "the results printed are those found before it", file=sys.stderr)
    return EXIT_OK if stop == "complete" else EXIT_RESOURCE


def _emit_report(net, report, args) -> int:
    if args.json:
        print(json.dumps(_report_json(net, report)))
    else:
        if report.mode == "min" and report.spaces == [Subspace.whole(net.n)]:
            print("# no proper trap space exists; the whole space "
                  "is the unique minimal trap space", file=sys.stderr)
        for p in report.spaces:
            print(p)
    return _stopped(report.stats["stop"])


def _cmd_primes(args) -> int:
    net = _load(args)
    g = build_graph(net, cap=args.support_cap)
    for arc in g.arcs:
        tail = ",".join(f"{net.variables[v]}={c}" for v, c in arc.tail)
        hv, hc = arc.head
        print(f"{arc.id} {tail} -> {net.variables[hv]}={hc}")
    return EXIT_OK


def _cmd_trapspaces(args) -> int:
    net = _load(args)
    if args.mode == "all":
        cap = args.stg_cap if args.stg_cap is not None else _dynamics.DEFAULT_BRUTE_FORCE_CAP
        spaces = _dynamics.brute_force_trap_spaces(net, "all", cap)
        if args.json:
            print(json.dumps({"mode": "all",
                              "spaces": [_space_json(net, p) for p in spaces]}))
        else:
            for p in spaces:
                print(p)
        return EXIT_OK
    g = build_graph(net, cap=args.support_cap)
    fn = _solver.min_trap_spaces if args.mode == "min" else _solver.max_trap_spaces
    try:
        report = fn(net, limit=args.limit, timeout=args.timeout, graph=g)
    except SolverTimeoutError as exc:
        report = _solver.trap_space_report(g, exc.partial, args.mode)
    return _emit_report(net, report, args)


def _cmd_steady(args) -> int:
    net = _load(args)
    g = build_graph(net, cap=args.support_cap)
    # one state more than the limit tells a truncated list from a full one
    try:
        states = _solver.steady_states(net, limit=args.limit + 1, timeout=args.timeout,
                                       graph=g)
        stop = "limit" if len(states) > args.limit else "complete"
    except SolverTimeoutError as exc:
        states, stop = _solver.spaces_of(exc.partial), "timeout"
    states = states[:args.limit]
    if args.json:
        print(json.dumps({"mode": "steady",
                          "spaces": [_space_json(net, x) for x in states]}))
    else:
        for x in states:
            print(x)
    return _stopped(stop)


def _cmd_attractors(args) -> int:
    net = _load(args)
    stg = _dynamics.build_stg(net, args.update, args.stg_cap)
    attrs = _dynamics.attractors(stg)
    if args.json:
        out = [
            {
                "size": len(a),
                "enclosing": str(smallest_enclosing_subspace(a, net.n)),
                "states": [str(Subspace.from_state(net.n, x)) for x in a[:64]],
            }
            for a in attrs
        ]
        print(json.dumps({"update": args.update, "attractors": out}))
        return EXIT_OK
    for a in attrs:
        enclosing = smallest_enclosing_subspace(a, net.n)
        if len(a) > 64:
            members = " ".join(str(Subspace.from_state(net.n, x)) for x in a[:64])
            members += f" ... ({len(a) - 64} more)"
        else:
            members = " ".join(str(Subspace.from_state(net.n, x)) for x in a)
        print(f"{len(a)} {enclosing} {members}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    net = _load(args)
    p = Subspace.from_str(args.space)
    if p.n != net.n:
        raise TrapSpacesError(
            f"pattern has {p.n} positions but the network has {net.n} variables"
        )
    reduced = _analysis.reduce(net, p, unchecked=args.unchecked)
    sys.stdout.write(_bnet.write_network(reduced.network))
    return EXIT_OK


def _cmd_bound(args) -> int:
    net = _load(args)
    bound = _analysis.cyclic_attractor_lower_bound(net, limit=args.limit,
                                                   timeout=args.timeout)
    if args.json:
        print(json.dumps({
            "lower_bound": bound.count,
            "witnesses": [str(p) for p in bound.witnesses],
            "oscillating_candidates": bound.oscillating_candidates,
        }))
    else:
        print(f"cyclic attractors >= {bound.count}")
        for p, names in zip(bound.witnesses, bound.oscillating_candidates):
            print(f"{p} oscillating among: {' '.join(names)}")
    return _stopped("complete" if bound.complete else "limit")


def _cmd_commitment(args) -> int:
    net = _load(args)
    table = _analysis.commitment_table(net, stg_cap=args.stg_cap,
                                       limit=args.limit, timeout=args.timeout)
    header = ["row"] + [str(p) for p in table.spaces]
    rows = [["steady"] + [str(c) for c in table.steady_counts]]
    if table.sync_cyclic_counts is not None:
        rows.append(["sync-cyclic"] + [str(c) for c in table.sync_cyclic_counts])
    if table.async_cyclic_counts is not None:
        rows.append(["async-cyclic"] + [str(c) for c in table.async_cyclic_counts])
    print(",".join(header))
    for row in rows:
        print(",".join(row))
    return _stopped("complete" if table.complete else "limit")


def _cmd_audit(args) -> int:
    net = _load(args)
    audit = _analysis.attractor_trapspace_audit(net, args.update, stg_cap=args.stg_cap,
                                                limit=args.limit, timeout=args.timeout)
    if args.json:
        print(json.dumps({
            "update": audit.rule,
            "spaces": [
                {"space": str(a.space), "attractors": a.attractor_count,
                 "tight": a.tight}
                for a in audit.per_space
            ],
            "outside": [len(a) for a in audit.outside],
        }))
    else:
        for a in audit.per_space:
            tight = " ".join("tight" if t else "loose" for t in a.tight) or "-"
            print(f"{a.space} attractors={a.attractor_count} {tight}")
        print(f"attractors outside all minimal trap spaces: {len(audit.outside)}")
    return _stopped("complete" if audit.complete else "limit")


def _cmd_check(args) -> int:
    net = _load(args)
    cap = args.stg_cap if args.stg_cap is not None else _dynamics.DEFAULT_BRUTE_FORCE_CAP
    oracle = _dynamics.brute_force_trap_spaces(net, "all", cap)
    oracle_min = _dynamics.select_trap_spaces(oracle, "min")
    oracle_max = _dynamics.select_trap_spaces(oracle, "max")
    g = build_graph(net, cap=args.support_cap)
    got_min = _solver.min_trap_spaces(net, args.limit, args.timeout, graph=g)
    got_max = _solver.max_trap_spaces(net, args.limit, args.timeout, graph=g)
    # one state more than the limit tells a truncated list from a full one
    got_steady = _solver.steady_states(net, args.limit + 1, args.timeout, graph=g)
    oracle_steady = [p for p in oracle_min if p.is_state]
    failures = []
    truncated = False
    for label, got, complete, expected in [
        ("min", got_min.spaces, got_min.stats["stop"] == "complete", oracle_min),
        ("max", got_max.spaces, got_max.stats["stop"] == "complete", oracle_max),
        ("steady", got_steady[:args.limit], len(got_steady) <= args.limit, oracle_steady),
    ]:
        got_text = sorted(map(str, got))
        expected_text = sorted(map(str, expected))
        if complete:
            ok = got_text == expected_text
        else:
            # a list cut short by --limit must still hold only oracle spaces
            ok = set(got_text) <= set(expected_text)
            truncated = True
        if not ok:
            failures.append(f"{label}: solver={got_text} oracle={expected_text}")
    if failures:
        for line in failures:
            print(f"MISMATCH {line}", file=sys.stderr)
        return EXIT_INPUT
    if truncated:
        return _stopped("limit")
    print("OK")
    return EXIT_OK


def _cmd_random(args) -> int:
    cfg = _randgen.GeneratorConfig(n=args.n, k=args.k, seed=args.seed,
                                   degree_cap=args.degree_cap)
    text = _bnet.write_network(_randgen.generate(cfg))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _bench_one(task) -> list:
    n, k, seed, limit, timeout, support_cap = task
    net = _randgen.generate(_randgen.GeneratorConfig(n=n, k=k, seed=seed))
    g = build_graph(net, cap=support_cap)
    row = [n, seed, len(g.arcs)]
    for mode in ("min", "max"):
        fn = _solver.min_trap_spaces if mode == "min" else _solver.max_trap_spaces
        start = time.monotonic()
        report = fn(net, limit=limit, timeout=timeout, graph=g)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        fixed = [p.num_fixed for p in report.spaces]
        mean_fixed = sum(fixed) / len(fixed) if fixed else 0.0
        row.extend([len(report.spaces), f"{mean_fixed:.2f}", f"{elapsed_ms:.1f}"])
    return row


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --sizes value: {args.sizes!r}") from exc
    tasks = []
    counter = 0
    for n in sizes:
        for _ in range(args.reps):
            tasks.append((n, args.k, args.seed + counter, args.limit,
                          args.timeout, args.support_cap))
            counter += 1
    print("# in-degree sampled from Poisson(k) clamped to [1, min(degree-cap, n)]")
    print("n,seed,primes,n_min,mean_fixed_min,ms_min,n_max,mean_fixed_max,ms_max")
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_one, tasks))
    else:
        rows = [_bench_one(task) for task in tasks]
    for row in rows:
        print(",".join(str(c) for c in row))
    return EXIT_OK


def _cmd_encode(args) -> int:
    net = _load(args)
    g = build_graph(net, cap=args.support_cap)
    emit = _encode.emit_asp if args.format == "asp" else _encode.emit_ilp
    text = emit(g, args.mode)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "primes": _cmd_primes,
    "trapspaces": _cmd_trapspaces,
    "steady": _cmd_steady,
    "attractors": _cmd_attractors,
    "reduce": _cmd_reduce,
    "bound": _cmd_bound,
    "commitment": _cmd_commitment,
    "audit": _cmd_audit,
    "check": _cmd_check,
    "random": _cmd_random,
    "bench": _cmd_bench,
    "encode": _cmd_encode,
}


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceededError, SupportTooLargeError, SolverTimeoutError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, ValueError, TrapSpacesError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
