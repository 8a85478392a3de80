"""Desk-scale exhaustive dynamics: transition graphs, attractors and the
brute-force trap-space oracle.

State integers follow the package convention (v1 = most significant bit).
Caps are configuration, not constants; exceeding one raises cleanly so the
solver path stays usable at any network size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import CapExceededError, TrapSpacesError
from .space import BooleanNetwork, Subspace, subspace_lt

DEFAULT_SYNC_CAP = 24
DEFAULT_ASYNC_CAP = 20
DEFAULT_BRUTE_FORCE_CAP = 12


@dataclass(frozen=True)
class StateTransitionGraph:
    rule: str  # "sync" | "async"
    n: int
    successors: tuple[tuple[int, ...], ...]


def build_stg(net: BooleanNetwork, rule: str, cap: Optional[int] = None) -> StateTransitionGraph:
    """Explicit transition graph under the synchronous or asynchronous rule.

    Asynchronous: x -> y iff x is steady and y = x, or y differs from x in a
    single variable whose flip moves x toward F(x).
    """
    if rule not in ("sync", "async"):
        raise TrapSpacesError(f"unknown update rule {rule!r}")
    if cap is None:
        cap = DEFAULT_SYNC_CAP if rule == "sync" else DEFAULT_ASYNC_CAP
    n = net.n
    if n > cap:
        raise CapExceededError(n, cap, what=f"{rule} transition graph")
    size = 1 << n
    successors = []
    for x in range(size):
        fx = net.image_int(x)
        if rule == "sync":
            successors.append((fx,))
        else:
            if fx == x:
                successors.append((x,))
            else:
                diff = fx ^ x
                succ = []
                for b in range(n - 1, -1, -1):
                    bit = 1 << b
                    if diff & bit:
                        succ.append(x ^ bit)
                succ.sort()
                successors.append(tuple(succ))
    return StateTransitionGraph(rule, n, tuple(successors))


def _tarjan_sccs(successors: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Iterative Tarjan over the explicit graph; returns SCCs."""
    size = len(successors)
    index = [-1] * size
    lowlink = [0] * size
    on_stack = bytearray(size)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(size):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = 1
            advanced = False
            succ = successors[node]
            while child_i < len(succ):
                target = succ[child_i]
                child_i += 1
                if index[target] == -1:
                    work[-1] = (node, child_i)
                    work.append((target, 0))
                    advanced = True
                    break
                if on_stack[target] and index[target] < lowlink[node]:
                    lowlink[node] = index[target]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


def attractors(stg: StateTransitionGraph) -> list[list[int]]:
    """Terminal strongly connected components, each sorted; the list is
    sorted by smallest member."""
    sccs = _tarjan_sccs(stg.successors)
    out = []
    for comp in sccs:
        members = set(comp)
        if all(y in members for x in comp for y in stg.successors[x]):
            out.append(sorted(comp))
    out.sort(key=lambda c: c[0])
    return out


def is_trap_set(stg: StateTransitionGraph, states: set[int]) -> bool:
    """True iff no transition leaves the given non-empty state set."""
    if not states:
        raise TrapSpacesError("the empty set is not a trap set")
    return all(y in states for x in states for y in stg.successors[x])


def brute_force_trap_spaces(
    net: BooleanNetwork,
    mode: str = "all",
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
) -> list[Subspace]:
    """Oracle: test all 3^n subspaces against the trap-space characterization.

    ``mode`` selects among them as in ``select_trap_spaces``.
    """
    if mode not in ("all", "min", "max"):
        raise TrapSpacesError(f"unknown mode {mode!r}")
    n = net.n
    if n > cap:
        raise CapExceededError(n, cap, what="subspace enumeration")
    image = [net.image_int(x) for x in range(1 << n)]
    full = (1 << n) - 1
    spaces = []
    # p is a trap space iff F(x) agrees with p on its fixed part for every
    # state x of p; walk the states lazily so failures exit early
    for choices in product(((0, 0), (full, 0), (full, full)), repeat=n):
        mask = vals = 0
        for i, (m, v) in enumerate(choices):
            bit = 1 << (n - 1 - i)
            mask |= m & bit
            vals |= v & bit
        free = full & ~mask
        sub = 0
        ok = True
        while True:
            x = vals | sub
            if (image[x] & mask) != vals:
                ok = False
                break
            if sub == free:
                break
            sub = (sub - free) & free
        if ok:
            spaces.append(Subspace(n, mask, vals))
    return select_trap_spaces(spaces, mode)


def select_trap_spaces(spaces: list[Subspace], mode: str) -> list[Subspace]:
    """The spaces of ``mode`` among all trap spaces ``spaces``, sorted by text.

    mode="all" keeps every one, "min" the inclusion-minimal ones and "max"
    the inclusion-maximal ones strictly below the whole space.
    """
    if mode == "min":
        spaces = [p for p in spaces if not any(subspace_lt(q, p) for q in spaces)]
    elif mode == "max":
        proper = [p for p in spaces if p.mask != 0]
        spaces = [p for p in proper if not any(subspace_lt(p, q) for q in proper)]
    elif mode != "all":
        raise TrapSpacesError(f"unknown mode {mode!r}")
    return sorted(spaces, key=str)
