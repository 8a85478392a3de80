"""Desk-scale exhaustive dynamics: transition graphs, attractors and the
brute-force trap-space oracle.

State integers follow the package convention (v1 = most significant bit).
Both the oracle and the transition graphs read the network through one
2^n-bit column per update function, its truth table over all n variables:
row r of such a table is state r, so bit x of the column of F_i is F_i(x).
The oracle walks the 3^n subspaces with ANDs of those columns, and the
graphs read F(x) off them a block of states at a time. The columns come
from the ASTs alone (``expr.truth_table``), never from the prime
implicants or the solver the oracle checks; they take n * 2^n bits.

Caps are configuration, not constants; exceeding one raises cleanly so the
solver path stays usable at any network size. The support cap applies to
each function's syntactic support, not to n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional

from . import expr as _expr
from .errors import CapExceededError, TrapSpacesError
from .space import BooleanNetwork, Subspace, subspace_lt

DEFAULT_SYNC_CAP = 24
DEFAULT_ASYNC_CAP = 20
DEFAULT_BRUTE_FORCE_CAP = 12

# states per block when reading the state graph off the columns
_BLOCK = 1 << 16


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
    images = _images(_function_columns(net), n)
    if rule == "sync":
        successors = tuple((fx,) for fx in images)
    else:
        successors = tuple(_flips(x, fx ^ x) for x, fx in enumerate(images))
    return StateTransitionGraph(rule, n, successors)


def _function_columns(net: BooleanNetwork) -> list[int]:
    """The column of each update function: bit x is F_i(x).

    The tables span all n variables, so the support cap is checked on the
    syntactic supports, and n is bounded by the caller's own cap."""
    net.check_supports()
    every_var = range(net.n)
    return [_expr.truth_table(f, every_var, net.n) for f in net.functions]


def _images(columns: list[int], n: int) -> Iterator[int]:
    """F(x) for every state x in ascending order, read off the columns:
    the bits x of F_1..F_n, in that order, spell F(x) in binary. The
    columns are cut into blocks of ``_BLOCK`` states, so the bit strings in
    memory stay small at any n."""
    size = 1 << n
    width = min(_BLOCK, size)
    low = (1 << width) - 1
    for start in range(0, size, width):
        # reversed, character x of a block's string is bit start + x
        bits = [format((c >> start) & low, f"0{width}b")[::-1] for c in columns]
        yield from map(int, map("".join, zip(*bits)), repeat(2))


def _flips(x: int, diff: int) -> tuple[int, ...]:
    """The asynchronous successors of x, whose image differs from it in the
    bits of ``diff``: one single-variable flip per such bit, ascending, or
    x itself when x is steady."""
    if not diff:
        return (x,)
    succ = []
    while diff:
        low = diff & -diff
        succ.append(x ^ low)
        diff ^= low
    succ.sort()
    return tuple(succ)


def _terminal_sccs(successors: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Iterative Tarjan over the explicit graph; returns the SCCs that no
    edge leaves.

    ``leaks[x]`` records that an edge from x's SCC leaves it: an edge to a
    visited state off the stack, whose SCC is complete, or to a DFS child
    that was the root of its own SCC. A non-root state passes it to its DFS
    parent, which lies in the same SCC."""
    size = len(successors)
    index = [-1] * size
    lowlink = [0] * size
    on_stack = bytearray(size)
    leaks = bytearray(size)
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
                if not on_stack[target]:
                    leaks[node] = 1
                elif index[target] < lowlink[node]:
                    lowlink[node] = index[target]
            if advanced:
                continue
            work.pop()
            is_root = lowlink[node] == index[node]
            if is_root:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == node:
                        break
                if not leaks[node]:
                    sccs.append(comp)
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
                if is_root or leaks[node]:
                    leaks[parent] = 1
    return sccs


def attractors(stg: StateTransitionGraph) -> list[list[int]]:
    """Terminal strongly connected components, each sorted; the list is
    sorted by smallest member."""
    out = [sorted(comp) for comp in _terminal_sccs(stg.successors)]
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
    """Oracle: test all 3^n subspaces against the definition p >= F[p].

    The walk fixes v1, v2, ... in turn to 1, to 0 or leaves it free, depth
    first, and carries two state sets as 2^n-bit masks over the columns of
    ``_function_columns``: S, the states of the subspace so far (fixing v_j
    to c keeps the states where v_j = c), and R, the states whose image
    agrees with every value fixed so far (it keeps those where F_j = c). A
    complete subspace is a trap space iff every state of it is in R, that
    is S & ~R == 0. A node whose S and R are disjoint is pruned: both only
    shrink below it and S never becomes empty, so no subspace under it can
    lie inside R.

    ``mode`` selects among them as in ``select_trap_spaces``.
    """
    if mode not in ("all", "min", "max"):
        raise TrapSpacesError(f"unknown mode {mode!r}")
    n = net.n
    if n > cap:
        raise CapExceededError(n, cap, what="subspace enumeration")
    fn_columns = _function_columns(net)
    every_var = range(n)
    var_columns = [_expr.truth_table(_expr.Var(j), every_var, n) for j in every_var]
    full = (1 << (1 << n)) - 1
    spaces = []
    stack = [(0, 0, 0, full, full)]
    while stack:
        j, mask, vals, s, r = stack.pop()
        if j == n:
            if not s & ~r:
                spaces.append(Subspace(n, mask, vals))
            continue
        bit = 1 << (n - 1 - j)
        x, f = var_columns[j], fn_columns[j]
        stack.append((j + 1, mask, vals, s, r))
        for s_c, r_c, v_c in ((s & x, r & f, vals | bit), (s & ~x, r & ~f, vals)):
            if s_c & r_c:
                stack.append((j + 1, mask | bit, v_c, s_c, r_c))
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
