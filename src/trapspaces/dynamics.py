"""Desk-scale exhaustive dynamics: transition graphs, attractors and the
brute-force trap-space oracle.

State integers follow the package convention (v1 = most significant bit).
Both the oracle and the transition graphs read the network through one
2^n-bit column per update function, its truth table over all n variables:
row r of such a table is state r, so bit x of the column of F_i is F_i(x).
The oracle decides the 3^n subspaces with ANDs of those columns: a
depth-first walk over the leading variables, and at each of its leaves a
bit-parallel kernel that decides every completion over the last (at most
ten) variables at once, one bit per subspace. A graph is its images,
F(x) read off the columns a block of states at a time into one array
item per state. The columns come from the ASTs alone, each tabulated
against the n variable columns built once per network, never from the
prime implicants or the solver the oracle checks; they take n * 2^n bits.

Caps are configuration, not constants; exceeding one raises cleanly so the
solver path stays usable at any network size. Each is resolved where it is
checked: ``build_stg`` defaults to ``DEFAULT_STG_CAP`` for both update
rules, and the oracle to ``DEFAULT_BRUTE_FORCE_CAP``. The support cap
applies to each function's syntactic support, not to n.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Iterable, Iterator, Optional

from . import expr as _expr
from ._value import Value
from .errors import CapExceededError, TrapSpacesError
from .space import BooleanNetwork, Subspace, select_trap_spaces

# the largest n of either transition graph, whose memory doubles per variable
DEFAULT_STG_CAP = 20
DEFAULT_BRUTE_FORCE_CAP = 12

# states per block when reading the state graph off the columns
_BLOCK = 1 << 16

# the oracle decides the subspaces of the last this-many variables at once
_KERNEL_VARS = 10


class StateTransitionGraph(Value):
    """A transition graph as the image F(x) of each of the 2^n states x."""

    __slots__ = _fields = ("rule", "n", "images")
    __hash__ = None
    rule: str  # "sync" | "async"
    n: int
    images: array  # array("Q"): item x is F(x)

    def successors(self, x: int) -> tuple[int, ...]:
        """The successors of state x, ascending. Synchronous: F(x).
        Asynchronous: x itself when x is steady, else each single-variable
        flip of x toward F(x)."""
        fx = self.images[x]
        if self.rule == "sync":
            return (fx,)
        diff = fx ^ x
        if not diff:
            return (x,)
        succ = []
        while diff:
            low = diff & -diff
            succ.append(x ^ low)
            diff ^= low
        succ.sort()
        return tuple(succ)


def build_stg(net: BooleanNetwork, rule: str, cap: Optional[int] = None) -> StateTransitionGraph:
    """Explicit transition graph under the synchronous or asynchronous rule;
    ``cap`` defaults to ``DEFAULT_STG_CAP``."""
    if rule not in ("sync", "async"):
        raise TrapSpacesError(f"unknown update rule {rule!r}")
    if cap is None:
        cap = DEFAULT_STG_CAP
    if net.n > cap:
        raise CapExceededError(net.n, cap, what=f"{rule} transition graph")
    return StateTransitionGraph(rule, net.n, array("Q", _images(_columns(net)[1], net.n)))


def _columns(net: BooleanNetwork) -> tuple[list[int], list[int]]:
    """The columns of the n variables (bit x of column j is the value of v_j
    in state x) and of the n update functions (bit x is F_i(x)); every
    function is tabulated against the one set of variable columns.

    The tables span all n variables, so the support cap is checked on the
    syntactic supports, and n is bounded by the caller's own cap."""
    net.check_supports()
    n = net.n
    var_columns = [_expr._column(n, n - 1 - j) for j in range(n)]
    full = (1 << (1 << n)) - 1
    return var_columns, [_expr._tabulate(f, var_columns, full) for f in net.functions]


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


def _terminal_sccs(stg: StateTransitionGraph) -> list[list[int]]:
    """Iterative Tarjan over the graph; returns the SCCs that no edge
    leaves. Each state's successors are derived once, when it is entered,
    and kept in its work entry.

    ``leaks[x]`` records that an edge from x's SCC leaves it: an edge to a
    visited state off the stack, whose SCC is complete, or to a DFS child
    that was the root of its own SCC. A non-root state passes it to its DFS
    parent, which lies in the same SCC."""
    successors = stg.successors
    size = 1 << stg.n
    index = array("l", [-1]) * size
    lowlink = array("l", [0]) * size
    on_stack = bytearray(size)
    leaks = bytearray(size)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(size):
        if index[root] != -1:
            continue
        work = [(root, (), 0)]
        while work:
            node, succ, child_i = work[-1]
            if child_i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = 1
                succ = successors(node)
            advanced = False
            while child_i < len(succ):
                target = succ[child_i]
                child_i += 1
                if index[target] == -1:
                    work[-1] = (node, succ, child_i)
                    work.append((target, (), 0))
                    advanced = True
                    break
                if not on_stack[target]:
                    leaks[node] = 1
                elif index[target] < lowlink[node]:
                    lowlink[node] = index[target]
            if advanced:
                continue
            work.pop()
            low = lowlink[node]
            is_root = low == index[node]
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
                if low < lowlink[parent]:
                    lowlink[parent] = low
                if is_root or leaks[node]:
                    leaks[parent] = 1
    return sccs


def attractors(stg: StateTransitionGraph) -> list[list[int]]:
    """Terminal strongly connected components, each sorted; the list is
    sorted by smallest member."""
    out = [sorted(comp) for comp in _terminal_sccs(stg)]
    out.sort(key=lambda c: c[0])
    return out


def brute_force_trap_spaces(
    net: BooleanNetwork,
    mode: str = "all",
    cap: Optional[int] = None,
) -> list[Subspace]:
    """Oracle: test all 3^n subspaces against the definition p >= F[p];
    ``cap`` defaults to ``DEFAULT_BRUTE_FORCE_CAP``.

    The leading n - L variables, L = min(n, ``_KERNEL_VARS``), are decided
    by a walk that leaves each free, fixes it to 0 or fixes it to 1, depth
    first, and carries two state sets as 2^n-bit masks over the columns of
    ``_columns``: S, the states of the subspace so far (fixing v_j to c
    keeps the states where v_j = c), and R, the states whose image agrees
    with every value fixed so far (it keeps those where F_j = c). A node
    whose S and R are disjoint is pruned: both only shrink below it and S
    never becomes empty, so no subspace under it can lie inside R. At each
    node where the leading variables are decided, ``_Kernel.emit`` tests
    all 3^L completions over the last L variables at once, on R and the
    trailing variables' agreement columns folded over the node's states.
    For n <= L the walk has depth 0 and only that kernel runs.

    Mode "all" returns every trap space in pattern order, the order of
    their text; "min" and "max" keep the extremal ones of that list
    (``space.select_trap_spaces``), in the same order.
    """
    if mode not in ("all", "min", "max"):
        raise TrapSpacesError(f"unknown mode {mode!r}")
    n = net.n
    if cap is None:
        cap = DEFAULT_BRUTE_FORCE_CAP
    if n > cap:
        raise CapExceededError(n, cap, what="subspace enumeration")
    var_columns, fn_columns = _columns(net)
    full = (1 << (1 << n)) - 1
    width = min(n, _KERNEL_VARS)
    lead = n - width
    kernel = _Kernel(width)
    # bit x of agree[k] is set iff F_i(x) equals the value of v_i in x, for
    # the k-th trailing variable v_i
    agree = [full ^ x ^ f for x, f in zip(var_columns[lead:], fn_columns[lead:])]
    spaces: list[Subspace] = []
    stack = [(0, 0, 0, full, full)]
    while stack:
        j, mask, vals, s, r = stack.pop()
        if j == lead:
            outside = full ^ s
            kernel.emit(n, mask, vals, _fold(r, outside, n, lead),
                        (_fold(t, outside, n, lead) for t in agree), spaces)
            continue
        bit = 1 << (n - 1 - j)
        x, f = var_columns[j], fn_columns[j]
        # pushed 1, 0, free: popped free, 0, 1, the pattern order of - 0 1
        for s_c, r_c, v_c in ((s & x, r & f, vals | bit), (s & ~x, r & ~f, vals)):
            if s_c & r_c:
                stack.append((j + 1, mask | bit, v_c, s_c, r_c))
        stack.append((j + 1, mask, vals, s, r))
    return spaces if mode == "all" else select_trap_spaces(spaces, mode)


def _fold(table: int, outside: int, n: int, lead: int) -> int:
    """The 2^L-bit table, L = n - lead, that holds at trailing state y iff
    ``table`` holds at every state of the node's leading part that ends in
    y: the states ``outside`` the node are set, then the two halves are
    ANDed once per leading variable, most significant first."""
    table |= outside
    for j in range(lead):
        table &= table >> (1 << (n - 1 - j))
    return table


class _Kernel:
    """All 3^L subspaces of the last L variables at once, one bit each.

    Subspace q has index sum_k d_k * 3^(L-1-k) over its variables k, with
    digit d_k = 0 for free, 1 for fixed 0 and 2 for fixed 1, so index order
    is pattern order. The L masks are built once per oracle call; step k is
    the k-th trailing variable.
    """

    def __init__(self, width: int):
        self.steps = _expr._cube_steps(width)

    def expand(self, table: int, free_holds: int = -1) -> int:
        """The 3^L-bit table that holds at q iff the 2^L-bit ``table`` of
        trailing states holds at every state of q. Step k puts the halves'
        AND at digit 0 (free), the half for 0 at digit 1 and the half for 1
        at digit 2; at step ``free_holds`` digit 0 holds outright."""
        for k, (low, h, w) in enumerate(self.steps):
            zero, one = table & low, table >> h & low
            table = (low if k == free_holds else zero & one) | zero << w | one << 2 * w
        return table

    def emit(self, n: int, mask: int, vals: int, held: int, agrees: Iterable[int],
             out: list[Subspace]) -> None:
        """Append to ``out``, in index order, the trap spaces that complete
        the leading part ``mask``/``vals``: the subspaces q on which the
        folded R, ``held``, holds throughout and where, for each trailing
        variable fixed in q, its folded agreement table in ``agrees``
        holds throughout."""
        traps = self.expand(held)
        for k, agree in enumerate(agrees):
            if not traps:
                return
            traps &= self.expand(agree, k)
        bits = format(traps, "b")[::-1]
        q = bits.find("1")
        while q >= 0:
            m, v, d, bit = mask, vals, q, 1
            while d:
                d, digit = divmod(d, 3)
                if digit:
                    m |= bit
                    if digit == 2:
                        v |= bit
                bit <<= 1
            out.append(Subspace(n, m, v))
            q = bits.find("1", q + 1)
