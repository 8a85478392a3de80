"""Enumeration of extremal trap spaces by one literal-level search.

A trap space is a consistent set L of literals in which every literal has a
provider: a prime-implicant arc whose head is that literal and whose tail
lies in L (the siphon view of Trinh, Benhamou et al.). Minimal trap spaces
are the inclusion-maximal such sets; maximal trap spaces are the
inclusion-minimal non-empty ones.

One depth-first search, on an explicit stack, decides a status per variable
(fixed 1, fixed 0 or free) and keeps the set of arcs still compatible with
some completion alive. It branches in a preference order, so its first leaf
is already extremal (Di Rosa, Giunchiglia & Maratea 2010): fixed values
before free give an inclusion-maximal literal set, a minimal trap space;
free before fixed values give an inclusion-minimal non-empty one, a maximal
trap space. Steady states (mode "steady") use the first order with free
disallowed. Each space found becomes a no-good on its literal set (some
fixed literal outside it, or some literal of it absent), and the search
resumes where it stopped; the next leaf it reaches is extremal again. No
cardinality bound or optimality proof is needed. Each leaf's witness is
walked once and must induce exactly the leaf's literal set, the space its
no-good records. That the spaces found are pairwise incomparable is checked
at the end with the bitset selection ``space.select_trap_spaces``, which
the oracle uses too.

The arc-set view is kept for witnesses and checks: a set of arcs is
consistent when no two heads assign opposite values to one variable, and
stable when every tail literal of a selected arc is the head of a selected
arc. Inclusion-maximal such sets induce the minimal trap spaces and
inclusion-minimal non-empty ones the maximal trap spaces.

Every search returns one record, ``EnumerationResult``. ``min_trap_spaces``
and ``max_trap_spaces`` return it, and ``steady_states`` returns its spaces.
At the deadline they raise SolverTimeoutError carrying the partial record;
the package's own callers read it through ``_record`` and ``_steady_upto``.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Optional

from ._value import Value
from .errors import InconsistentArcSetError, SolverTimeoutError, TrapSpacesError
from .primes import PrimeImplicantGraph, build_graph, literals
from .space import BooleanNetwork, Subspace, select_trap_spaces

DEFAULT_LIMIT = 100_000
DEFAULT_TIMEOUT = 600.0


class ArcSetSolution(Value):
    """A stable and consistent arc set together with its induced subspace."""

    __slots__ = _fields = ("arc_ids", "induced")
    arc_ids: tuple[int, ...]
    induced: Subspace


def _walk(g: PrimeImplicantGraph, arc_ids: Iterable[int]) -> tuple[int, int, int]:
    """One walk over ``arc_ids``: the literal masks of their heads and of
    their tails, and the even bits 2v of the variables v whose two
    literals are both heads. Raises KeyError at an unknown id."""
    heads = tails = 0
    for a in arc_ids:
        if not 1 <= a <= g.m:
            raise KeyError(f"unknown arc id {a}")
        heads |= 1 << g.head_lit[a - 1]
        tails |= g.tail_litmask[a - 1]
    return heads, tails, heads & heads >> 1 & ((1 << 2 * g.n) - 1) // 3


def is_consistent(g: PrimeImplicantGraph, arc_ids: Iterable[int]) -> bool:
    """True iff no two heads assign the same variable opposite values."""
    return not _walk(g, arc_ids)[2]


def is_stable(g: PrimeImplicantGraph, arc_ids: Iterable[int]) -> bool:
    """True iff every tail literal of every arc is the head of some arc."""
    heads, tails, _ = _walk(g, arc_ids)
    return not tails & ~heads


def induced_subspace(g: PrimeImplicantGraph, arc_ids: Iterable[int]) -> Subspace:
    """Intersection of all selected head literals; whole space for the empty
    set. Raises InconsistentArcSetError if the heads clash."""
    heads, _, both = _walk(g, arc_ids)
    if both:
        raise InconsistentArcSetError(
            f"arcs assign both values to variable index {(both.bit_length() - 1) >> 1}"
        )
    return Subspace.from_items(g.n, literals(heads))


class _Infeasible(Exception):
    pass


def _first_providers(g: PrimeImplicantGraph, lits: int, alive: int) -> int:
    """For each literal of the leaf's space ``lits``, its smallest-id arc
    whose tail lies in ``lits``: the lowest one of its providers in the
    leaf's ``alive``, which holds exactly the arcs with head and tail in
    the space."""
    chosen = 0
    rest = lits
    while rest:
        low = rest & -rest
        prov = alive & g.heads_mask[low.bit_length() - 1]
        if not prov:
            raise TrapSpacesError("a literal of the space has no provider in it")
        chosen |= prov & -prov
        rest ^= low
    return chosen


_UNDECIDED = -1
_FREE = 2


class _Search:
    """Depth-first search over per-variable states that returns leaves one
    at a time, in preference order, each satisfying the no-goods installed
    so far.

    A node holds the variable states, the alive arcs (head literal and
    every tail literal still possible), ``fixed`` (the literals decided
    present) and ``provided`` (the literals with an alive provider).
    Propagation keeps ``alive`` closed under tail providability, fails when
    a fixed literal loses its last provider, frees a variable neither of
    whose literals can be provided, and fixes the tail literals that every
    remaining provider of a fixed literal shares. At a leaf every variable
    is decided, and ``alive`` is exactly the set of arcs compatible with the
    space ``fixed``.
    """

    def __init__(self, g: PrimeImplicantGraph, fixed_first: bool, allow_free: bool,
                 deadline: Optional[float]):
        self.g = g
        self.tailed_by, self.involving = g.search_masks()
        self.fixed_first = fixed_first
        self.allow_free = allow_free
        self.deadline = deadline
        self.nogoods: list[int] = []  # literal masks of the spaces found
        self.nodes = 0
        # stack entries: (parent status, alive, fixed, provided, variable,
        # value); the root decides nothing and has every literal pending,
        # so unprovidable tails are pruned up front
        all_lits = (1 << 2 * g.n) - 1
        self.stack = [([_UNDECIDED] * g.n, (1 << g.m) - 1, 0, all_lits, -1, _UNDECIDED)]

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolverTimeoutError("solver wall-clock budget exhausted")

    def next_leaf(self) -> Optional[tuple[int, int]]:
        """The next leaf as (fixed literals, alive arcs); None once the tree
        is exhausted. Raises SolverTimeoutError past the deadline."""
        self._check_deadline()
        g = self.g
        stack = self.stack
        while stack:
            parent, alive, fixed, provided, var, value = stack.pop()
            self.nodes += 1
            if self.nodes % 64 == 0:
                self._check_deadline()
            status = list(parent)
            if var < 0:
                queue, pending = [], set(range(2 * g.n))
            else:
                status[var] = value
                queue, pending = [var], set()
            try:
                alive, fixed, provided = self._propagate(
                    status, alive, fixed, provided, queue, pending)
            except _Infeasible:
                continue
            # branch on the undecided variable touching the most alive arcs
            branch_var, best_score = -1, -1
            involving = self.involving
            for v in range(g.n):
                if status[v] == _UNDECIDED:
                    score = (alive & involving[v]).bit_count()
                    if score > best_score:
                        branch_var, best_score = v, score
            if branch_var < 0:
                return fixed, alive
            ones = (alive & g.heads_mask[2 * branch_var + 1]).bit_count()
            zeros = (alive & g.heads_mask[2 * branch_var]).bit_count()
            order = [1, 0] if ones >= zeros else [0, 1]
            if self.allow_free:
                order = order + [_FREE] if self.fixed_first else [_FREE] + order
            for value in reversed(order):
                stack.append((status, alive, fixed, provided, branch_var, value))
        return None

    def _propagate(self, status: list[int], alive: int, fixed: int, provided: int,
                   queue: list[int], pending: set[int]) -> tuple[int, int, int]:
        """Event-driven closure: queue holds newly decided variables, pending
        holds literals whose alive provider set may have shrunk. Arcs killed
        (dropped from ``alive``) collect in ``dead`` until their head
        literals join ``pending``."""
        g = self.g
        heads_mask = g.heads_mask
        tailed_by = self.tailed_by
        head_lit = g.head_lit
        dead = 0
        while True:
            while True:
                while queue:
                    v = queue.pop()
                    s = status[v]
                    if s == _FREE:
                        gone = alive & self.involving[v]
                    else:
                        gone = alive & (heads_mask[2 * v + 1 - s] | tailed_by[2 * v + 1 - s])
                        fixed |= 1 << (2 * v + s)
                        pending.add(2 * v + s)
                    alive ^= gone
                    dead |= gone
                # one head literal per step: its other dead arcs go with it
                while dead:
                    lit = head_lit[(dead & -dead).bit_length() - 1]
                    pending.add(lit)
                    dead ^= dead & heads_mask[lit]
                if not pending:
                    break
                lit = pending.pop()
                v, c = divmod(lit, 2)
                prov = alive & heads_mask[lit]
                if prov == 0:
                    # nothing can induce this literal any more
                    if status[v] == c:
                        raise _Infeasible
                    provided &= ~(1 << lit)
                    dead = alive & tailed_by[lit]
                    alive ^= dead
                    if status[v] == _UNDECIDED and not (alive & heads_mask[lit ^ 1]):
                        if not self.allow_free:
                            raise _Infeasible
                        status[v] = _FREE
                        queue.append(v)
                elif status[v] == c:
                    # every remaining provider shares these tail literals
                    common = -1
                    while prov:
                        low = prov & -prov
                        common &= g.tail_litmask[low.bit_length() - 1]
                        if common == 0:
                            break
                        prov ^= low
                    while common > 0:
                        low = common & -common
                        u, d = divmod(low.bit_length() - 1, 2)
                        if status[u] == _UNDECIDED:
                            status[u] = d
                            queue.append(u)
                        common ^= low
            if alive == 0:
                raise _Infeasible  # only the empty literal set is left
            # no-goods; one with a single literal left to satisfy it forces
            # that literal (present, or absent)
            for space in self.nogoods:
                if self.fixed_first:
                    # some fixed literal outside the space: one already
                    # fixed, or an undecided one that still has a provider
                    rest = provided & ~space
                    if rest & (rest - 1) == 0:
                        if not rest:
                            raise _Infeasible
                        v, c = divmod(rest.bit_length() - 1, 2)
                        if status[v] == _UNDECIDED:
                            status[v] = c
                            queue.append(v)
                else:
                    # some literal of the space absent
                    rest = space & ~fixed
                    if rest & (rest - 1) == 0:
                        if not rest:
                            raise _Infeasible
                        gone = alive & heads_mask[rest.bit_length() - 1]
                        alive ^= gone
                        dead |= gone
            if not (queue or dead):
                return alive, fixed, provided


class EnumerationResult(Value):
    """What one search found, why it stopped, and what it cost (``elapsed``
    in seconds). The solutions come in two orders: ``solutions`` as found,
    ``witnesses`` sorted by pattern, with ``spaces`` their induced subspaces."""

    __slots__ = _fields = ("solutions", "stop", "iterations", "nodes", "elapsed")
    __hash__ = None
    solutions: list[ArcSetSolution]
    stop: str  # "complete" | "limit" | "timeout"
    iterations: int
    nodes: int
    elapsed: float

    @property
    def complete(self) -> bool:
        return self.stop == "complete"

    @property
    def witnesses(self) -> list[ArcSetSolution]:
        return sorted(self.solutions, key=lambda sol: str(sol.induced))

    @property
    def spaces(self) -> list[Subspace]:
        return [sol.induced for sol in self.witnesses]


def enumerate_extremal(
    g: PrimeImplicantGraph,
    mode: str,
    limit: int = DEFAULT_LIMIT,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> EnumerationResult:
    """All inclusion-maximal (mode="max") or inclusion-minimal non-empty
    (mode="min") stable and consistent arc sets, one per trap space they
    induce: minimal trap spaces in max mode, maximal ones in min mode.
    Mode "steady" is max mode with every variable induced: the steady
    state system.

    Each iteration finds the next extremal space (the last one proves there
    is none). Max- and steady-mode witnesses hold every arc compatible with
    the space; min-mode witnesses hold, for each literal of the space, its
    smallest-id provider whose tail lies in the space. A witness must be
    consistent and stable, and its heads must be the leaf's literal set.
    The spaces found must be distinct and none may lie below another,
    which ``select_trap_spaces`` checks. ``limit`` must be at least 1 and
    ``timeout`` (seconds) not NaN. At ``limit`` solutions it looks for one
    more leaf: if there is one, it returns the first ``limit`` flagged
    incomplete (stop "limit"). A timeout raises SolverTimeoutError carrying
    the partial list.
    """
    if mode not in ("min", "max", "steady"):
        raise TrapSpacesError(f"unknown mode {mode!r}")
    if limit < 1:
        raise TrapSpacesError(f"limit must be at least 1, got {limit}")
    if timeout is not None and math.isnan(timeout):
        raise TrapSpacesError("timeout must be a number of seconds, got nan")
    start = time.monotonic()
    deadline = start + timeout if timeout is not None else None
    search = _Search(g, fixed_first=mode != "min",
                     allow_free=mode != "steady", deadline=deadline)
    solutions: list[ArcSetSolution] = []

    def result(stop: str) -> EnumerationResult:
        # every stop comes one iteration after the last solution: the final
        # proof, the probe for one more leaf at the limit, or the search a
        # deadline interrupted
        return EnumerationResult(solutions, stop, len(solutions) + 1, search.nodes,
                                 time.monotonic() - start)

    stop = "complete"
    try:
        while True:
            leaf = search.next_leaf()
            if leaf is None:
                break
            lits, alive = leaf
            search.nogoods.append(lits)
            ids = g.ids(_first_providers(g, lits, alive) if mode == "min" else alive)
            # the witness induces exactly the space its no-good records
            heads, tails, both = _walk(g, ids)
            if heads != lits or tails & ~heads or both:
                raise TrapSpacesError("search produced an invalid arc set")
            solutions.append(ArcSetSolution(ids, Subspace.from_items(g.n, literals(lits))))
            if len(solutions) >= limit:
                # the list is truncated only if one more leaf exists
                if search.next_leaf() is not None:
                    stop = "limit"
                break
    except SolverTimeoutError as exc:
        raise SolverTimeoutError(str(exc), result("timeout")) from None
    # distinct (the selection keeps equal spaces) and pairwise incomparable
    count = len(solutions)
    if (len(set(search.nogoods)) < count
            or len(select_trap_spaces([sol.induced for sol in solutions], "min")) < count):
        raise TrapSpacesError("enumeration produced comparable spaces")
    return result(stop)


def _graph_of(net: BooleanNetwork, graph: Optional[PrimeImplicantGraph]) -> PrimeImplicantGraph:
    """``graph``, or the graph of ``net`` when it is None. Raises
    TrapSpacesError when ``graph`` belongs to another network."""
    if graph is None:
        return build_graph(net)
    if graph.network is not net and graph.network != net:
        raise TrapSpacesError("the graph belongs to another network")
    return graph


def min_trap_spaces(
    net: BooleanNetwork,
    limit: int = DEFAULT_LIMIT,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    graph: Optional[PrimeImplicantGraph] = None,
) -> EnumerationResult:
    """Minimal trap spaces: the spaces induced by the maximal stable and
    consistent arc sets. When a complete search finds no proper trap space,
    the whole space is the unique minimal one, with the empty arc set."""
    g = _graph_of(net, graph)
    result = enumerate_extremal(g, "max", limit, timeout)
    if result.complete and not result.solutions:
        result.solutions.append(ArcSetSolution((), Subspace.whole(g.n)))
    return result


def max_trap_spaces(
    net: BooleanNetwork,
    limit: int = DEFAULT_LIMIT,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    graph: Optional[PrimeImplicantGraph] = None,
) -> EnumerationResult:
    """Maximal trap spaces strictly below the whole space: the spaces
    induced by the minimal non-empty stable and consistent arc sets."""
    return enumerate_extremal(_graph_of(net, graph), "min", limit, timeout)


def steady_states(
    net: BooleanNetwork,
    limit: int = DEFAULT_LIMIT,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    graph: Optional[PrimeImplicantGraph] = None,
) -> list[Subspace]:
    """All states x with F(x) = x, sorted by pattern: the all-variables-fixed
    solutions of the arc-set constraint system (computed independently of
    min_trap_spaces). The bare list cannot show that ``limit`` cut it
    short; ``enumerate_extremal(g, "steady", ...)`` returns the record
    with its stop. Raises SolverTimeoutError at the deadline."""
    return enumerate_extremal(_graph_of(net, graph), "steady", limit, timeout).spaces


# why a search, or a command made of searches, stopped, from best to worst;
# "cap" is a state graph above its cap
_STOPS = ("complete", "limit", "cap", "timeout")


def _worst(*stops: str) -> str:
    return max(stops, key=_STOPS.index)


def _record(search, net: BooleanNetwork, limit: int, timeout: Optional[float],
            graph: Optional[PrimeImplicantGraph] = None) -> EnumerationResult:
    """The record of ``search`` (``min_trap_spaces`` or ``max_trap_spaces``)
    on ``net``; when the deadline stops it, the partial record, stop
    "timeout". Every space it lists is extremal either way."""
    try:
        return search(net, limit, timeout, graph)
    except SolverTimeoutError as exc:
        return exc.partial


def _steady_upto(net: BooleanNetwork, limit: int, timeout: Optional[float],
                 graph: PrimeImplicantGraph) -> tuple[list[Subspace], str]:
    """The first ``limit`` steady states and why the list ends: "limit" if
    there are more (one state more than the limit tells a truncated list
    from a full one), "timeout" if the deadline stopped the search, else
    "complete"."""
    try:
        states = steady_states(net, limit + 1, timeout, graph)
    except SolverTimeoutError as exc:
        return exc.partial.spaces[:limit], "timeout"
    return states[:limit], "limit" if len(states) > limit else "complete"
