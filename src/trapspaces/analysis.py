"""Applications of trap spaces: model reduction, the cyclic-attractor lower
bound, commitment tables and attractor containment audits."""

from __future__ import annotations

from typing import Optional

from . import dynamics as _dynamics
from . import expr as _expr
from . import solver as _solver
from ._value import Value
from .errors import CapExceededError, NotATrapSpaceError
from .primes import build_graph
from .space import (
    BooleanNetwork,
    Subspace,
    is_trap_space,
    require_width,
    smallest_enclosing_subspace,
    subspace_leq,
)


class ReducedNetwork(Value):
    """A network with the fixed variables of a trap space divided out."""

    __slots__ = _fields = ("parent", "fixing", "network", "index_map")
    parent: BooleanNetwork
    fixing: Subspace
    network: BooleanNetwork
    # parent variable index -> reduced index, for the free variables
    index_map: dict[int, int]


def reduce(net: BooleanNetwork, p: Subspace, unchecked: bool = False) -> ReducedNetwork:
    """Divide out the fixed variables of ``p``: keep the free variables and
    restrict their update functions to ``p``.

    Requires ``p`` to be a trap space (the reduction is only sound as a
    dynamics-preserving step for trap sets); pass unchecked=True to bypass.
    """
    require_width(net, p)
    if not unchecked and not is_trap_space(net, p):
        raise NotATrapSpaceError(f"{p} is not a trap space of the network")
    free = p.free_vars()
    if not free:
        raise NotATrapSpaceError("cannot reduce away every variable")
    index_map = {v: j for j, v in enumerate(free)}
    names = tuple(net.variables[v] for v in free)
    functions = tuple(_expr.restrict(net.functions[v], p, index_map) for v in free)
    return ReducedNetwork(net, p, BooleanNetwork(names, functions, net.support_cap), index_map)


class CyclicLowerBound(Value):
    __slots__ = _fields = ("count", "witnesses", "oscillating_candidates", "stop")
    __hash__ = None
    count: int
    witnesses: list[Subspace]
    # per witness, the free variables (some of which must oscillate)
    oscillating_candidates: list[list[str]]
    # why the minimal trap spaces end: "complete", "limit" or "timeout".
    # Every space listed is minimal either way, so the count is a lower
    # bound, and a complete run may raise it
    stop: str


def cyclic_attractor_lower_bound(
    net: BooleanNetwork,
    limit: int = _solver.DEFAULT_LIMIT,
    timeout: Optional[float] = _solver.DEFAULT_TIMEOUT,
) -> CyclicLowerBound:
    """|minimal trap spaces that are not steady states|: each such space is a
    trap set without steady states, so it contains a cyclic attractor."""
    report = _solver._record(_solver.min_trap_spaces, net, limit, timeout)
    witnesses = [p for p in report.spaces if not p.is_state]
    return CyclicLowerBound(
        count=len(witnesses),
        witnesses=witnesses,
        oscillating_candidates=[
            [net.variables[v] for v in p.free_vars()] for p in witnesses
        ],
        stop=report.stop,
    )


class CommitmentTable(Value):
    __slots__ = _fields = ("spaces", "steady_counts", "sync_cyclic_counts",
                           "async_cyclic_counts", "stop")
    __hash__ = None
    spaces: list[Subspace]
    steady_counts: list[int]
    sync_cyclic_counts: Optional[list[int]]
    async_cyclic_counts: Optional[list[int]]
    # the worse of the two searches' stops, and at least "cap" when the
    # attractor columns are omitted
    stop: str


def commitment_table(
    net: BooleanNetwork,
    stg_cap: Optional[int] = None,
    limit: int = _solver.DEFAULT_LIMIT,
    timeout: Optional[float] = _solver.DEFAULT_TIMEOUT,
) -> CommitmentTable:
    """For each maximal trap space, how many steady states and cyclic
    attractors of each transition graph it contains.

    An attractor counts as inside p iff it is fully contained in p's states
    (tested as enclosing-subspace <= p). The attractor columns are omitted
    when the network exceeds the dynamics caps; steady states always come
    from the solver.
    """
    g = build_graph(net)
    report = _solver._record(_solver.max_trap_spaces, net, limit, timeout, g)
    spaces = report.spaces
    steady, steady_stop = _solver._steady_upto(net, limit, timeout, g)
    stop = _solver._worst(report.stop, steady_stop)
    steady_counts = [len(inside) for inside in _inside(steady, spaces)]
    try:
        sync = _dynamics.build_stg(net, "sync", stg_cap)
    except CapExceededError:
        return CommitmentTable(spaces, steady_counts, None, None, _solver._worst(stop, "cap"))
    cyclic_counts = []
    # both rules read the one image array of the synchronous graph
    for stg in (sync, _dynamics.StateTransitionGraph("async", net.n, sync.images)):
        attrs, enclosing = _attractors(stg)
        cyclic = [q for a, q in zip(attrs, enclosing) if len(a) > 1]
        cyclic_counts.append([len(inside) for inside in _inside(cyclic, spaces)])
    return CommitmentTable(spaces, steady_counts, *cyclic_counts, stop)


def _attractors(stg: _dynamics.StateTransitionGraph) -> tuple[list[list[int]], list[Subspace]]:
    """The attractors of ``stg``, and the smallest subspace enclosing each."""
    attrs = _dynamics.attractors(stg)
    return attrs, [smallest_enclosing_subspace(a, stg.n) for a in attrs]


def _inside(items: list[Subspace], spaces: list[Subspace]) -> list[list[int]]:
    """Per space, the indices of the items that lie inside it."""
    return [[i for i, q in enumerate(items) if subspace_leq(q, p)] for p in spaces]


class SpaceAudit(Value):
    __slots__ = _fields = ("space", "attractor_count", "tight")
    __hash__ = None
    space: Subspace
    attractor_count: int
    tight: list[bool]  # per contained attractor: enclosing subspace equals the space


class AttractorAudit(Value):
    __slots__ = _fields = ("rule", "per_space", "outside", "stop")
    __hash__ = None
    rule: str
    per_space: list[SpaceAudit]
    # attractors contained in no minimal trap space listed: an upper bound
    # on those outside them all unless the list is complete
    outside: list[list[int]]
    stop: str  # why the minimal trap spaces end: "complete", "limit" or "timeout"


def attractor_trapspace_audit(
    net: BooleanNetwork,
    rule: str,
    stg_cap: Optional[int] = None,
    limit: int = _solver.DEFAULT_LIMIT,
    timeout: Optional[float] = _solver.DEFAULT_TIMEOUT,
) -> AttractorAudit:
    """Per minimal trap space: the attractors it contains and whether their
    enclosing subspace is exactly the space; plus attractors outside all
    minimal trap spaces."""
    report = _solver._record(_solver.min_trap_spaces, net, limit, timeout)
    attrs, enclosing = _attractors(_dynamics.build_stg(net, rule, stg_cap))
    inside = _inside(enclosing, report.spaces)
    per_space = [SpaceAudit(p, len(ins), [enclosing[i] == p for i in ins])
                 for p, ins in zip(report.spaces, inside)]
    covered = set().union(*inside)
    outside = [a for i, a in enumerate(attrs) if i not in covered]
    return AttractorAudit(rule, per_space, outside, report.stop)
