"""Prime implicant enumeration and the prime implicant hypergraph.

For a non-constant function f, a c-prime implicant is a maximal subspace on
which f is the constant c. A constant function f = c contributes a single
self-referential implicant fixing its own target variable at c, which makes
input-like variables self-stabilizing. Each implicant becomes one hyperarc:
tail = the implicant decomposed into literals, head = the induced literal.
The graph also holds the bitmask view of its arcs (``ArcMasks``) that the
solver's search reads; it is built on first use and shared by every search
on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import expr as _expr
from .space import BooleanNetwork, Subspace

Literal = tuple[int, int]  # (variable index, value)


@dataclass(frozen=True)
class PrimeImplicant:
    subspace: Subspace
    value: int
    target: int


@dataclass(frozen=True)
class HyperArc:
    id: int
    tail: tuple[Literal, ...]
    head: Literal

    def __post_init__(self):
        if not self.tail:
            raise ValueError("arc tail must be non-empty")
        if len({v for v, _ in self.tail}) != len(self.tail):
            raise ValueError("tail variables must be distinct")


def _primes(table: int, k: int, memo: dict) -> list[tuple[int, int]]:
    """The prime cubes (mask, vals) over the row bits of a k-variable truth
    table, by Shannon expansion on
    its most significant row bit (the Blake canonical form, after Coudert
    and Madre): P(f) = P(f0 f1), plus x'p for p in P(f0) and xp for p in
    P(f1) where p is not in P(f0 f1). A prime p of f0 implies f1 exactly
    when it is a prime of f0 f1. A variable f does not depend on adds no
    cube, since then f0 = f1. ``memo`` maps (table, k) to the primes.
    """
    key = (table, k)
    if key not in memo:
        if k == 0:
            memo[key] = [(0, 0)] if table else []
        else:
            half = 1 << (k - 1)
            f0, f1 = table & ((1 << half) - 1), table >> half
            both = _primes(f0 & f1, k - 1, memo)
            common = set(both)
            bit = 1 << (k - 1)
            memo[key] = (
                both
                + [(m | bit, v) for m, v in _primes(f0, k - 1, memo) if (m, v) not in common]
                + [(m | bit, v | bit) for m, v in _primes(f1, k - 1, memo) if (m, v) not in common]
            )
    return memo[key]


def _implicant_tails(support: tuple[int, ...], table: int, target: int,
                     memo: dict) -> tuple[list, list]:
    """The 0- and 1-prime implicants of a function as sorted literal tuples,
    from its truth table over its syntactic support. Only a constant
    function c has an empty prime; it becomes ((target, c),)."""
    k = len(support)
    out = ([], [])
    for c, t in ((0, table ^ ((1 << (1 << k)) - 1)), (1, table)):
        for mask, vals in _primes(t, k, memo):
            tail = tuple((v, (vals >> (k - 1 - j)) & 1)
                         for j, v in enumerate(support) if (mask >> (k - 1 - j)) & 1)
            out[c].append(tail or ((target, c),))
    return out


def c_prime_implicants(
    f: _expr.Expression,
    c: int,
    target: int,
    n: int,
    cap: int = _expr.DEFAULT_SUPPORT_CAP,
) -> list[PrimeImplicant]:
    """All c-prime implicants of f, embedded over the full vocabulary of size n.

    Only essential variables occur in them.
    """
    return [
        PrimeImplicant(Subspace.from_items(n, tail), c, target)
        for tail in _implicant_tails(*_expr.tabulate(f, cap), target, {})[c]
    ]


class ArcMasks:
    """Bitmask view of the arcs of a graph: the arc of id k has bit k-1 and
    the literal (v, c) has bit 2*v + c."""

    def __init__(self, n: int, arcs: tuple[HyperArc, ...]):
        self.n = n
        self.m = len(arcs)
        self.head_lit = []
        self.tail_litmask = []
        self.heads_mask = [0] * (2 * n)  # arcs providing each literal
        self.tailed_by = [0] * (2 * n)  # arcs with each literal in their tail
        for a, arc in enumerate(arcs):
            v, c = arc.head
            self.head_lit.append(2 * v + c)
            self.heads_mask[2 * v + c] |= 1 << a
            mask = 0
            for u, d in arc.tail:
                mask |= 1 << (2 * u + d)
                self.tailed_by[2 * u + d] |= 1 << a
            self.tail_litmask.append(mask)
        # all arcs mentioning a variable in head or tail
        self.involving = [
            self.heads_mask[2 * v] | self.heads_mask[2 * v + 1]
            | self.tailed_by[2 * v] | self.tailed_by[2 * v + 1]
            for v in range(n)
        ]

    def ids(self, mask: int) -> tuple[int, ...]:
        """The ids of the arcs in ``mask``, ascending."""
        return tuple(a + 1 for a in range(self.m) if mask & (1 << a))


@dataclass(frozen=True)
class PrimeImplicantGraph:
    """The directed hypergraph with one arc per prime implicant.

    Arcs are sorted by (target variable, value descending, tail) and ids are
    assigned 1-based in that order, so output is reproducible byte-for-byte.
    """

    network: BooleanNetwork
    arcs: tuple[HyperArc, ...]

    @cached_property
    def by_head(self) -> dict[Literal, tuple[int, ...]]:
        """For each literal (v, c), the ids of the arcs inducing it."""
        index: dict[Literal, list[int]] = {}
        for arc in self.arcs:
            index.setdefault(arc.head, []).append(arc.id)
        return {lit: tuple(ids) for lit, ids in index.items()}

    @cached_property
    def masks(self) -> ArcMasks:
        """The bitmask view of the arcs, built on first use."""
        return ArcMasks(self.n, self.arcs)

    def arc(self, arc_id: int) -> HyperArc:
        if not 1 <= arc_id <= len(self.arcs):
            raise KeyError(f"unknown arc id {arc_id}")
        return self.arcs[arc_id - 1]

    @property
    def n(self) -> int:
        return self.network.n


def build_graph(net: BooleanNetwork, cap: Optional[int] = None) -> PrimeImplicantGraph:
    """Enumerate all prime implicants of the network and assemble the graph.

    The functions' supports must fit ``cap`` (default: the network's
    ``support_cap``)."""
    entries = []
    memo: dict = {}
    for i, (support, table) in enumerate(net.tables(cap)):
        for c, tails in enumerate(_implicant_tails(support, table, i, memo)):
            entries.extend((i, 1 - c, tail) for tail in tails)
    entries.sort()
    arcs = tuple(
        HyperArc(idx + 1, tail, (i, 1 - inv_c))
        for idx, (i, inv_c, tail) in enumerate(entries)
    )
    return PrimeImplicantGraph(net, arcs)
