"""Prime implicant enumeration and the prime implicant hypergraph.

For a non-constant function f, a c-prime implicant is a maximal subspace on
which f is the constant c. A constant function f = c contributes a single
self-referential implicant fixing its own target variable at c, which makes
input-like variables self-stabilizing. Each implicant becomes one hyperarc:
tail = the implicant decomposed into literals, head = the induced literal.
The graph stores its arcs once, as the bitmask table ``ArcMasks`` that
``build_graph`` writes straight from the prime cubes and that the search,
the witness checks and the encoders read; the ``HyperArc`` records and the
per-literal provider index are views built from it on first use.
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
    table, by Shannon expansion on its most significant row bit x (the Blake
    canonical form, after Coudert and Madre): P(f) is x'p for p in P(f0) and
    xp for p in P(f1) where p is not in P(f0 f1), then P(f0 f1). A prime p
    of f0 implies f1 exactly when it is a prime of f0 f1. A variable f does
    not depend on adds no cube, since then f0 = f1.

    Read as tails over the variables of the row bits, most significant
    first, the cubes come in lexicographic order: a tail with x at 0 sorts
    before one with x at 1, and both before the tails without x. The empty
    tail, which sorts first, is the single cube of a tautology. ``memo``
    maps (table, k) to the primes.
    """
    key = (table, k)
    cubes = memo.get(key)
    if cubes is None:
        if not table:
            cubes = []
        elif table == (1 << (1 << k)) - 1:
            cubes = [(0, 0)]
        else:
            half = 1 << (k - 1)
            f0, f1 = table & ((1 << half) - 1), table >> half
            both = _primes(f0 & f1, k - 1, memo)
            common = set(both)
            bit = 1 << (k - 1)
            cubes = (
                [(m | bit, v) for m, v in _primes(f0, k - 1, memo) if (m, v) not in common]
                + [(m | bit, v | bit) for m, v in _primes(f1, k - 1, memo) if (m, v) not in common]
                + both
            )
        memo[key] = cubes
    return cubes


def _implicant_litmasks(support: tuple[int, ...], table: int, target: int, c: int,
                        memo: dict) -> list[int]:
    """The c-prime implicants of a function as literal masks (bit 2*v + d
    for the literal (v, d)), from its truth table over its syntactic
    support, in lexicographic tail order. Only a constant function c has an
    empty prime; it becomes the literal (target, c)."""
    k = len(support)
    if not c:
        table ^= (1 << (1 << k)) - 1
    # row bit b is the variable support[k-1-b]
    lit0 = [1 << 2 * v for v in reversed(support)]
    out = []
    for mask, vals in _primes(table, k, memo):
        lits = 0
        while mask:
            low = mask & -mask
            lit = lit0[low.bit_length() - 1]
            lits |= lit << 1 if vals & low else lit
            mask ^= low
        out.append(lits or 1 << (2 * target + c))
    return out


def literals(litmask: int) -> tuple[Literal, ...]:
    """The literals (v, c) of a literal mask, ascending by variable."""
    out = []
    while litmask:
        low = litmask & -litmask
        bit = low.bit_length() - 1
        out.append((bit >> 1, bit & 1))
        litmask ^= low
    return tuple(out)


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
        PrimeImplicant(Subspace.from_items(n, literals(lits)), c, target)
        for lits in _implicant_litmasks(*_expr.tabulate(f, cap), target, c, {})
    ]


class ArcMasks:
    """The arcs of a graph as bitmasks: the arc of id k has bit k-1 and the
    literal (v, c) has bit 2*v + c. Per arc, its head literal and the
    literal mask of its tail; per literal, the arcs providing it and the
    arcs with it in their tail; per variable, the arcs mentioning it.

    Every tail must be non-empty and hold at most one literal per variable.
    """

    def __init__(self, n: int, head_lit: list[int], tail_litmask: list[int]):
        self.n = n
        self.m = len(head_lit)
        self.head_lit = head_lit
        self.tail_litmask = tail_litmask
        self.heads_mask = [0] * (2 * n)  # arcs providing each literal
        self.tailed_by = [0] * (2 * n)  # arcs with each literal in their tail
        low_lits = (4 ** n - 1) // 3  # the literal (v, 0) of every variable
        for a, (h, t) in enumerate(zip(head_lit, tail_litmask)):
            if not t:
                raise ValueError("arc tail must be non-empty")
            if t & (t >> 1) & low_lits:
                raise ValueError("tail variables must be distinct")
            bit = 1 << a
            self.heads_mask[h] |= bit
            while t:
                low = t & -t
                self.tailed_by[low.bit_length() - 1] |= bit
                t ^= low
        # all arcs mentioning a variable in head or tail
        self.involving = [
            self.heads_mask[2 * v] | self.heads_mask[2 * v + 1]
            | self.tailed_by[2 * v] | self.tailed_by[2 * v + 1]
            for v in range(n)
        ]

    def ids(self, mask: int) -> tuple[int, ...]:
        """The ids of the arcs in ``mask``, ascending."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return tuple(out)


@dataclass(frozen=True)
class PrimeImplicantGraph:
    """The directed hypergraph with one arc per prime implicant.

    Arcs are sorted by (target variable, value descending, tail) and ids are
    assigned 1-based in that order, so output is reproducible byte-for-byte.
    ``masks`` is the one stored arc table; ``arcs`` and ``by_head`` are
    built from it on first use.
    """

    network: BooleanNetwork
    masks: ArcMasks

    @cached_property
    def arcs(self) -> tuple[HyperArc, ...]:
        """The arcs as records, in id order."""
        masks = self.masks
        return tuple(
            HyperArc(a, literals(t), divmod(h, 2))
            for a, (h, t) in enumerate(zip(masks.head_lit, masks.tail_litmask), 1)
        )

    @cached_property
    def by_head(self) -> dict[Literal, tuple[int, ...]]:
        """For each literal (v, c) some arc induces, the ids of those arcs."""
        masks = self.masks
        return {
            (v, c): masks.ids(masks.heads_mask[2 * v + c])
            for v in range(self.n) for c in (1, 0)
            if masks.heads_mask[2 * v + c]
        }

    def arc(self, arc_id: int) -> HyperArc:
        if not 1 <= arc_id <= self.masks.m:
            raise KeyError(f"unknown arc id {arc_id}")
        return self.arcs[arc_id - 1]

    @property
    def n(self) -> int:
        return self.network.n


def build_graph(net: BooleanNetwork, cap: Optional[int] = None) -> PrimeImplicantGraph:
    """Enumerate all prime implicants of the network and assemble the graph.

    Per target variable, the 1-primes come before the 0-primes, each in
    tail order, so arc ids follow without a sort. The functions' supports
    must fit ``cap`` (default: the network's ``support_cap``)."""
    head_lit: list[int] = []
    tail_litmask: list[int] = []
    memo: dict = {}
    for i, (support, table) in enumerate(net.tables(cap)):
        for c in (1, 0):
            tails = _implicant_litmasks(support, table, i, c, memo)
            head_lit.extend([2 * i + c] * len(tails))
            tail_litmask.extend(tails)
    return PrimeImplicantGraph(net, ArcMasks(net.n, head_lit, tail_litmask))
