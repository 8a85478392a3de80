"""Prime implicant enumeration and the prime implicant hypergraph.

For a non-constant function f, a c-prime implicant is a maximal subspace on
which f is the constant c. A constant function f = c contributes a single
self-referential implicant fixing its own target variable at c, which makes
input-like variables self-stabilizing. Each implicant becomes one hyperarc:
tail = the implicant decomposed into literals, head = the induced literal.
The graph is one bitmask arc table, ``PrimeImplicantGraph``, that
``build_graph`` writes straight from the prime cubes and that the search,
the witness checks and the encoders read; its ``arcs`` view, which the
``primes`` command prints, lists the arcs as (id, tail, head) tuples. The
constructor builds only what every command reads; the per-literal tail
masks and per-variable arc masks that only the search reads are built on
the first search (``PrimeImplicantGraph.search_masks``), so an export never
pays for them.

The primes of a function come from its truth table over its k support
variables by a fixed number of big-integer operations per variable: the
2^k-bit table is expanded into a 3^k-bit cube table, one bit per cube,
that holds the implicants; a filter keeps the implicants that no implicant
with one more free variable contains; the set bits, read in ascending
order, are the primes in lexicographic tail order.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby, repeat
from operator import countOf, or_
from typing import Optional

from . import expr as _expr
from .space import BooleanNetwork

Literal = tuple[int, int]  # (variable index, value)

# the search masks are transposed in chunks of at least this many arcs: per
# chunk and literal the cost is a fixed overhead of a few calls plus a few
# byte operations per arc, so smaller chunks are mostly overhead
_CHUNK_ARCS = 64
# per bit position j, the table that maps a byte to b"1" if its bit j is set
# and to b"0" otherwise
_BIT_CHARS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


def _prime_table(table: int, k: int, memo: dict) -> int:
    """The prime cubes of a k-variable truth table as a 3^k-bit table, one
    bit per cube. Cube q has index sum_j d_j * 3^j over the row bits j, with
    digit d_j = 0 when row bit j is fixed at 0, 1 when it is fixed at 1 and
    2 when it is free.

    Expand: the steps of ``expr._cube_steps`` turn the truth table into the
    implicant table, set at q iff the function holds on every row of q: at
    each row bit, the half for 0 goes to digit 0, the half for 1 to digit 1
    and their AND to digit 2. Filter: an implicant with row bit j fixed is
    prime only if freeing j leaves the function, so the implicants with
    digit j = 2, shifted down by 2 * 3^j to digit 0 and by 3^j to digit 1,
    clear the cubes they contain. ``memo`` maps k to its steps, built once
    per call of ``build_graph``; the digit-2 mask of each step is derived
    from its low mask in turn, so one such mask is live at a time.
    """
    steps = memo.get(k)
    if steps is None:
        steps = memo[k] = _expr._cube_steps(k)
    for low, h, w in steps:
        zero, one = table & low, table >> h & low
        table = zero | one << w | (zero & one) << 2 * w
    kill = 0
    for low, _, w in steps:
        # a step's frames start where the blocks of its low mask do, and
        # digit 2 is the top third of every frame
        starts = low & ~(low << 1)
        freed = table & ((starts << 3 * w) - (starts << 2 * w))
        kill |= (freed | freed >> w) >> w
    return table & ~kill


def _implicant_litmasks(support: tuple[int, ...], table: int, target: int, c: int,
                        memo: dict) -> list[int]:
    """The c-prime implicants of a function as literal masks (bit 2*v + d
    for the literal (v, d)), from its truth table over its syntactic
    support, in lexicographic tail order. Only a constant function c has an
    empty prime; it becomes the literal (target, c).

    A variable f does not depend on is free in every prime. The first
    support variable is the most significant digit of ``_prime_table``, and
    a tail with it at 0 sorts before one with it at 1, both before the
    tails without it, and so on down the digits: ascending index order is
    tail order. The set bits are read off one binary string, scanned from
    its end."""
    k = len(support)
    if not c:
        table ^= (1 << (1 << k)) - 1
    # digit j is the variable support[k-1-j]; its literal mask per value
    digits = [(lit, lit << 1, 0) for lit in (1 << 2 * v for v in reversed(support))]
    bits = format(_prime_table(table, k, memo), "b")
    top = len(bits) - 1
    out = []
    pos = bits.rfind("1")
    while pos >= 0:
        q, lits = top - pos, 0
        for digit in digits:
            q, d = divmod(q, 3)
            lits |= digit[d]
        out.append(lits or 1 << (2 * target + c))
        pos = bits.rfind("1", 0, pos)
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


class PrimeImplicantGraph:
    """The directed hypergraph with one arc per prime implicant, as one
    bitmask table: the arc of id k has bit k-1 and the literal (v, c) has
    bit 2*v + c. Per arc, its head literal and the literal mask of its
    tail; per literal, the arcs providing it (``heads_mask``).

    Arcs are sorted by (target variable, value descending, tail) and ids are
    assigned 1-based in that order, so output is reproducible byte-for-byte.
    Every tail must be non-empty and hold at most one literal per variable.

    The constructor builds what every command reads. The masks that only
    the search reads, per literal the arcs with it in their tail and per
    variable the arcs mentioning it, come from ``search_masks()``: built on
    its first call, in time linear in the arc count, and kept in a plain
    attribute, so ``encode`` and ``primes`` never build them. The search
    binds them once and reads them at every node, so they are no
    descriptor: a ``property`` calls its getter on every read, and CPython
    3.11 does not specialise reads of an instance attribute that shadows a
    ``functools.cached_property``.
    """

    def __init__(self, network: BooleanNetwork, head_lit: list[int],
                 tail_litmask: list[int]):
        self.network = network
        n = self.n = network.n
        self.m = len(head_lit)
        self.head_lit = head_lit
        self.tail_litmask = tail_litmask
        low_lits = (4 ** n - 1) // 3  # the literal (v, 0) of every variable
        for t in tail_litmask:
            if not t:
                raise ValueError("arc tail must be non-empty")
            if t & (t >> 1) & low_lits:
                raise ValueError("tail variables must be distinct")
        # arcs providing each literal, one range per run of equal heads;
        # build_graph gives at most one run per literal
        heads_mask = self.heads_mask = [0] * (2 * n)
        start = 0
        for h, run in groupby(head_lit):
            end = start + countOf(run, h)  # the run's length
            heads_mask[h] |= (1 << end) - (1 << start)
            start = end
        self._search_masks: Optional[tuple[list[int], list[int]]] = None

    def search_masks(self) -> tuple[list[int], list[int]]:
        """``(tailed_by, involving)``: per literal the arcs with it in their
        tail, per variable the arcs mentioning it in head or tail. Built on
        the first call and shared by every later one."""
        if self._search_masks is None:
            self._search_masks = self._build_search_masks()
        return self._search_masks

    def _build_search_masks(self) -> tuple[list[int], list[int]]:
        """Transpose the tails chunk by chunk. A chunk's tails, last arc
        first, are packed into byte rows. For each literal some tail of the
        chunk holds, one strided slice reads that literal's byte of every
        row, one translation turns the slice into a binary string, and the
        string is the chunk's part of the literal's mask. An arc costs a few
        byte operations per literal of its chunk; the arcs of one head share
        its function's support, so few literals occur per chunk. A chunk
        costs one shifted OR of up to m bits per literal, and there are at
        most 2n chunks, so for a given n the total is linear in m."""
        n, m, tails = self.n, self.m, self.tail_litmask
        width = (2 * n + 7) // 8  # bytes per packed tail
        size = max(_CHUNK_ARCS, -(-m // (2 * n)))
        tailed_by = [0] * (2 * n)
        for start in range(0, m, size):
            chunk = tails[start:start + size]
            chunk.reverse()
            rows = b"".join(map(int.to_bytes, chunk, repeat(width, len(chunk)),
                                repeat("little", len(chunk))))
            lits = reduce(or_, chunk)
            while lits:
                low = lits & -lits
                lit = low.bit_length() - 1
                column = rows[lit >> 3::width].translate(_BIT_CHARS[lit & 7])
                tailed_by[lit] |= int(column, 2) << start
                lits ^= low
        heads_mask = self.heads_mask
        involving = [
            heads_mask[2 * v] | heads_mask[2 * v + 1] | tailed_by[2 * v] | tailed_by[2 * v + 1]
            for v in range(n)
        ]
        return tailed_by, involving

    def ids(self, mask: int) -> tuple[int, ...]:
        """The ids of the arcs in ``mask``, ascending."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length())
            mask ^= low
        return tuple(out)

    @property
    def arcs(self) -> tuple[tuple[int, tuple[Literal, ...], Literal], ...]:
        """The arcs as (id, tail literals, head literal), in id order."""
        return tuple(
            (a, literals(t), divmod(h, 2))
            for a, (h, t) in enumerate(zip(self.head_lit, self.tail_litmask), 1)
        )


def build_graph(net: BooleanNetwork) -> PrimeImplicantGraph:
    """Enumerate all prime implicants of the network and assemble the graph.

    Per target variable, the 1-primes come before the 0-primes, each in
    tail order, so arc ids follow without a sort. The functions' supports
    must fit the network's ``support_cap``."""
    head_lit: list[int] = []
    tail_litmask: list[int] = []
    memo: dict = {}
    for i, (support, table) in enumerate(net.tables()):
        for c in (1, 0):
            tails = _implicant_litmasks(support, table, i, c, memo)
            head_lit.extend([2 * i + c] * len(tails))
            tail_litmask.extend(tails)
    return PrimeImplicantGraph(net, head_lit, tail_litmask)
