"""States, subspaces, their partial order, and Boolean networks.

Conventions: variables are indexed 0..n-1 and variable i occupies bit
position n-1-i of every bit-set, so the binary rendering of a state integer
reads left-to-right as v1 v2 ... vn. Subspace text form uses ``-`` for a
free variable. States are a special case of subspaces (all variables fixed)
and are interchangeably handled as plain integers where speed matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional, Sequence

from . import expr as _expr
from .errors import CapExceededError, SupportTooLargeError, TrapSpacesError

DEFAULT_ENUM_CAP = 24


@dataclass(frozen=True)
class Subspace:
    """A partial assignment: ``mask`` marks fixed variables, ``vals`` their values.

    Canonical form: value bits of free variables are zero, so structural
    equality coincides with semantic equality.
    """

    n: int
    mask: int
    vals: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        full = (1 << self.n) - 1
        if self.mask & ~full or self.vals & ~full:
            raise ValueError("bits outside the vocabulary")
        if self.vals & ~self.mask:
            raise ValueError("value bit set for a free variable")

    @staticmethod
    def whole(n: int) -> "Subspace":
        return Subspace(n, 0, 0)

    @staticmethod
    def from_state(n: int, x: int) -> "Subspace":
        return Subspace(n, (1 << n) - 1, x)

    @staticmethod
    def from_items(n: int, items: Iterable[tuple[int, int]]) -> "Subspace":
        """Build from (variable index, value) pairs."""
        mask = vals = 0
        for i, c in items:
            bit = 1 << (n - 1 - i)
            mask |= bit
            if c:
                vals |= bit
        return Subspace(n, mask, vals)

    @staticmethod
    def from_str(text: str) -> "Subspace":
        """Parse the text form, e.g. ``1-01`` (``-`` marks a free variable)."""
        n = len(text)
        mask = vals = 0
        for ch in text:
            mask <<= 1
            vals <<= 1
            if ch == "1":
                mask |= 1
                vals |= 1
            elif ch == "0":
                mask |= 1
            elif ch != "-":
                raise ValueError(f"bad subspace character {ch!r}")
        return Subspace(n, mask, vals)

    def __str__(self) -> str:
        if self.is_state:
            # every variable fixed: the common case when listing state graphs
            return format(self.vals, f"0{self.n}b")
        out = []
        for i in range(self.n):
            bit = 1 << (self.n - 1 - i)
            if self.mask & bit:
                out.append("1" if self.vals & bit else "0")
            else:
                out.append("-")
        return "".join(out)

    def is_fixed(self, i: int) -> bool:
        return bool(self.mask & (1 << (self.n - 1 - i)))

    def value(self, i: int) -> int:
        return (self.vals >> (self.n - 1 - i)) & 1

    def fixed_vars(self) -> list[int]:
        return [i for i in range(self.n) if self.is_fixed(i)]

    def free_vars(self) -> list[int]:
        return [i for i in range(self.n) if not self.is_fixed(i)]

    @property
    def num_fixed(self) -> int:
        return bin(self.mask).count("1")

    @property
    def is_state(self) -> bool:
        return self.mask == (1 << self.n) - 1

    @property
    def state_int(self) -> int:
        if not self.is_state:
            raise TrapSpacesError("subspace has free variables, not a state")
        return self.vals

    def items(self) -> list[tuple[int, int]]:
        return [(i, self.value(i)) for i in self.fixed_vars()]

    def contains_state(self, x: int) -> bool:
        return (x & self.mask) == self.vals

    def intersect(self, other: "Subspace") -> Optional["Subspace"]:
        """Intersection of the referenced state sets, or None if empty."""
        common = self.mask & other.mask
        if (self.vals ^ other.vals) & common:
            return None
        return Subspace(self.n, self.mask | other.mask, self.vals | other.vals)


def subspace_leq(p: Subspace, q: Subspace) -> bool:
    """p <= q iff the states of p are contained in those of q."""
    if p.n != q.n:
        raise TrapSpacesError("subspaces over different vocabularies")
    return (q.mask & ~p.mask) == 0 and (p.vals & q.mask) == q.vals


def subspace_lt(p: Subspace, q: Subspace) -> bool:
    return p != q and subspace_leq(p, q)


def referenced_states(p: Subspace, cap: int = DEFAULT_ENUM_CAP) -> list[int]:
    """All states matching ``p`` as integers, ascending."""
    if p.n > cap:
        raise CapExceededError(p.n, cap)
    free_bits = [1 << (p.n - 1 - i) for i in p.free_vars()]
    states = []
    for combo in product((0, 1), repeat=len(free_bits)):
        x = p.vals
        for bit, on in zip(free_bits, combo):
            if on:
                x |= bit
        states.append(x)
    states.sort()
    return states


def smallest_enclosing_subspace(states: Iterable[int], n: int) -> Subspace:
    """The smallest subspace containing the given states: fixes exactly the
    variables that are constant across them."""
    it = iter(states)
    try:
        first = next(it)
    except StopIteration:
        raise TrapSpacesError("empty state set has no enclosing subspace")
    full = (1 << n) - 1
    mask = full
    for x in it:
        mask &= ~(x ^ first)
    return Subspace(n, mask, first & mask)


@dataclass(frozen=True)
class BooleanNetwork:
    """Ordered variables plus one update expression per variable.

    Each function's sorted syntactic support is computed once, when the
    network is built, and its truth table once, on first use (``tables``).
    ``support_cap`` bounds the syntactic supports for every caller that
    passes no cap of its own: the tables here (``eval_function``,
    ``restricted_constant``) and the state-space layer in ``dynamics``,
    whose tables span all variables (``check_supports``).
    """

    variables: tuple[str, ...]
    functions: tuple[_expr.Expression, ...]
    support_cap: int = field(default=_expr.DEFAULT_SUPPORT_CAP, compare=False, repr=False)
    supports: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    _tables: Optional[list] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.variables) < 1:
            raise ValueError("need at least one variable")
        if len(self.variables) != len(self.functions):
            raise ValueError("variables and functions must align")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        supports = tuple(tuple(sorted(_expr.syntactic_support(f))) for f in self.functions)
        n = len(self.variables)
        if any(s and (s[0] < 0 or s[-1] >= n) for s in supports):
            raise ValueError("function references an undeclared variable")
        object.__setattr__(self, "supports", supports)

    @property
    def n(self) -> int:
        return len(self.variables)

    @staticmethod
    def from_strings(pairs: Sequence[tuple[str, str]]) -> "BooleanNetwork":
        names = tuple(name for name, _ in pairs)
        functions = tuple(_expr.parse_expression(text, names) for _, text in pairs)
        return BooleanNetwork(names, functions)

    def check_supports(self, cap: Optional[int] = None) -> None:
        """Raise SupportTooLargeError at the first syntactic support above
        ``cap`` (default ``support_cap``)."""
        cap = self.support_cap if cap is None else cap
        for support in self.supports:
            if len(support) > cap:
                raise SupportTooLargeError(len(support), cap)

    def tables(self, cap: Optional[int] = None) -> list[tuple[tuple[int, ...], int]]:
        """Per function: its sorted syntactic support and the truth table over
        it (``expr.truth_table``), tabulated on the first call and shared by
        every later one. Each call checks the supports against ``cap``
        (``check_supports``)."""
        cap = self.support_cap if cap is None else cap
        self.check_supports(cap)
        if self._tables is None:
            object.__setattr__(self, "_tables", [
                (support, _expr.truth_table(f, support, cap))
                for support, f in zip(self.supports, self.functions)
            ])
        return self._tables

    def eval_function(self, i: int, x: int) -> int:
        """Value of the i-th update function at integer state ``x``."""
        support, table = (self._tables or self.tables())[i]
        row = 0
        for v in support:
            row = (row << 1) | ((x >> (self.n - 1 - v)) & 1)
        return (table >> row) & 1

    def image_int(self, x: int) -> int:
        """Integer-state fast path of image_state."""
        y = 0
        for i in range(self.n):
            if self.eval_function(i, x):
                y |= 1 << (self.n - 1 - i)
        return y

    def restricted_constant(self, i: int, p: Subspace) -> Optional[int]:
        """Constant value of the i-th function restricted to ``p``, if any."""
        support, table = (self._tables or self.tables())[i]
        k = len(support)
        if k == 0:
            return table & 1
        base = 0
        free_rows = []
        for j, v in enumerate(support):
            bit = 1 << (k - 1 - j)
            if p.is_fixed(v):
                if p.value(v):
                    base |= bit
            else:
                free_rows.append(bit)
        first = (table >> base) & 1
        for combo in range(1, 1 << len(free_rows)):
            row = base
            for idx, bit in enumerate(free_rows):
                if combo & (1 << idx):
                    row |= bit
            if ((table >> row) & 1) != first:
                return None
        return first


def image_state(net: BooleanNetwork, x: Subspace) -> Subspace:
    """The image F(x) of a state."""
    return Subspace.from_state(net.n, net.image_int(x.state_int))


def image_subspace(net: BooleanNetwork, p: Subspace) -> Subspace:
    """The image F[p]: fixes v_i at c whenever the restricted function f_i[p]
    is the constant c."""
    mask = vals = 0
    for i in range(net.n):
        c = net.restricted_constant(i, p)
        if c is not None:
            bit = 1 << (net.n - 1 - i)
            mask |= bit
            if c:
                vals |= bit
    return Subspace(net.n, mask, vals)


def is_trap_space(net: BooleanNetwork, p: Subspace) -> bool:
    """Trap-space characterization: p is a trap set iff p >= F[p], i.e. every
    fixed variable's restricted function is constant at its fixed value."""
    for i in p.fixed_vars():
        if net.restricted_constant(i, p) != p.value(i):
            return False
    return True
