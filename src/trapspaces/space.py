"""States, subspaces, their partial order, and Boolean networks.

Conventions: variables are indexed 0..n-1 and variable i occupies bit
position n-1-i of every bit-set, so the binary rendering of a state integer
reads left-to-right as v1 v2 ... vn. Subspace text form uses ``-`` for a
free variable. States are a special case of subspaces (all variables fixed)
and are interchangeably handled as plain integers where speed matters.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import expr as _expr
from ._value import Value
from .errors import SupportTooLargeError, TrapSpacesError


class Subspace(Value):
    """A partial assignment: ``mask`` marks fixed variables, ``vals`` their values.

    Canonical form: value bits of free variables are zero, so structural
    equality coincides with semantic equality.
    """

    __slots__ = _fields = ("n", "mask", "vals")
    n: int
    mask: int
    vals: int

    def __init__(self, n: int, mask: int, vals: int):
        if n < 1:
            raise ValueError("need at least one variable")
        full = (1 << n) - 1
        if mask & ~full or vals & ~full:
            raise ValueError("bits outside the vocabulary")
        if vals & ~mask:
            raise ValueError("value bit set for a free variable")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "vals", vals)

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
        """The text form: the one subspace renderer, for the CLI too."""
        n, mask, vals = self.n, self.mask, self.vals
        if mask == (1 << n) - 1:
            # every variable fixed: a state, such as a steady state or the
            # enclosing subspace of a one-state attractor
            return format(vals, f"0{n}b")
        out = []
        for i in range(n):
            bit = 1 << (n - 1 - i)
            if mask & bit:
                out.append("1" if vals & bit else "0")
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
        return self.mask.bit_count()

    @property
    def is_state(self) -> bool:
        return self.mask == (1 << self.n) - 1


def subspace_leq(p: Subspace, q: Subspace) -> bool:
    """p <= q iff the states of p are contained in those of q."""
    if p.n != q.n:
        raise TrapSpacesError("subspaces over different vocabularies")
    return (q.mask & ~p.mask) == 0 and (p.vals & q.mask) == q.vals


def select_trap_spaces(spaces: list[Subspace], mode: str) -> list[Subspace]:
    """The spaces of ``mode`` among all trap spaces ``spaces``, in the order
    given: mode="min" keeps the inclusion-minimal ones (equal copies too) and
    "max" the inclusion-maximal ones strictly below the whole space.

    The spaces are visited most fixed first for "min" and fewest fixed
    first for "max", so every space strictly below (above) a space comes
    before it, at a level of the fixed count other than its own, and when
    there is one, an extremal one among them has been kept. A space is
    dropped iff a kept space of an earlier level lies strictly below
    (above) it, tested against all of them at once: bit i of
    ``fixed[b][c]`` is set iff the i-th kept space fixes the variable of
    mask bit b at c, and of ``free[b]`` iff it leaves that variable free.
    """
    if mode not in ("min", "max"):
        raise TrapSpacesError(f"unknown mode {mode!r}")
    lower = mode == "min"
    n = spaces[0].n if spaces else 0
    fixed = [[0, 0] for _ in range(n)]
    free = [0] * n
    kept: list[int] = []  # input positions of the kept spaces
    level = -1
    order = sorted((i for i, p in enumerate(spaces) if lower or p.mask),
                   key=lambda i: spaces[i].mask.bit_count(), reverse=lower)
    for i in order:
        p = spaces[i]
        if p.mask.bit_count() != level:
            level = p.mask.bit_count()
            earlier = (1 << len(kept)) - 1
        # those below p fix what p fixes, to the same values; those above
        # fix nothing that p leaves free or fixes otherwise
        found = earlier
        for b in range(n):
            if not found:
                break
            if p.mask >> b & 1:
                c = p.vals >> b & 1
                found &= fixed[b][c] if lower else ~fixed[b][1 - c]
            elif not lower:
                found &= free[b]
        if found:
            continue
        bit = 1 << len(kept)
        kept.append(i)
        for b in range(n):
            if p.mask >> b & 1:
                fixed[b][p.vals >> b & 1] |= bit
            else:
                free[b] |= bit
    return [spaces[i] for i in sorted(kept)]


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


class BooleanNetwork(Value):
    """Ordered variables plus one update expression per variable.

    Each function's sorted syntactic support is computed once, when the
    network is built, and its truth table once, on first use (``tables``).
    ``support_cap`` bounds the syntactic supports for every layer: the
    tables here (``restricted_constant``, ``primes``) and the state-space
    layer in ``dynamics``, whose tables span all variables
    (``check_supports``).
    """

    # equality, hashing and repr read only the variables and functions
    _fields = ("variables", "functions")
    __slots__ = _fields + ("support_cap", "supports", "_tables")
    variables: tuple[str, ...]
    functions: tuple[_expr.Expression, ...]
    support_cap: int
    supports: tuple[tuple[int, ...], ...]
    _tables: Optional[list]

    def __init__(self, variables: tuple[str, ...], functions: tuple[_expr.Expression, ...],
                 support_cap: int = _expr.DEFAULT_SUPPORT_CAP):
        if len(variables) < 1:
            raise ValueError("need at least one variable")
        if len(variables) != len(functions):
            raise ValueError("variables and functions must align")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        supports = tuple(tuple(sorted(_expr.syntactic_support(f))) for f in functions)
        n = len(variables)
        if any(s and (s[0] < 0 or s[-1] >= n) for s in supports):
            raise ValueError("function references an undeclared variable")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "support_cap", support_cap)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "_tables", None)

    @property
    def n(self) -> int:
        return len(self.variables)

    def check_supports(self) -> None:
        """Raise SupportTooLargeError at the first syntactic support above
        ``support_cap``."""
        for support in self.supports:
            if len(support) > self.support_cap:
                raise SupportTooLargeError(len(support), self.support_cap)

    def tables(self) -> list[tuple[tuple[int, ...], int]]:
        """Per function: its sorted syntactic support and the truth table over
        it (``expr.truth_table``), tabulated on the first call and shared by
        every later one. ``truth_table`` raises SupportTooLargeError at the
        first support above ``support_cap``."""
        if self._tables is None:
            object.__setattr__(self, "_tables", [
                (support, _expr.truth_table(f, support, self.support_cap))
                for support, f in zip(self.supports, self.functions)
            ])
        return self._tables

    def restricted_constant(self, i: int, p: Subspace) -> Optional[int]:
        """Constant value of the i-th function restricted to ``p``, if any: its
        table rows inside ``p`` are the AND of the columns (``expr._column``)
        of the variables ``p`` fixes, complemented where fixed at 0."""
        require_width(self, p)
        support, table = (self._tables or self.tables())[i]
        k = len(support)
        rows = (1 << (1 << k)) - 1
        last = self.n - 1
        for j, v in enumerate(support):
            bit = 1 << (last - v)
            if p.mask & bit:
                column = _expr._column(k, k - 1 - j)
                rows &= column if p.vals & bit else ~column
        hit = table & rows
        if hit == rows:
            return 1
        return 0 if hit == 0 else None


def require_width(net: BooleanNetwork, p: Subspace) -> None:
    """Raise TrapSpacesError unless ``p`` has one position per variable."""
    if p.n != net.n:
        raise TrapSpacesError(f"pattern has {p.n} positions but the network has {net.n} variables")


def image_subspace(net: BooleanNetwork, p: Subspace) -> Subspace:
    """The image F[p]: fixes v_i at c whenever the restricted function f_i[p]
    is the constant c."""
    constants = ((i, net.restricted_constant(i, p)) for i in range(net.n))
    return Subspace.from_items(net.n, [(i, c) for i, c in constants if c is not None])


def is_trap_space(net: BooleanNetwork, p: Subspace) -> bool:
    """Trap-space characterization: p is a trap set iff p >= F[p], i.e. every
    fixed variable's restricted function is constant at its fixed value."""
    for i in p.fixed_vars():
        if net.restricted_constant(i, p) != p.value(i):
            return False
    return True
