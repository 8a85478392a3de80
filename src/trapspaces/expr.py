"""Boolean expression ASTs: parsing, evaluation, bit-parallel truth tables,
restriction and support analysis.

Concrete syntax: identifiers ``[A-Za-z_][A-Za-z0-9_]*``, negation ``!``,
conjunction ``&``, disjunction ``|``, constants ``0``/``1`` and parentheses.
Precedence is ``!`` > ``&`` > ``|``; both binary operators are n-ary in the AST.
All nodes are immutable and safe to share between workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import ExpressionSyntaxError, SupportTooLargeError, UnknownVariableError

DEFAULT_SUPPORT_CAP = 16


class Expression:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expression):
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("constant must be 0 or 1")


@dataclass(frozen=True)
class Var(Expression):
    index: int


@dataclass(frozen=True)
class Not(Expression):
    child: Expression


@dataclass(frozen=True)
class And(Expression):
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("And requires at least two children")


@dataclass(frozen=True)
class Or(Expression):
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Or requires at least two children")


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([01])|([!&|()]))")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        if m.group(1):
            yield ("ident", m.group(1), m.start(1))
        elif m.group(2):
            yield ("const", m.group(2), m.start(2))
        else:
            yield (m.group(3), m.group(3), m.start(3))
        pos = m.end()
    yield ("eof", "", len(text))


class _Parser:
    def __init__(self, text: str, vocabulary: Sequence[str]):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.index_of = {name: i for i, name in enumerate(vocabulary)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expression:
        node = self.disjunction()
        tok = self.peek()
        if tok[0] != "eof":
            raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def disjunction(self) -> Expression:
        terms = [self.conjunction()]
        while self.peek()[0] == "|":
            self.advance()
            terms.append(self.conjunction())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def conjunction(self) -> Expression:
        factors = [self.factor()]
        while self.peek()[0] == "&":
            self.advance()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else And(tuple(factors))

    def factor(self) -> Expression:
        tok = self.peek()
        if tok[0] == "!":
            self.advance()
            return Not(self.factor())
        if tok[0] == "(":
            self.advance()
            node = self.disjunction()
            self.expect(")")
            return node
        if tok[0] == "const":
            self.advance()
            return Const(int(tok[1]))
        if tok[0] == "ident":
            self.advance()
            if tok[1] not in self.index_of:
                raise UnknownVariableError(tok[1])
            return Var(self.index_of[tok[1]])
        raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expression(text: str, vocabulary: Sequence[str]) -> Expression:
    """Parse ``text`` into an AST; identifiers resolve to vocabulary indices."""
    return _Parser(text, vocabulary).parse()


def format_expression(f: Expression, vocabulary: Sequence[str]) -> str:
    """Render ``f`` in the concrete syntax; round-trips structurally."""
    if isinstance(f, Const):
        return str(f.value)
    if isinstance(f, Var):
        return vocabulary[f.index]
    if isinstance(f, Not):
        inner = format_expression(f.child, vocabulary)
        if isinstance(f.child, (And, Or)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(f, And):
        parts = []
        for child in f.children:
            text = format_expression(child, vocabulary)
            if isinstance(child, (And, Or)):
                text = f"({text})"
            parts.append(text)
        return " & ".join(parts)
    if isinstance(f, Or):
        parts = []
        for child in f.children:
            text = format_expression(child, vocabulary)
            if isinstance(child, Or):
                text = f"({text})"
            parts.append(text)
        return " | ".join(parts)
    raise TypeError(f"not an expression node: {f!r}")


def evaluate(f: Expression, x) -> int:
    """Evaluate ``f`` at a state; ``x`` must fix every referenced variable."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        return x.value(f.index)
    if isinstance(f, Not):
        return 1 - evaluate(f.child, x)
    if isinstance(f, And):
        for child in f.children:
            if evaluate(child, x) == 0:
                return 0
        return 1
    if isinstance(f, Or):
        for child in f.children:
            if evaluate(child, x) == 1:
                return 1
        return 0
    raise TypeError(f"not an expression node: {f!r}")


def restrict(f: Expression, p) -> Expression:
    """Substitute the fixed values of subspace ``p`` and fold constants locally.

    The result contains no fixed variable of ``p`` and agrees with ``f`` on
    every state of ``p``. No equivalence reasoning beyond constant folding.
    """
    if isinstance(f, Const):
        return f
    if isinstance(f, Var):
        if p.is_fixed(f.index):
            return Const(p.value(f.index))
        return f
    if isinstance(f, Not):
        child = restrict(f.child, p)
        if isinstance(child, Const):
            return Const(1 - child.value)
        return Not(child)
    if isinstance(f, (And, Or)):
        absorbing = 0 if isinstance(f, And) else 1
        kept = []
        for child in f.children:
            sub = restrict(child, p)
            if isinstance(sub, Const):
                if sub.value == absorbing:
                    return Const(absorbing)
                continue
            kept.append(sub)
        if not kept:
            return Const(1 - absorbing)
        if len(kept) == 1:
            return kept[0]
        return And(tuple(kept)) if isinstance(f, And) else Or(tuple(kept))
    raise TypeError(f"not an expression node: {f!r}")


def syntactic_support(f: Expression) -> set[int]:
    """Indices of all variables occurring in ``f``."""
    if isinstance(f, Const):
        return set()
    if isinstance(f, Var):
        return {f.index}
    if isinstance(f, Not):
        return syntactic_support(f.child)
    if isinstance(f, (And, Or)):
        out: set[int] = set()
        for child in f.children:
            out |= syntactic_support(child)
        return out
    raise TypeError(f"not an expression node: {f!r}")


def _column(k: int, pos: int) -> int:
    """The 2^k-bit table of row bit ``pos``: bit r is set iff bit ``pos`` of r is."""
    width = 1 << pos
    return ((1 << (1 << k)) - 1) // ((1 << (2 * width)) - 1) * (((1 << width) - 1) << width)


def _tabulate(f: Expression, columns: dict[int, int], full: int) -> int:
    if isinstance(f, Var):
        return columns[f.index]
    if isinstance(f, Const):
        return full if f.value else 0
    if isinstance(f, Not):
        return _tabulate(f.child, columns, full) ^ full
    if isinstance(f, And):
        table = full
        for child in f.children:
            table &= _tabulate(child, columns, full)
        return table
    if isinstance(f, Or):
        table = 0
        for child in f.children:
            table |= _tabulate(child, columns, full)
        return table
    raise TypeError(f"not an expression node: {f!r}")


def truth_table(f: Expression, support: Sequence[int], cap: int = DEFAULT_SUPPORT_CAP) -> int:
    """Tabulate ``f`` over ``support`` as a 2^k-bit integer (bit r = row r).

    Bit j of a row index, counting the first support variable as most
    significant, holds the value of ``support[j]``. Evaluation is
    bit-parallel: each variable stands for its whole column, so one walk of
    the AST yields every row.
    """
    k = len(support)
    if k > cap:
        raise SupportTooLargeError(k, cap)
    columns = {v: _column(k, k - 1 - j) for j, v in enumerate(support)}
    return _tabulate(f, columns, (1 << (1 << k)) - 1)


def tabulate(f: Expression, cap: int = DEFAULT_SUPPORT_CAP) -> tuple[tuple[int, ...], int]:
    """The sorted syntactic support of ``f`` and the truth table over it.

    The cap applies to the syntactic support, fictitious variables included.
    """
    support = tuple(sorted(syntactic_support(f)))
    return support, truth_table(f, support, cap)


def constant_value(f: Expression, cap: int = DEFAULT_SUPPORT_CAP) -> Optional[int]:
    """Return c if ``f`` equals c on every assignment of its syntactic support.

    Decided semantically from the truth table, so algebraically hidden
    constants (e.g. ``v & !v``) are detected.
    """
    support, table = tabulate(f, cap)
    if table == 0:
        return 0
    if table == (1 << (1 << len(support))) - 1:
        return 1
    return None


def essential_support(f: Expression, cap: int = DEFAULT_SUPPORT_CAP) -> set[int]:
    """Variables whose value can change ``f``: some pair of states differing
    only in that variable yields different values."""
    support, table = tabulate(f, cap)
    k = len(support)
    essential: set[int] = set()
    for j, v in enumerate(support):
        pos = k - 1 - j
        column = _column(k, pos)
        # compare the rows with the variable at 1 against those with it at 0
        if (table & column) >> (1 << pos) != table & ~column:
            essential.add(v)
    return essential


def remap_variables(f: Expression, mapping: dict[int, int]) -> Expression:
    """Rewrite every variable index through ``mapping`` (total on the support)."""
    if isinstance(f, Const):
        return f
    if isinstance(f, Var):
        return Var(mapping[f.index])
    if isinstance(f, Not):
        return Not(remap_variables(f.child, mapping))
    if isinstance(f, And):
        return And(tuple(remap_variables(c, mapping) for c in f.children))
    if isinstance(f, Or):
        return Or(tuple(remap_variables(c, mapping) for c in f.children))
    raise TypeError(f"not an expression node: {f!r}")
