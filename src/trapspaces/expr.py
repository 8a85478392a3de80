"""Boolean expression ASTs: parsing, evaluation, bit-parallel truth tables,
restriction and support analysis.

Concrete syntax: identifiers ``[A-Za-z_][A-Za-z0-9_]*``, negation ``!``,
conjunction ``&``, disjunction ``|``, constants ``0``/``1`` and parentheses.
Precedence is ``!`` > ``&`` > ``|``; both binary operators are n-ary in the AST.
All nodes are immutable and safe to share between workers.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

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


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[01]|\S")
_IDENT_RE = re.compile(r"[A-Za-z_]")
_TOKEN_START_RE = re.compile(r"[A-Za-z_01!&|()]")  # else an unexpected character

# deepest nesting of open '(' and pending '!' accepted; it keeps the AST
# walkers, which recurse once per level, far from the recursion limit
MAX_NESTING = 200


def _error(text: str, tokens: list, j: int, message: Optional[str]) -> Exception:
    """The error at token ``j`` (the end if ``j == len(tokens)``; message None:
    an unknown variable), or an unexpected character at or after it, which
    a separate tokenizing pass would have reported first."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
    for i in range(j, len(tokens)):
        if not _TOKEN_START_RE.match(tokens[i]):
            return ExpressionSyntaxError(f"unexpected character {tokens[i]!r}", starts[i])
    if message is None:
        return UnknownVariableError(tokens[j])
    return ExpressionSyntaxError(message, starts[j])


def _join(kind: type, items: list) -> Expression:
    return items[0] if len(items) == 1 else kind(tuple(items))


def parse_expression(text: str, vocabulary: Sequence[str] | Mapping[str, int]) -> Expression:
    """Parse ``text`` into an AST; identifiers resolve to vocabulary indices.
    A caller parsing many expressions over one vocabulary passes the
    name-to-index mapping, built once.

    One scan and one operator-precedence pass with an explicit stack: an
    open parenthesis pushes the enclosing (or_terms, and_factors,
    pending_nots) frame and its closing one pops it. Repeated variables
    share one ``Var`` node.
    """
    index_of = (vocabulary if isinstance(vocabulary, Mapping)
                else {name: i for i, name in enumerate(vocabulary)})
    tokens = _TOKEN_RE.findall(text)
    nodes = {"0": Const(0), "1": Const(1)}
    stack: list[tuple[list, list, int]] = []
    terms: list = []
    factors: list = []
    nots = depth = 0
    operand = True  # an operand comes next
    for j, token in enumerate(tokens):
        if operand:
            if token == "!" or token == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise _error(text, tokens, j, f"nesting deeper than {MAX_NESTING}")
                if token == "!":
                    nots += 1
                else:
                    stack.append((terms, factors, nots))
                    terms, factors, nots = [], [], 0
                continue
            node = nodes.get(token)
            if node is None:
                if not _IDENT_RE.match(token):
                    raise _error(text, tokens, j, f"unexpected token {token!r}")
                if token not in index_of:
                    raise _error(text, tokens, j, None)
                node = nodes[token] = Var(index_of[token])
        elif token == "&":
            operand = True
            continue
        elif token == "|":
            terms.append(_join(And, factors))
            factors = []
            operand = True
            continue
        elif token == ")" and stack:
            terms.append(_join(And, factors))
            node = _join(Or, terms)
            terms, factors, nots = stack.pop()
            depth -= 1
        else:
            raise _error(text, tokens, j, f"expected ')', found {token!r}" if stack
                         else f"unexpected token {token!r}")
        depth -= nots
        while nots:
            node = Not(node)
            nots -= 1
        factors.append(node)
        operand = False
    if operand or stack:
        raise _error(text, tokens, len(tokens), "unexpected token ''" if operand
                     else "expected ')', found ''")
    terms.append(_join(And, factors))
    return _join(Or, terms)


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
    out: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            out.add(g.index)
        elif isinstance(g, Not):
            stack.append(g.child)
        elif isinstance(g, (And, Or)):
            stack.extend(g.children)
        elif not isinstance(g, Const):
            raise TypeError(f"not an expression node: {g!r}")
    return out


def _column(k: int, pos: int) -> int:
    """The 2^k-bit table of row bit ``pos``: bit r is set iff bit ``pos`` of r is."""
    width = 1 << pos
    column = ((1 << width) - 1) << width
    # double the repeating pattern until it spans all 2^k rows: the work
    # stays linear in 2^k even for the widest columns
    span = 2 * width
    while span < 1 << k:
        column |= column << span
        span *= 2
    return column


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
